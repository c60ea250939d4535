"""Integration from the singular endpoint and the solution validator.

The initial value problem is launched at t = eps with the two-term series
u = a*t + beta*t^2 (beta = a^2/16 + lam/4) and advanced to t = 1/2 with an
embedded Dormand-Prince 5(4) pair, whose one step-size controller serves
every shot.  Its stages are spelled out on Python floats, each sum in
tableau order, so a shot costs little more than its arithmetic.  A shot
can record each accepted step as its start (t, h, u, u') and the stages it
has already computed: a :class:`Shot` is built from that record and fills
the samples of any uniform grid in one vectorized pass from the pair's
quartic interpolant, so step sizes are chosen by the error controller
alone.  lam is a pure scale of the equation: if u(t) solves it, u(kt)
solves it with k^2 lam and launch slope k a, so the event shot at one lam
(:func:`shoot_event`) gives a solution at another lam for each slope.

Candidate solutions are validated against two exact identities that every
genuine solution satisfies:

* first integral:  t u'(t) - u(t) = I(t) + (lam/4) t^2
* integral representation:  u(t) = -[2 (1/2-t) I(t)
      + t int_t^{1/2} u^2/(4s^2) (1/2-s) ds + (lam/4) t (1/2-t) - 2 t u(1/2)]

with the singular integral I(t) = int_0^t u^2/(8s) ds, which both share.
:func:`validate` checks both at the ends of a solution's panels.  A shot's
panels are its accepted steps: a 6-node Gauss-Legendre rule integrates the
step's quartic interpolant (Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.6), and the s < eps tail of I comes analytically from the series
launch.  The rule's error is far below the shot's own, so the residuals
measure the solution, and no output grid enters them.
"""

from __future__ import annotations

import dataclasses
import math
from operator import mul

import numpy as np

from .errors import IntegrationError
from .model import BoundaryKind, ProblemSpec, Trajectory

# Dormand-Prince 5(4) tableau, embedded error weights, and Shampine's
# quartic dense-output matrix (order-4 interpolant over each step).
_DP_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
_DP_P = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0, -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0, 87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0, -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0, 701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0, -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0),
)

_MIN_STEP = 1e-16

# |u| above which a shot is flagged as diverged
BLOWUP = 1e6

# 6-node Gauss-Legendre rule on [-1, 1], exact to degree 11, and its nodes
# theta in (0, 1) with their weights for the unit interval
_GL_X = (-0.932469514203152, -0.6612093864662645, -0.2386191860831969,
         0.2386191860831969, 0.6612093864662645, 0.932469514203152)
_GL_W = (0.17132449237917036, 0.3607615730481386, 0.46791393457269104,
         0.46791393457269104, 0.3607615730481386, 0.17132449237917036)
_GL_THETA = np.array([(1.0 + x) / 2.0 for x in _GL_X])
_GL_HALF_W = [w / 2.0 for w in _GL_W]

FI_TOL = 1e-6  # first-integral residual
REP_TOL = 1e-5  # integral-representation residual
SIGN_TOL = 1e-8  # max u (sign property)
BOUNDARY_TOL = 1e-8  # endpoint residual


@dataclasses.dataclass
class ValidationReport:
    """Residuals of one solution against the exact solution identities.

    A solution is accepted iff every residual is below its threshold and
    ``sign_violation``, which is max u over its panel ends and nodes and may
    be of either sign, is at most ``SIGN_TOL``.  A diverged shot has
    infinite residuals, so it is never accepted.
    """

    first_integral_resid: float
    representation_resid: float
    sign_violation: float
    boundary_resid: float

    def accepted(self) -> bool:
        """Check all residuals against the module's acceptance thresholds."""
        return (
            self.first_integral_resid < FI_TOL
            and self.representation_resid < REP_TOL
            and self.sign_violation <= SIGN_TOL
            and abs(self.boundary_resid) < BOUNDARY_TOL
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _beta(a, lam):
    """The series coefficient beta = a^2/16 + lam/4 that the equation forces."""
    return a * a / 16.0 + lam / 4.0


def launch_state(a: float, lam: float, eps: float) -> tuple[float, float]:
    """Series state (u, u') at t = eps for launch slope a.

    u = a*eps + beta*eps^2 and u' = a + 2*beta*eps with beta = a^2/16 + lam/4.
    Substituting the series back into the equation leaves a residual that is
    O(eps), so the launch error in u is O(eps^3).
    """
    if not 0.0 < eps < 0.5:
        raise IntegrationError(f"launch point must lie in (0, 1/2), got {eps}")
    beta = _beta(a, lam)
    return a * eps + beta * eps * eps, a + 2.0 * beta * eps


def _dp45(spec: ProblemSpec, a: float, steps: list | None = None, stop=None) -> tuple:
    """Adaptive Dormand-Prince 5(4) run from the series launch to t = 1/2.

    The one step-size controller of the package: local error per step is
    bounded by ``spec.step_tol``, measured on (u, u').  Returns the last
    state ``(u, u', diverged)``: the state at t = 1/2, or the last state
    reached when |u| exceeded ``BLOWUP`` or a stage went non-finite (both
    flagged as divergence).  Each accepted step appends its record to
    ``steps`` when given: 18 floats, its start (t, h, u, u') and then its
    seven stages (u', u''), u' of stage s at 4 + 2 s and u'' at 5 + 2 s.
    If ``stop(t, u, u')`` holds at an accepted step's end, the shot stops
    there and returns ``(u, u', False, step)``: that end and the step's
    record.

    The stages are spelled out on local floats, each sum in tableau order
    from its first nonzero term.  For every finite stage that is bit for bit
    ``acc = 0.0; for j: acc += A[s][j] * k[j]`` over the tableau: u and u'
    are never -0.0, so a sum's sign of zero is lost once they are added, and
    a zero weight adds 0 x = 0.  A non-finite stage still reaches u6 or u'6,
    as every stage weighs the one before it by a nonzero A[s][s-1].  As
    c5 = c6 = 1, stages 5 and 6 share t + h.

    The pair is first-same-as-last: the last stage sits at the 5th-order
    end state, so an accepted step hands its end state and the next
    step's first stage over without recomputing them.

    Raises
    ------
    IntegrationError
        On step-size underflow.
    """
    c1, c2, c3, c4 = _DP_C[:4]
    ((a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54), (a60, _, a62, a63, a64, a65)) = _DP_A
    e0, _, e2, e3, e4, e5, e6 = _DP_E
    isfinite = math.isfinite
    lam = spec.lam
    half_lam = lam / 2.0
    tol = spec.step_tol
    u, du = launch_state(a, lam, spec.eps)
    t = spec.eps
    h = min(1e-4, 0.5 - t)
    # the first stage (u', u'') is (du, f0); the last stage of a step is the next one's first
    f0 = u * u / (8.0 * t * t) + half_lam
    while True:
        final = h >= 0.5 - t
        if final:
            h = 0.5 - t
        ts = t + c1 * h
        u1 = u + h * (a10 * du)
        v1 = du + h * (a10 * f0)
        f1 = u1 * u1 / (8.0 * ts * ts) + half_lam
        ts = t + c2 * h
        u2 = u + h * (a20 * du + a21 * v1)
        v2 = du + h * (a20 * f0 + a21 * f1)
        f2 = u2 * u2 / (8.0 * ts * ts) + half_lam
        ts = t + c3 * h
        u3 = u + h * (a30 * du + a31 * v1 + a32 * v2)
        v3 = du + h * (a30 * f0 + a31 * f1 + a32 * f2)
        f3 = u3 * u3 / (8.0 * ts * ts) + half_lam
        ts = t + c4 * h
        u4 = u + h * (a40 * du + a41 * v1 + a42 * v2 + a43 * v3)
        v4 = du + h * (a40 * f0 + a41 * f1 + a42 * f2 + a43 * f3)
        f4 = u4 * u4 / (8.0 * ts * ts) + half_lam
        ts = t + h
        w = 8.0 * ts * ts
        u5 = u + h * (a50 * du + a51 * v1 + a52 * v2 + a53 * v3 + a54 * v4)
        v5 = du + h * (a50 * f0 + a51 * f1 + a52 * f2 + a53 * f3 + a54 * f4)
        f5 = u5 * u5 / w + half_lam
        u6 = u + h * (a60 * du + a62 * v2 + a63 * v3 + a64 * v4 + a65 * v5)
        v6 = du + h * (a60 * f0 + a62 * f2 + a63 * f3 + a64 * f4 + a65 * f5)
        # a non-finite stage anywhere in the step reaches u6 or v6
        if not (isfinite(u6) and isfinite(v6)):
            return u, du, True
        f6 = u6 * u6 / w + half_lam
        err_u = e0 * du + e2 * v2 + e3 * v3 + e4 * v4 + e5 * v5 + e6 * v6
        err_v = e0 * f0 + e2 * f2 + e3 * f3 + e4 * f4 + e5 * f5 + e6 * f6
        err_u = abs(h * err_u) / (tol * (1.0 + abs(u)))
        err_v = abs(h * err_v) / (tol * (1.0 + abs(du)))
        err = err_v if err_v > err_u else err_u
        if not isfinite(err):
            err = 1e16
        if err <= 1.0:
            stopped = stop is not None and stop(ts, u6, v6)
            if stopped or steps is not None:
                step = (t, h, u, du, du, f0, v1, f1, v2, f2, v3, f3, v4, f4, v5, f5, v6, f6)
                if stopped:
                    return u6, v6, False, step
                steps += step
            t = ts
            u, du, f0 = u6, v6, f6
            if abs(u) > BLOWUP:
                return u, du, True
            if final:
                return u, du, False
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0.0 else 5.0
        h *= 0.2 if factor < 0.2 else 5.0 if factor > 5.0 else factor
        if h < _MIN_STEP:
            raise IntegrationError(f"step size underflow at t={t!r} (a={a!r}, lam={lam!r})")


@dataclasses.dataclass(eq=False)
class Panels:
    """A candidate solution on consecutive panels of [t[0], 1/2], as
    :func:`validate` reads it.

    ``u`` and ``du`` are the solution at the panel ends ``t`` (t[-1] is 1/2
    unless ``diverged``), ``nodes[k, i]`` is u at the Gauss-Legendre node
    t[i] + theta_k (t[i+1] - t[i]) of panel i, and ``tail`` is
    int_0^t[0] u^2/(8s) ds.
    """

    lam: float
    kind: BoundaryKind
    t: np.ndarray
    u: np.ndarray
    du: np.ndarray
    nodes: np.ndarray
    tail: float
    diverged: bool


@dataclasses.dataclass(eq=False)
class Shot(Panels):
    """One :func:`_dp45` shot at slope ``a``, its accepted steps as panels.

    Step i starts at t[i] with size ``h[i]``; ``q[i, c, j]`` are the
    coefficients of its quartic interpolant of (u, u')[c]:
    y(t[i] + theta h[i]) = y(t[i]) + h[i] sum_j q[i, c, j] theta^(j+1).
    Built by :func:`shoot` from the stepper's record of its steps.
    """

    a: float
    h: np.ndarray
    q: np.ndarray

    def trajectory(self, grid_n: int) -> Trajectory:
        """The shot on ``grid_n`` uniform samples of [eps, 1/2], endpoint included.

        Every sample after the launch is filled in one vectorized pass from
        the quartic interpolant of its step: the first step whose end lies
        beyond the sample, so a sample on a step end is deferred to the next
        step, whose theta = 0 reproduces the stepped state bit for bit.
        Samples at or past the last step's end take the end state at t = 1/2
        (they differ from it only by fp drift); a diverged shot is truncated
        after its last filled sample.  Each sample is evaluated elementwise
        in a fixed order (acc += q_j theta^(j+1) for j = 0..3), so its bits
        depend neither on how many samples its step covers nor on the grid.
        """
        t0, h, q = self.t[:-1], self.h, self.q
        t_out = np.linspace(self.t[0], 0.5, grid_n)
        us = np.empty(grid_n)
        dus = np.empty(grid_n)
        us[0], dus[0] = self.u[0], self.du[0]
        # step s fills the samples before its end that no earlier step took
        stops = np.searchsorted(t_out, t0 + h, "left")
        np.maximum(stops, 1, out=stops)
        counts = np.diff(stops, prepend=1)
        idx = int(stops[-1]) if h.size else 1
        theta = t_out[1:idx] - np.repeat(t0, counts)
        theta /= np.repeat(h, counts)
        poly = theta.copy()
        acc_u, acc_v = us[1:idx], dus[1:idx]
        acc_u.fill(0.0)
        acc_v.fill(0.0)
        for j in range(4):
            for c, acc in ((0, acc_u), (1, acc_v)):
                term = np.repeat(q[:, c, j], counts)
                term *= poly
                acc += term
            poly *= theta
        for y0, acc in ((self.u[:-1], acc_u), (self.du[:-1], acc_v)):
            acc *= np.repeat(h, counts)
            acc += np.repeat(y0, counts)
        if not self.diverged:
            us[idx:], dus[idx:] = self.u[-1], self.du[-1]
            idx = grid_n
        return Trajectory(
            lam=self.lam, kind=self.kind, t=t_out[:idx], u=us[:idx], du=dus[:idx], a=self.a,
            diverged=self.diverged,
        )


def shoot(spec: ProblemSpec, a: float) -> Shot:
    """The :func:`_dp45` shot at slope a, built from the steps it records.

    Each accepted step's stages come from the stepper itself, so the
    interpolant coefficients ``q`` and the Gauss-Legendre nodes follow from
    the record alone.  If |u| exceeds ``BLOWUP`` the shot stops there with
    ``diverged`` set -- root scanning relies on probing such slopes, so
    divergence is not an error.  Deterministic: identical spec and slope
    give bit-identical shots.

    Raises
    ------
    IntegrationError
        On step-size underflow.
    """
    steps: list = []
    u_end, du_end, diverged = _dp45(spec, a, steps)
    # one row per accepted step: t, h, u, u', then its seven stages (u', u'')
    rec = np.array(steps, dtype=float).reshape(-1, 18)
    t0, h, u0, du0 = rec[:, :4].T
    k = rec[:, 4:].reshape(-1, 7, 2)
    t = np.append(t0, t0[-1] + h[-1] if h.size else spec.eps)
    u, du = np.append(u0, u_end), np.append(du0, du_end)
    # q[:, c, j] = sum over stages s of k_s[c] P[s][j], added from 0.0 in stage order
    q = np.zeros((h.size, 2, 4))
    for s, row in enumerate(_DP_P):
        q += k[:, s, :, None] * row
    # u at each step's Gauss-Legendre nodes, on the same interpolant
    nodes = np.zeros((_GL_THETA.size, h.size))
    poly = _GL_THETA
    for j in range(4):
        nodes += np.multiply.outer(poly, q[:, 0, j])
        poly = poly * _GL_THETA
    nodes *= h
    nodes += u0
    # the series u = a s + beta s^2 makes u^2/(8s) a polynomial below eps
    eps, beta = spec.eps, _beta(a, spec.lam)
    tail = (a * a * eps ** 2 / 2.0 + 2.0 * a * beta * eps ** 3 / 3.0
            + beta * beta * eps ** 4 / 4.0) / 8.0
    return Shot(lam=spec.lam, kind=spec.kind, t=t, u=u, du=du, nodes=nodes, tail=tail,
                diverged=diverged, a=a, h=h, q=q)


def integrate(spec: ProblemSpec, a: float) -> Trajectory:
    """The shot at slope a (:func:`shoot`) on ``spec.grid_n`` samples."""
    return shoot(spec, a).trajectory(spec.grid_n)


def shoot_endpoint(spec: ProblemSpec, a: float) -> tuple:
    """Endpoint state (u(1/2), u'(1/2), diverged) of the :func:`_dp45` shot,
    which records nothing."""
    return _dp45(spec, a)


def shoot_event(spec: ProblemSpec, a: float) -> tuple[float, float, float] | None:
    """(t*, u, u') where b = ``spec.kind.residual(u, 2 t u')`` first leaves its
    launch sign, or None if b keeps it up to t = 1/2 or to divergence.

    b is u (Dirichlet) or u - 2 t u' (Navier), so u(2 t* t) is the solution
    at 4 t*^2 lam with slope 2 t* a.  The :func:`_dp45` shot tests b at the
    end of each accepted step and stops at the first that has left the
    sign, with that step's stages in hand; Newton, kept inside the sign
    change, places t* on the step's quartic interpolant.  A launch on b = 0
    has no sign to leave, and gives None.
    """
    # the residual is linear, so b = residual(u, 2 t u') = u + c t u'
    c = 2.0 * spec.kind.residual(0.0, 1.0)
    u, du = launch_state(a, spec.lam, spec.eps)
    sign = math.copysign(1.0, u + c * spec.eps * du)

    def crossed(t, u, du):
        return sign * (u + c * t * du) <= 0.0

    if crossed(spec.eps, u, du):
        return None
    end = _dp45(spec, a, stop=crossed)
    if len(end) == 3:  # b kept its sign to t = 1/2 or to divergence
        return None
    u, du, _, (t0, h, u0, du0, *k) = end
    b1 = u + c * (t0 + h) * du
    # coefficients in theta = (t - t0)/h of u, u' and b on the step's interpolant
    pu, pv = ([y0] + [h * sum(map(mul, ks, col)) for col in zip(*_DP_P)] + [0.0]
              for ks, y0 in zip((k[0::2], k[1::2]), (u0, du0)))
    pb = [x + c * (t0 * v + h * prev) for x, v, prev in zip(pu, pv, [0.0] + pv)]

    def horner(coeffs, theta):
        value = slope = 0.0
        for coeff in reversed(coeffs):
            slope = slope * theta + value
            value = value * theta + coeff
        return value, slope

    lo, hi, theta = 0.0, 1.0, pb[0] / (pb[0] - b1)
    for _ in range(60):
        b, db = horner(pb, theta)
        lo, hi = (theta, hi) if sign * b > 0.0 else (lo, theta)
        step = theta - b / db if db != 0.0 else math.nan
        if not lo <= step <= hi:
            step = 0.5 * (lo + hi)
        if abs(step - theta) <= 1e-14:
            break
        theta = step
    return t0 + theta * h, horner(pu, theta)[0], horner(pv, theta)[0]


def _rk4_scan(grid, u, du, half_lam):
    """Classical RK4 over the times ``grid`` on arrays, in place.

    Steps the states (u, u') of the launch arrays ``u`` and ``du``, each
    with its own ``half_lam`` = lam / 2, through preallocated buffers, and
    returns the final (u, u') and the running peak of |u|.  Every element
    goes through the operations of one scalar RK4 step in a fixed order
    (the slopes u^2/(8 t^2) + lam/2 at t0, t0 + h/2 twice and t1, then
    y += h/6 (((k1 + 2 k2) + 2 k3) + k4)), so it is bit for bit the scalar
    reference step of the tests; NaN propagates through the peak.
    """
    n = half_lam.size
    # stage s's rows are its state u and its slope pair (u', u''); stage 0
    # starts at y = (u, u'), so y and every slope pair are views
    k = np.empty((4, 3, n))
    k[0, 0], k[0, 1] = u, du
    y, u, k1v = k[0, :2], k[0, 0], k[0, 2]
    stages = [(k[s, :2], k[s, 0], k[s, 2], k[s - 1, 1:]) for s in range(1, 4)]
    k1, k2, k3, k4 = (k[s, 1:] for s in range(4))
    acc, tmp = np.empty((2, n)), np.empty((2, n))
    peak = np.zeros(n)
    for t0, t1 in zip(grid, grid[1:]):
        h = t1 - t0
        th = t0 + 0.5 * h
        np.multiply(u, u, out=k1v)
        np.divide(k1v, 8.0 * t0 * t0, out=k1v)
        np.add(k1v, half_lam, out=k1v)
        for (state, us, vs, prev), step, t in zip(stages, (0.5 * h, 0.5 * h, h), (th, th, t1)):
            # (u_s, u'_s) = y + step (u', u'') of the stage before
            np.add(y, np.multiply(step, prev, out=state), out=state)
            np.multiply(us, us, out=vs)
            np.divide(vs, 8.0 * t * t, out=vs)
            np.add(vs, half_lam, out=vs)
        # y += h / 6 (((k1 + 2 k2) + 2 k3) + k4)
        np.add(k1, np.multiply(2.0, k2, out=tmp), out=acc)
        np.add(acc, np.multiply(2.0, k3, out=tmp), out=acc)
        np.add(acc, k4, out=acc)
        np.add(y, np.multiply(h / 6.0, acc, out=acc), out=y)
        np.maximum(peak, np.abs(u, out=tmp[0]), out=peak)
    return y[0], y[1], peak


def validate(sol: Panels) -> ValidationReport:
    """All validator residuals of one solution: the defects of the two
    identities (module docstring) at its panel ends, max u over the ends
    and the nodes, and the endpoint residual.  The package's one residual
    entry point.  Each panel's two integrals are Gauss-Legendre sums in
    node order; I(t) is ``tail`` plus their running sum from t[0], and the
    representation's right integral is summed from t = 1/2.
    """
    if sol.diverged:
        return ValidationReport(
            first_integral_resid=math.inf,
            representation_resid=math.inf,
            sign_violation=float(np.max(sol.u)),
            boundary_resid=math.inf,
        )
    t, u, du, lam = sol.t, sol.u, sol.du, sol.lam
    h = np.diff(t)
    sing = np.zeros(t.size)
    right = np.zeros(t.size)
    for theta, weight, un in zip(_GL_THETA, _GL_HALF_W, sol.nodes):
        s = t[:-1] + theta * h
        w2 = weight * h * un * un
        sing[1:] += w2 / (8.0 * s)
        right[:-1] += w2 * (0.5 - s) / (4.0 * s * s)
    sing = sol.tail + np.cumsum(sing)
    right = np.cumsum(right[::-1])[::-1]
    fi = float(np.max(np.abs(t * du - u - sing - lam / 4.0 * t * t)))
    # the Navier case keeps the 2 t u(1/2) term, which drops for Dirichlet solutions
    predicted = -(2.0 * (0.5 - t) * sing + t * right + lam / 4.0 * t * (0.5 - t) - 2.0 * t * u[-1])
    return ValidationReport(
        first_integral_resid=fi,
        representation_resid=float(np.max(np.abs(u - predicted))),
        sign_violation=float(max(np.max(u), np.max(sol.nodes))),
        boundary_resid=float(sol.kind.residual(u[-1], du[-1])),
    )
