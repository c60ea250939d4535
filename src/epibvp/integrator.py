"""Integration from the singular endpoint and residual validation.

The initial value problem is launched at t = eps with the two-term series
u = a*t + beta*t^2 (beta = a^2/16 + lam/4) and advanced to t = 1/2 with an
embedded Dormand-Prince 5(4) pair, whose one step-size controller serves
every shot.  Its stages are spelled out on Python floats, each sum in
tableau order, so a shot costs little more than its arithmetic.  Dense
output records the accepted steps and then fills every sample of the
uniform grid in one vectorized pass from the pair's quartic interpolant, so
step sizes are chosen by the error controller alone.  lam is a pure scale
of the equation: if u(t) solves it, u(kt) solves it with k^2 lam and launch
slope k a, so the event shot at one lam (:func:`shoot_event`) gives a
solution at another lam for each slope.

Candidate solutions are validated against two exact identities that every
genuine solution satisfies:

* first integral:  t u'(t) - u(t) = I(t) + (lam/4) t^2
* integral representation:  u(t) = -[2 (1/2-t) I(t)
      + t int_t^{1/2} u^2/(4s^2) (1/2-s) ds + (lam/4) t (1/2-t) - 2 t u(1/2)]

with the singular integral I(t) = int_0^t u^2/(8s) ds, which both share
(:func:`_singular_integral`).  The integrals are evaluated by cumulative
trapezoid quadrature on the sample grid; the s < eps tail of I comes
analytically from the series launch.
A fixed-step classical RK4 integrator is kept alongside as an independent
reference so that the two schemes cross-check each other.
"""

from __future__ import annotations

import dataclasses
import math
from operator import mul

import numpy as np

from .errors import IntegrationError
from .model import ProblemSpec, Trajectory, _cumtrapz

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

# the residual validators use trapezoid quadrature on the sample grid; their
# acceptance thresholds below are calibrated at this output resolution
VALIDATION_GRID_MIN = 16001
FI_TOL = 1e-6  # first-integral residual
REP_TOL = 1e-5  # integral-representation residual
SIGN_TOL = 1e-8  # max u (sign property)
BOUNDARY_TOL = 1e-8  # endpoint residual


@dataclasses.dataclass
class ValidationReport:
    """Residuals of one trajectory against the exact solution identities.

    A trajectory is accepted iff every residual is below its threshold and
    ``sign_violation``, which is max u over the samples and may be of
    either sign, is at most ``SIGN_TOL``.  A diverged trajectory has
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


def _dp45(spec: ProblemSpec, a: float, on_step=None) -> tuple[float, float, bool]:
    """Adaptive Dormand-Prince 5(4) run from the series launch to t = 1/2.

    The one step-size controller of the package: local error per step is
    bounded by ``spec.step_tol``, measured on (u, u').  Each accepted step
    calls ``on_step(t, h, u, du, k)`` with its start time, size, start state
    and the seven stage derivatives ``k[s] = (u', u'')``, and stops there if
    it returns true; :func:`integrate` records the steps to fill its output
    samples and :func:`shoot_event` stops past a sign change.  Returns the
    last state ``(u, u', diverged)``: the state at t = 1/2 or where it
    stopped, or the last state reached when |u| exceeded ``BLOWUP`` or a
    stage went non-finite (both flagged as divergence).

    The stages are spelled out on local floats.  Each stage sum and error
    sum starts at 0.0 and adds its terms in tableau order, zero weights
    included, which fixes every rounding: the shot is bit for bit that of
    ``acc = 0.0; for j: acc += A[s][j] * k[j]`` over the tableau.  The
    tuples ``k`` are built only for ``on_step``.

    The pair is first-same-as-last: the last stage sits at the 5th-order
    end state, so an accepted step hands its end state and the next
    step's first stage over without recomputing them.

    Raises
    ------
    IntegrationError
        On step-size underflow.
    """
    c1, c2, c3, c4, c5, c6 = _DP_C
    ((a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54), (a60, a61, a62, a63, a64, a65)) = _DP_A
    e0, e1, e2, e3, e4, e5, e6 = _DP_E
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
        u1 = u + h * (0.0 + a10 * du)
        v1 = du + h * (0.0 + a10 * f0)
        f1 = u1 * u1 / (8.0 * ts * ts) + half_lam
        ts = t + c2 * h
        u2 = u + h * (0.0 + a20 * du + a21 * v1)
        v2 = du + h * (0.0 + a20 * f0 + a21 * f1)
        f2 = u2 * u2 / (8.0 * ts * ts) + half_lam
        ts = t + c3 * h
        u3 = u + h * (0.0 + a30 * du + a31 * v1 + a32 * v2)
        v3 = du + h * (0.0 + a30 * f0 + a31 * f1 + a32 * f2)
        f3 = u3 * u3 / (8.0 * ts * ts) + half_lam
        ts = t + c4 * h
        u4 = u + h * (0.0 + a40 * du + a41 * v1 + a42 * v2 + a43 * v3)
        v4 = du + h * (0.0 + a40 * f0 + a41 * f1 + a42 * f2 + a43 * f3)
        f4 = u4 * u4 / (8.0 * ts * ts) + half_lam
        ts = t + c5 * h
        u5 = u + h * (0.0 + a50 * du + a51 * v1 + a52 * v2 + a53 * v3 + a54 * v4)
        v5 = du + h * (0.0 + a50 * f0 + a51 * f1 + a52 * f2 + a53 * f3 + a54 * f4)
        f5 = u5 * u5 / (8.0 * ts * ts) + half_lam
        ts = t + c6 * h
        u6 = u + h * (0.0 + a60 * du + a61 * v1 + a62 * v2 + a63 * v3 + a64 * v4 + a65 * v5)
        v6 = du + h * (0.0 + a60 * f0 + a61 * f1 + a62 * f2 + a63 * f3 + a64 * f4 + a65 * f5)
        # every stage weighs the one before it by a nonzero A[s][s-1], so a
        # non-finite stage makes every later one non-finite: checking the
        # last stage catches the state exploding anywhere inside the step
        if not (isfinite(u6) and isfinite(v6)):
            return u, du, True
        f6 = u6 * u6 / (8.0 * ts * ts) + half_lam
        err_u = 0.0 + e0 * du + e1 * v1 + e2 * v2 + e3 * v3 + e4 * v4 + e5 * v5 + e6 * v6
        err_v = 0.0 + e0 * f0 + e1 * f1 + e2 * f2 + e3 * f3 + e4 * f4 + e5 * f5 + e6 * f6
        err_u = abs(h * err_u) / (tol * (1.0 + abs(u)))
        err_v = abs(h * err_v) / (tol * (1.0 + abs(du)))
        err = err_v if err_v > err_u else err_u
        if not isfinite(err):
            err = 1e16
        if err <= 1.0:
            if on_step is not None and on_step(t, h, u, du, ((du, f0), (v1, f1), (v2, f2), (v3, f3),
                                                             (v4, f4), (v5, f5), (v6, f6))):
                return u, du, False
            t += h
            u, du, f0 = u6, v6, f6
            if abs(u) > BLOWUP:
                return u, du, True
            if final:
                return u, du, False
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0.0 else 5.0
        h *= 0.2 if factor < 0.2 else 5.0 if factor > 5.0 else factor
        if h < _MIN_STEP:
            raise IntegrationError(f"step size underflow at t={t!r} (a={a!r}, lam={lam!r})")


def integrate(spec: ProblemSpec, a: float) -> Trajectory:
    """Shoot from the series launch at t = eps to t = 1/2 with slope a.

    The :func:`_dp45` stepper, with output on ``spec.grid_n`` uniform t
    samples (endpoint included).  The accepted steps are recorded, then
    every sample after the launch is filled in one vectorized pass from the
    quartic interpolant of its step: the first step whose end lies beyond
    the sample, so a sample on a step end is deferred to the next step,
    whose theta = 0 reproduces the stepped state bit for bit.  Samples at
    or past the last step's end take the end state at t = 1/2 (they differ
    from it only by fp drift).  If |u| exceeds ``BLOWUP`` the run stops and
    the trajectory is truncated after its last filled sample, with
    ``diverged`` set -- root scanning relies on probing such slopes, so
    divergence is not an error.

    Each sample is evaluated elementwise in a fixed order (acc += q_j
    theta^(j+1) for j = 0..3, q_j summed over the stages in order), so its
    bits depend neither on how many samples its step covers nor on the
    grid.  Deterministic: identical spec and slope give bit-identical
    samples.

    Raises
    ------
    IntegrationError
        On step-size underflow.
    """
    steps = []
    u, du, diverged = _dp45(spec, a, lambda *step: steps.append(step))
    t_out = np.linspace(spec.eps, 0.5, spec.grid_n)
    us = np.empty(spec.grid_n)
    dus = np.empty(spec.grid_n)
    us[0], dus[0] = launch_state(a, spec.lam, spec.eps)
    idx = 1
    if steps:
        t0, h, u0, du0 = np.array([step[:4] for step in steps]).T
        k = np.array([step[4] for step in steps])
        # q[:, c, j] = sum over stages s of k_s[c] P[s][j], added from 0.0 in stage order
        q = np.zeros((len(steps), 2, 4))
        for s, row in enumerate(_DP_P):
            q += k[:, s, :, None] * row
        # step s fills the samples before its end that no earlier step took
        stops = np.searchsorted(t_out, t0 + h, "left")
        np.maximum(stops, idx, out=stops)
        counts = np.diff(stops, prepend=idx)
        idx = int(stops[-1])
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
        for y0, acc in ((u0, acc_u), (du0, acc_v)):
            acc *= np.repeat(h, counts)
            acc += np.repeat(y0, counts)
    if not diverged:
        us[idx:], dus[idx:] = u, du
        idx = spec.grid_n
    return Trajectory(
        lam=spec.lam, kind=spec.kind, t=t_out[:idx], u=us[:idx], du=dus[:idx], a=a,
        diverged=diverged,
    )


def shoot_endpoint(spec: ProblemSpec, a: float) -> tuple[float, float, bool]:
    """Endpoint state (u(1/2), u'(1/2), diverged) without dense output.

    Same stepper and tolerances as :func:`integrate`; used by root
    refinement where only the endpoint matters.
    """
    return _dp45(spec, a)


def shoot_event(spec: ProblemSpec, a: float) -> tuple[float, float, float] | None:
    """(t*, u, u') where b = ``spec.kind.residual(u, 2 t u')`` first leaves its
    launch sign, or None if b keeps it up to t = 1/2 or to divergence.

    b is u (Dirichlet) or u - 2 t u' (Navier), so u(2 t* t) is the solution
    at 4 t*^2 lam with slope 2 t* a.  The :func:`_dp45` shot stops at the
    first step start past the sign change, and Newton, kept inside the sign
    change, places t* on the quartic interpolant of the step before it.
    """
    # the residual is linear, so b = residual(u, 2 t u') = u + c t u'
    c = 2.0 * spec.kind.residual(0.0, 1.0)
    u, du = launch_state(a, spec.lam, spec.eps)
    sign = math.copysign(1.0, u + c * spec.eps * du)
    last = None

    def on_step(t, h, u, du, k):
        nonlocal last
        if sign * (u + c * t * du) <= 0.0:
            return True
        last = (t, h, u, du, k)

    u, du, _ = _dp45(spec, a, on_step)
    if last is None:
        return None
    t0, h, u0, du0, k = last
    b1 = u + c * (t0 + h) * du
    if sign * b1 > 0.0:
        return None
    # coefficients in theta = (t - t0)/h of u, u' and b on the step's interpolant
    pu, pv = ([y0] + [h * sum(map(mul, ks, col)) for col in zip(*_DP_P)] + [0.0]
              for ks, y0 in zip(zip(*k), (u0, du0)))
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


def _rk4_step(t0, t1, h, u, du, lam):
    """One classical RK4 step of (u, u') from t0 to t1 = t0 + h.

    Works on scalars and, elementwise, on arrays of states and of lams.  It
    steps the reference integrator below, and :func:`_rk4_scan` repeats its
    order of operations in place.
    """
    th = t0 + 0.5 * h
    half_lam = lam / 2.0
    k1u = du
    k1v = u * u / (8.0 * t0 * t0) + half_lam
    u2 = u + 0.5 * h * k1u
    k2u = du + 0.5 * h * k1v
    k2v = u2 * u2 / (8.0 * th * th) + half_lam
    u3 = u + 0.5 * h * k2u
    k3u = du + 0.5 * h * k2v
    k3v = u3 * u3 / (8.0 * th * th) + half_lam
    u4 = u + h * k3u
    k4u = du + h * k3v
    k4v = u4 * u4 / (8.0 * t1 * t1) + half_lam
    return (
        u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
        du + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


def _rk4_scan(grid, u, du, half_lam):
    """``_rk4_step`` over the times ``grid`` on arrays, in place.

    Steps the states (u, u') of the launch arrays ``u`` and ``du``, each
    with its own ``half_lam`` = lam / 2, through preallocated buffers, and
    returns the final (u, u') and the running peak of |u|.  Every element
    goes through the operations of ``_rk4_step`` in its order, so it is bit
    for bit an ``_rk4_step`` march; NaN propagates through the peak.
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


def integrate_rk4(spec: ProblemSpec, a: float, n_steps: int) -> Trajectory:
    """Fixed-step classical RK4 reference integrator (no adaptivity).

    Independent of the embedded pair in :func:`integrate`; the two are
    cross-checked in the test suite to guard against silent stepping bugs.
    Samples every ``n_steps // (grid_n - 1)``-th node when that divides
    evenly, otherwise returns all steps.
    """
    lam = spec.lam
    eps = spec.eps
    u, du = launch_state(a, lam, eps)
    h = (0.5 - eps) / n_steps
    stride = max(1, n_steps // (spec.grid_n - 1))
    ts = [eps]
    us = [u]
    dus = [du]
    t = eps
    diverged = False
    for i in range(n_steps):
        t1 = eps + (i + 1) * h
        u, du = _rk4_step(t, t1, h, u, du, lam)
        t = t1
        if (i + 1) % stride == 0 or i == n_steps - 1:
            ts.append(t)
            us.append(u)
            dus.append(du)
        if abs(u) > BLOWUP:
            diverged = True
            break
    return Trajectory(
        lam=lam, kind=spec.kind, t=np.array(ts), u=np.array(us), du=np.array(dus), a=a,
        diverged=diverged,
    )


def _singular_integral(traj: Trajectory) -> np.ndarray:
    """int_0^t u^2/(8s) ds at every sample t.

    Cumulative trapezoid on the sample grid plus the s < eps tail, where
    the integrand of the series u = a s + beta s^2 is a polynomial in s, so
    the tail (a^2 eps^2 / 16 to leading order) is exact to the launch order.
    """
    t, u = traj.t, traj.u
    a, eps = traj.a, float(t[0])
    beta = _beta(a, traj.lam)
    tail = (
        a * a * eps ** 2 / 2.0 + 2.0 * a * beta * eps ** 3 / 3.0 + beta * beta * eps ** 4 / 4.0
    ) / 8.0
    return _cumtrapz(u * u / (8.0 * t), t) + tail


def validate(traj: Trajectory) -> ValidationReport:
    """All validator residuals of one trajectory: the defects of the two
    identities (module docstring) over the samples, max u and the endpoint
    residual.  The package's one residual entry point."""
    if traj.diverged:
        return ValidationReport(
            first_integral_resid=math.inf,
            representation_resid=math.inf,
            sign_violation=float(np.max(traj.u)) if traj.u.size else math.inf,
            boundary_resid=math.inf,
        )
    t, u, du, lam = traj.t, traj.u, traj.du, traj.lam
    sing = _singular_integral(traj)  # one integral serves both residuals
    fi = float(np.max(np.abs(t * du - u - sing - lam / 4.0 * t * t)))
    # int_0^t u^2/(4s) ds, doubled in place, so no second array of the trajectory's length
    sing *= 2.0
    cum = _cumtrapz(u * u * (0.5 - t) / (4.0 * t * t), t)
    right = cum[-1] - cum
    # the Navier case keeps the 2 t u(1/2) term, which drops for Dirichlet solutions
    predicted = -((0.5 - t) * sing + t * right + lam / 4.0 * t * (0.5 - t) - 2.0 * t * u[-1])
    return ValidationReport(
        first_integral_resid=fi,
        representation_resid=float(np.max(np.abs(u - predicted))),
        sign_violation=float(np.max(u)),
        boundary_resid=float(traj.kind.residual(u[-1], du[-1])),
    )
