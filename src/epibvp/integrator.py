"""Integration from the singular endpoint and residual validation.

The initial value problem is launched at t = eps with the two-term series
u = a*t + beta*t^2 (beta = a^2/16 + lam/4) and advanced to t = 1/2 with an
embedded Dormand-Prince 5(4) pair.  Output samples on the uniform grid are
filled from the pair's quartic dense interpolant, so step sizes are chosen
by the error controller alone.

Candidate solutions are validated against two exact identities that every
genuine solution satisfies:

* first integral:  t u'(t) - u(t) = int_0^t u^2/(8s) ds + (lam/4) t^2
* integral representation:  u(t) = -[(1/2-t) int_0^t u^2/(4s) ds
      + t int_t^{1/2} u^2/(4s^2) (1/2-s) ds + (lam/4) t (1/2-t) - 2 t u(1/2)]

Both integrals are evaluated by cumulative trapezoid quadrature on the
sample grid; the s < eps tails come analytically from the series launch.
A fixed-step classical RK4 integrator is kept alongside as an independent
reference so that the two schemes cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .model import BoundaryKind, ProblemSpec, SeriesLaunch, Trajectory, _cumtrapz

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

# the residual validators use trapezoid quadrature on the sample grid; their
# default thresholds are calibrated at this output resolution
VALIDATION_GRID_MIN = 16001

# tolerance carrier for ValidationReport.accepted() without an explicit spec
_DEFAULT_TOLS = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET)


@dataclass
class ValidationReport:
    """Residuals of one trajectory against the exact solution identities.

    A trajectory is accepted iff every residual is below its configured
    tolerance; ``sign_violation`` is max u over the samples and may be of
    either sign.
    """

    first_integral_resid: float
    representation_resid: float
    sign_violation: float
    boundary_resid: float
    diverged: bool = False

    def accepted(self, spec: ProblemSpec | None = None) -> bool:
        """Check all residuals against the tolerances of ``spec``.

        Default tolerances apply when no spec is given.
        """
        if spec is None:
            spec = _DEFAULT_TOLS
        return (
            not self.diverged
            and self.first_integral_resid < spec.fi_tol
            and self.representation_resid < spec.rep_tol
            and self.sign_violation <= spec.sign_tol
            and abs(self.boundary_resid) < spec.boundary_tol
        )

    def to_dict(self) -> dict:
        return {
            "first_integral_resid": self.first_integral_resid,
            "representation_resid": self.representation_resid,
            "sign_violation": self.sign_violation,
            "boundary_resid": self.boundary_resid,
        }


def launch_state(a: float, lam: float, eps: float) -> tuple[float, float]:
    """Series state (u, u') at t = eps for launch slope a.

    u = a*eps + beta*eps^2 and u' = a + 2*beta*eps with beta = a^2/16 + lam/4.
    Substituting the series back into the equation leaves a residual that is
    O(eps), so the launch error in u is O(eps^3).
    """
    if not 0.0 < eps < 0.5:
        raise IntegrationError(f"launch point must lie in (0, 1/2), got {eps}")
    beta = a * a / 16.0 + lam / 4.0
    return a * eps + beta * eps * eps, a + 2.0 * beta * eps


def _dense_fill(t0, h, y0, k, t_out, us, dus, idx):
    """Fill output samples interior to the step [t0, t0+h) from the interpolant.

    Samples landing exactly on a step end are deferred: the next step fills
    them at theta = 0, which reproduces the stepped state bit-for-bit, and
    the final step's flush covers the right endpoint.
    """
    n = len(t_out)
    end = t0 + h
    q = [[0.0] * 4, [0.0] * 4]
    for comp in range(2):
        for j in range(4):
            q[comp][j] = sum(k[s][comp] * _DP_P[s][j] for s in range(7))
    while idx < n and t_out[idx] < end:
        theta = (t_out[idx] - t0) / h
        poly = theta
        acc_u = 0.0
        acc_v = 0.0
        for j in range(4):
            acc_u += q[0][j] * poly
            acc_v += q[1][j] * poly
            poly *= theta
        us[idx] = y0[0] + h * acc_u
        dus[idx] = y0[1] + h * acc_v
        idx += 1
    return idx


def _dp45(spec: ProblemSpec, a: float, dense=None) -> tuple[float, float, bool, int]:
    """Adaptive Dormand-Prince 5(4) run from the series launch to t = 1/2.

    Local error per step is bounded by ``spec.step_tol``.  With a dense
    target ``(t_out, us, dus)`` the output samples are filled from the
    quartic interpolant as the steps pass them.  Returns the last state
    ``(u, u', diverged, samples filled)``: the state at t = 1/2, or the last
    state reached when |u| exceeded ``spec.blowup`` or a stage went
    non-finite (both flagged as divergence).

    The pair is first-same-as-last: the last stage sits at the 5th-order
    end state, so an accepted step hands its end state and the next
    step's first stage over without recomputing them.

    Raises
    ------
    IntegrationError
        On step-size underflow.
    """
    lam = spec.lam
    tol = spec.step_tol
    u, du = launch_state(a, lam, spec.eps)
    t = spec.eps
    idx = 0
    if dense is not None:
        t_out, us, dus = dense
        us[0], dus[0] = u, du
        idx = 1
    h = min(1e-4, 0.5 - t)
    k0 = (du, u * u / (8.0 * t * t) + lam / 2.0)
    while True:
        final = h >= 0.5 - t
        if final:
            h = 0.5 - t
        # stages of the 5(4) pair for y = (u, u')
        k = [k0]
        for s in range(6):
            au = 0.0
            av = 0.0
            for j, aij in enumerate(_DP_A[s]):
                au += aij * k[j][0]
                av += aij * k[j][1]
            ts = t + _DP_C[s] * h
            uu = u + h * au
            vv = du + h * av
            if not (math.isfinite(uu) and math.isfinite(vv)):
                # state exploded inside the step: treat as divergence upward
                return u, du, True, idx
            k.append((vv, uu * uu / (8.0 * ts * ts) + lam / 2.0))
        err_u = 0.0
        err_v = 0.0
        for e, (ku, kv) in zip(_DP_E, k):
            err_u += e * ku
            err_v += e * kv
        err = max(
            abs(h * err_u) / (tol * (1.0 + abs(u))),
            abs(h * err_v) / (tol * (1.0 + abs(du))),
        )
        if not math.isfinite(err):
            err = 1e16
        if err <= 1.0:
            if dense is not None:
                idx = _dense_fill(t, h, (u, du), k, t_out, us, dus, idx)
            t += h
            u, du = uu, vv
            k0 = k[6]
            if abs(u) > spec.blowup:
                return u, du, True, idx
            if final:
                if dense is not None:
                    # landed on 1/2 exactly; flush any samples left by fp drift
                    while idx < len(t_out):
                        us[idx], dus[idx] = u, du
                        idx += 1
                return u, du, False, idx
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < _MIN_STEP:
            raise IntegrationError(f"step size underflow at t={t!r} (a={a!r}, lam={lam!r})")


def integrate(spec: ProblemSpec, a: float) -> Trajectory:
    """Shoot from the series launch at t = eps to t = 1/2 with slope a.

    Adaptive Dormand-Prince 5(4) with local error per step bounded by
    ``spec.step_tol``; output on ``spec.grid_n`` uniform t samples (endpoint
    included) via dense interpolation.  If |u| exceeds ``spec.blowup`` the
    run stops and the truncated trajectory is returned with ``diverged``
    set -- root scanning relies on probing such slopes, so divergence is
    not an error.

    Deterministic: identical spec and slope give bit-identical samples.

    Raises
    ------
    IntegrationError
        On step-size underflow.
    """
    t_out = np.linspace(spec.eps, 0.5, spec.grid_n)
    us = np.empty(spec.grid_n)
    dus = np.empty(spec.grid_n)
    _, _, diverged, idx = _dp45(spec, a, (t_out, us, dus))
    return Trajectory(
        lam=spec.lam, kind=spec.kind, t=t_out[:idx], u=us[:idx], du=dus[:idx],
        launch=SeriesLaunch.from_slope(a, spec.lam), eps=spec.eps, diverged=diverged,
    )


def shoot_endpoint(spec: ProblemSpec, a: float) -> tuple[float, float, bool]:
    """Endpoint state (u(1/2), u'(1/2), diverged) without dense output.

    Same stepper and tolerances as :func:`integrate`; used by root
    refinement where only the endpoint matters.
    """
    u, du, diverged, _ = _dp45(spec, a)
    return u, du, diverged


def _rk4_step(t0, t1, h, u, du, lam: float):
    """One classical RK4 step of (u, u') from t0 to t1 = t0 + h.

    Works on scalars and, elementwise, on arrays of states.
    """
    th = t0 + 0.5 * h
    k1u = du
    k1v = u * u / (8.0 * t0 * t0) + lam / 2.0
    u2 = u + 0.5 * h * k1u
    k2u = du + 0.5 * h * k1v
    k2v = u2 * u2 / (8.0 * th * th) + lam / 2.0
    u3 = u + 0.5 * h * k2u
    k3u = du + 0.5 * h * k2v
    k3v = u3 * u3 / (8.0 * th * th) + lam / 2.0
    u4 = u + h * k3u
    k4u = du + h * k3v
    k4v = u4 * u4 / (8.0 * t1 * t1) + lam / 2.0
    return (
        u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
        du + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


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
        if abs(u) > spec.blowup:
            diverged = True
            break
    return Trajectory(
        lam=lam, kind=spec.kind, t=np.array(ts), u=np.array(us), du=np.array(dus),
        launch=SeriesLaunch.from_slope(a, lam), eps=eps, diverged=diverged,
    )


def _series_tail(a: float, beta: float, eps: float, denom: float) -> float:
    """Analytic int_0^eps u^2/(denom * s) ds from the series launch.

    With u = a s + beta s^2 the integrand is a polynomial in s, so the
    singular tail is exact to the launch order; for denom = 8 the leading
    term is a^2 eps^2 / 16.
    """
    return (
        a * a * eps ** 2 / 2.0 + 2.0 * a * beta * eps ** 3 / 3.0 + beta * beta * eps ** 4 / 4.0
    ) / denom


def first_integral_residual(traj: Trajectory) -> float:
    """Max defect of t u' - u = int_0^t u^2/(8s) ds + (lam/4) t^2 over the samples.

    The integral is cumulative trapezoid on the sample grid plus the
    analytic s < eps tail from the series launch (O(eps^2)).
    """
    t, u, du = traj.t, traj.u, traj.du
    quad = _cumtrapz(u * u / (8.0 * t), t)
    quad += _series_tail(traj.launch.a, traj.launch.beta, traj.eps, 8.0)
    resid = t * du - u - quad - traj.lam / 4.0 * t * t
    return float(np.max(np.abs(resid)))


def representation_residual(traj: Trajectory) -> float:
    """Max defect of the integral representation of u over the samples.

    Both integrals are trapezoid quadrature on the sample grid; the Navier
    case keeps the 2 t u(1/2) term, which drops for Dirichlet solutions.
    """
    t, u = traj.t, traj.u
    lam = traj.lam
    a, beta, eps = traj.launch.a, traj.launch.beta, traj.eps
    left = _cumtrapz(u * u / (4.0 * t), t)
    left += _series_tail(a, beta, eps, 4.0)
    cum = _cumtrapz(u * u * (0.5 - t) / (4.0 * t * t), t)
    right = cum[-1] - cum
    u_half = u[-1]
    predicted = -((0.5 - t) * left + t * right + lam / 4.0 * t * (0.5 - t) - 2.0 * t * u_half)
    return float(np.max(np.abs(u - predicted)))


def validate(traj: Trajectory) -> ValidationReport:
    """Compute all validator residuals for one trajectory."""
    if traj.diverged:
        return ValidationReport(
            first_integral_resid=math.inf,
            representation_resid=math.inf,
            sign_violation=float(np.max(traj.u)) if traj.u.size else math.inf,
            boundary_resid=math.inf,
            diverged=True,
        )
    return ValidationReport(
        first_integral_resid=first_integral_residual(traj),
        representation_resid=representation_residual(traj),
        sign_violation=float(np.max(traj.u)),
        boundary_resid=float(traj.kind.residual(traj.u[-1], traj.du[-1])),
    )
