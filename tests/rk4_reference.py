"""Fixed-step classical RK4: an integrator independent of the package's
Dormand-Prince pair, and the scalar step that the in-place slope scan
(``integrator._rk4_scan``) repeats bit for bit."""

import numpy as np

from epibvp.integrator import BLOWUP, launch_state
from epibvp.model import ProblemSpec, Trajectory


def _rk4_step(t0, t1, h, u, du, lam):
    """One classical RK4 step of (u, u') from t0 to t1 = t0 + h.

    Works on scalars and, elementwise, on arrays of states and of lams.
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


def integrate_rk4(spec: ProblemSpec, a: float, n_steps: int) -> Trajectory:
    """Fixed-step classical RK4 reference integrator (no adaptivity).

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
