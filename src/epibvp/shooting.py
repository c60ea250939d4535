"""Shooting: find all launch slopes whose trajectory meets the boundary condition.

The residual a -> boundary_residual(integrate(a)) is scanned over the slope
window with a vectorized fixed-grid RK4 sweep (cheap, bracketing-grade),
then every sign-change bracket is refined with the accurate adaptive
integrator by bisection followed by secant steps.  Interior extrema of the
residual are additionally pushed to their bottom by golden-section search,
which recovers root pairs whose separation falls below the scan spacing and
the tangency double root at the fold itself.

Diverged shots report +inf residual; a bracket formed against the
divergence boundary therefore never refines to a small residual, and the
final validation pass discards such artifacts: every root returned here
carries a fully validated trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import WindowTooSmallError
from .integrator import VALIDATION_GRID_MIN, _rk4_step, shoot_endpoint, integrate, validate
from .model import BoundaryKind, ProblemSpec, Trajectory, _golden_min

# graded scan grid: geometric cells out of the singular endpoint, uniform after
_SCAN_SWITCH = 5e-3
_SCAN_GEO_N = 400
_SCAN_UNI_N = 2400
# interior |residual| extrema below this are golden-refined (fold handling)
_EXTREMUM_GATE = 0.1
_GOLDEN_ITERS = 48


@dataclass(frozen=True)
class ShootingRoot:
    a: float


@dataclass
class RootSet:
    """All boundary-condition roots found in one scan window, sorted ascending."""

    lam: float
    kind: BoundaryKind
    roots: list[ShootingRoot]
    scan_window: tuple[float, float]

    def slopes(self) -> list[float]:
        return [r.a for r in self.roots]

    def nontrivial(self) -> list[float]:
        """Slopes of nontrivial roots (a = 0 is the trivial zero solution)."""
        return [r.a for r in self.roots if r.a != 0.0]


def boundary_residual(traj: Trajectory, kind: BoundaryKind) -> float:
    """Endpoint residual of a trajectory under the given boundary kind.

    Dirichlet: u(1/2).  Navier: u(1/2) - u'(1/2).  Diverged trajectories
    yield +inf (convex shots that miss the condition overshoot upward).
    """
    if traj.diverged:
        return math.inf
    return float(kind.residual(traj.u[-1], traj.du[-1]))


def _scan_residuals(spec: ProblemSpec, a_grid: np.ndarray) -> np.ndarray:
    """Endpoint residuals for every slope at once: fixed-grid RK4, vectorized.

    Bracketing-grade only; refinement re-evaluates with the adaptive
    integrator.  Diverged entries come back +inf.
    """
    lam = spec.lam
    eps = spec.eps
    a = np.asarray(a_grid, dtype=float)
    beta = a * a / 16.0 + lam / 4.0
    u = a * eps + beta * eps * eps
    du = a + 2.0 * beta * eps
    switch = max(_SCAN_SWITCH, 2.0 * eps)
    grid = np.concatenate([
        np.geomspace(eps, switch, _SCAN_GEO_N + 1)[:-1],
        np.linspace(switch, 0.5, _SCAN_UNI_N + 1),
    ])
    alive = np.ones(a.shape, dtype=bool)
    blowup = spec.blowup
    for i in range(len(grid) - 1):
        t0 = grid[i]
        t1 = grid[i + 1]
        with np.errstate(invalid="ignore", over="ignore"):
            u_new, du_new = _rk4_step(t0, t1, t1 - t0, u, du, lam)
        step_ok = alive & np.isfinite(u_new) & (np.abs(u_new) <= blowup)
        u = np.where(step_ok, u_new, u)
        du = np.where(step_ok, du_new, du)
        alive = step_ok
    return np.where(alive, spec.kind.residual(u, du), np.inf)


def _residual_at(spec: ProblemSpec, a: float) -> float:
    u, du, diverged = shoot_endpoint(spec, a)
    if diverged:
        return math.inf
    return spec.kind.residual(u, du)


def _refine_bracket(spec: ProblemSpec, lo: float, hi: float, flo: float, fhi: float):
    """Bisection then secant inside a sign-change bracket.

    Returns (a, f(a)) with the bracket narrowed below root_tol and the
    residual driven as close to zero as the secant allows.
    """
    # bisection: cut the scan-cell bracket down to secant-friendly width
    for _ in range(18):
        mid = 0.5 * (lo + hi)
        fm = _residual_at(spec, mid)
        if flo * fm <= 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo <= spec.root_tol:
            break
    # secant with bracket safeguard
    x0, f0, x1, f1 = lo, flo, hi, fhi
    best_x, best_f = (x0, f0) if abs(f0) < abs(f1) else (x1, f1)
    for _ in range(60):
        if hi - lo <= spec.root_tol and abs(best_f) <= 0.5 * spec.boundary_tol:
            break
        denom = f1 - f0
        if denom == 0.0 or not math.isfinite(denom):
            x2 = 0.5 * (lo + hi)
        else:
            x2 = x1 - f1 * (x1 - x0) / denom
            if not lo < x2 < hi:
                x2 = 0.5 * (lo + hi)
        if hi - lo <= 4.0 * abs(np.spacing(lo)):
            break
        f2 = _residual_at(spec, x2)
        if abs(f2) < abs(best_f):
            best_x, best_f = x2, f2
        if flo * f2 <= 0.0:
            hi, fhi = x2, f2
        else:
            lo, flo = x2, f2
        x0, f0, x1, f1 = x1, f1, x2, f2
    return best_x, best_f


def _golden_descend(spec: ProblemSpec, lo: float, hi: float, sign: float):
    """Golden-section minimization of sign*residual on [lo, hi].

    Returns (a_min, residual(a_min)); used to look under interior extrema
    for sub-scan-resolution root pairs and for the fold's double root.
    """

    def g(x: float) -> float:
        r = _residual_at(spec, x)
        return sign * r if math.isfinite(r) else math.inf

    a_min, g_min = _golden_min(g, lo, hi, _GOLDEN_ITERS, spec.root_tol)
    return a_min, sign * g_min


def find_shooting_roots(spec: ProblemSpec) -> RootSet:
    """Locate every slope in the scan window meeting the boundary condition.

    Scans ``spec.scan_n`` slopes over [slope_min, slope_max], brackets sign
    changes of the boundary residual, refines each bracket by bisection then
    secant to |delta a| < root_tol, golden-refines interior residual extrema
    (so near-fold root pairs and the exact-fold double root are not lost),
    merges roots closer than cluster_tol, and keeps only roots whose full
    trajectory passes validation.

    Raises
    ------
    WindowTooSmallError
        If a root sits at the scan-window edge, except the trivial root at
        a = 0 (the zero solution), which is legitimate.
    """
    a_grid = np.linspace(spec.slope_min, spec.slope_max, spec.scan_n)
    res = _scan_residuals(spec, a_grid)
    finite = np.isfinite(res)

    candidates: list[tuple[float, float]] = []  # (a, f)

    # sign-change brackets
    bracketed_cells = set()
    for i in range(spec.scan_n - 1):
        if finite[i] and finite[i + 1] and res[i] * res[i + 1] < 0:
            candidates.append(_refine_bracket(spec, a_grid[i], a_grid[i + 1], res[i], res[i + 1]))
            bracketed_cells.update((i - 1, i, i + 1))

    # interior extrema of |residual|: dig for root pairs the scan missed
    for i in range(1, spec.scan_n - 1):
        if i in bracketed_cells:
            continue
        if not (finite[i - 1] and finite[i] and finite[i + 1]):
            continue
        if abs(res[i]) > _EXTREMUM_GATE:
            continue
        if not (abs(res[i]) <= abs(res[i - 1]) and abs(res[i]) <= abs(res[i + 1])):
            continue
        if res[i - 1] * res[i] < 0 or res[i] * res[i + 1] < 0:
            continue
        sign = 1.0 if res[i] > 0 else -1.0
        lo, hi = a_grid[i - 1], a_grid[i + 1]
        a_min, f_min = _golden_descend(spec, lo, hi, sign)
        if sign * f_min < 0.0:
            # the dip crosses zero: two roots hide inside this cell pair
            flo = _residual_at(spec, lo)
            fhi = _residual_at(spec, hi)
            if math.isfinite(flo) and flo * f_min < 0:
                candidates.append(_refine_bracket(spec, lo, a_min, flo, f_min))
            if math.isfinite(fhi) and f_min * fhi < 0:
                candidates.append(_refine_bracket(spec, a_min, hi, f_min, fhi))
        elif abs(f_min) <= spec.boundary_tol:
            # tangency: double root at the fold
            candidates.append((a_min, f_min))

    # trivial root at the a = 0 edge (only root allowed to touch the window)
    if spec.slope_max == 0.0:
        f0 = _residual_at(spec, 0.0)
        if abs(f0) <= spec.boundary_tol:
            candidates.append((0.0, f0))

    # window adequacy: no root may sit at a true edge
    f_lo_edge = _residual_at(spec, spec.slope_min)
    if math.isfinite(f_lo_edge) and abs(f_lo_edge) <= spec.boundary_tol:
        raise WindowTooSmallError("slope_min", spec.slope_min)
    if spec.slope_max < 0.0:
        f_hi_edge = _residual_at(spec, spec.slope_max)
        if math.isfinite(f_hi_edge) and abs(f_hi_edge) <= spec.boundary_tol:
            raise WindowTooSmallError("slope_max", spec.slope_max)
    for a, _ in candidates:
        if a != 0.0:
            if a - spec.slope_min < spec.cluster_tol:
                raise WindowTooSmallError("slope_min", a)
            if spec.slope_max - a < spec.cluster_tol and spec.slope_max < 0.0:
                raise WindowTooSmallError("slope_max", a)

    # merge near-coincident roots (fold proximity), best residual wins
    candidates.sort(key=lambda c: c[0])
    merged: list[tuple[float, float]] = []
    for cand in candidates:
        if merged and cand[0] - merged[-1][0] <= spec.cluster_tol:
            if abs(cand[1]) < abs(merged[-1][1]):
                merged[-1] = cand
        else:
            merged.append(cand)

    # final gate: the full trajectory of every reported root must validate;
    # run the validators at their calibrated resolution regardless of the
    # caller's output grid so a coarse grid_n cannot drop a genuine root
    vspec = replace(spec, grid_n=max(spec.grid_n, VALIDATION_GRID_MIN))
    roots = []
    for a, _ in merged:
        traj = integrate(vspec, a)
        if validate(traj).accepted(spec):
            roots.append(ShootingRoot(a=a))
    return RootSet(
        lam=spec.lam,
        kind=spec.kind,
        roots=roots,
        scan_window=(spec.slope_min, spec.slope_max),
    )
