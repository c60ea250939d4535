"""Shooting: find all launch slopes whose trajectory meets the boundary condition.

The endpoint residual a -> BoundaryKind.residual(u(1/2), u'(1/2)) is
scanned over the slope window with a vectorized fixed-grid RK4 sweep
(cheap, bracketing-grade), then every sign-change bracket is refined with
the accurate adaptive integrator by bisection followed by secant steps.
Interior extrema of the residual are additionally pushed to their bottom by
golden-section search, which recovers root pairs whose separation falls
below the scan spacing and the tangency double root at the fold itself.

Diverged shots report +inf residual; a bracket formed against the
divergence boundary therefore never refines to a small residual, and the
final validation pass discards such artifacts: every root returned here
carries its trajectory on the caller's grid and the report that accepted
it, taken at the validators' calibrated resolution (``calibrated_report``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import WindowTooSmallError
from .integrator import (
    BLOWUP, BOUNDARY_TOL, VALIDATION_GRID_MIN, ValidationReport, _rk4_step, integrate,
    launch_state, shoot_endpoint, validate,
)
from .model import BoundaryKind, ProblemSpec, Trajectory, _golden_min

# graded scan grid: geometric cells out of the singular endpoint, uniform after
_SCAN_SWITCH = 5e-3
_SCAN_GEO_N = 400
_SCAN_UNI_N = 2400
# interior |residual| extrema below this are golden-refined (fold handling)
_EXTREMUM_GATE = 0.1
_GOLDEN_ITERS = 48
# refinement stops once the slope bracket is narrower than this
_ROOT_TOL = 1e-10
# roots closer than this are merged (fold proximity)
_CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class ShootingRoot:
    """An accepted slope with its trajectory on the spec's grid and its report."""

    a: float
    traj: Trajectory
    report: ValidationReport


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


def calibrated_report(spec: ProblemSpec, traj: Trajectory) -> ValidationReport:
    """Validation report of a shot at the validators' calibrated resolution.

    A coarse output grid raises the trapezoid error of the residual
    validators past their thresholds, so a shot sampled on fewer than
    ``VALIDATION_GRID_MIN`` points is re-integrated on that many before it
    is judged; a diverged shot is rejected as it stands.
    """
    if spec.grid_n < VALIDATION_GRID_MIN and not traj.diverged:
        vspec = replace(spec, grid_n=VALIDATION_GRID_MIN)
        return validate(integrate(vspec, traj.launch.a))
    return validate(traj)


def _scan_residuals(spec: ProblemSpec, a_grid: np.ndarray) -> np.ndarray:
    """Endpoint residuals for every slope at once: fixed-grid RK4, vectorized.

    Bracketing-grade only; refinement re-evaluates with the adaptive
    integrator.  Diverged entries come back +inf.
    """
    lam = spec.lam
    eps = spec.eps
    a = np.asarray(a_grid, dtype=float)
    switch = max(_SCAN_SWITCH, 2.0 * eps)
    grid = np.concatenate([
        np.geomspace(eps, switch, _SCAN_GEO_N + 1)[:-1],
        np.linspace(switch, 0.5, _SCAN_UNI_N + 1),
    ])
    alive = np.ones(a.shape, dtype=bool)
    # overflowing slopes, states and residuals all end up as +inf entries,
    # so numpy's warnings about them carry no information
    with np.errstate(invalid="ignore", over="ignore"):
        u, du = launch_state(a, lam, eps)
        for i in range(len(grid) - 1):
            t0 = grid[i]
            t1 = grid[i + 1]
            u_new, du_new = _rk4_step(t0, t1, t1 - t0, u, du, lam)
            step_ok = alive & np.isfinite(u_new) & (np.abs(u_new) <= BLOWUP)
            u = np.where(step_ok, u_new, u)
            du = np.where(step_ok, du_new, du)
            alive = step_ok
        resid = spec.kind.residual(u, du)
    return np.where(alive, resid, np.inf)


def _residual_at(spec: ProblemSpec, a: float) -> float:
    u, du, diverged = shoot_endpoint(spec, a)
    if diverged:
        return math.inf
    return spec.kind.residual(u, du)


def _refine_bracket(spec: ProblemSpec, lo: float, hi: float, flo: float, fhi: float):
    """Bisection then secant inside a sign-change bracket.

    Returns (a, f(a)) with the bracket narrowed below _ROOT_TOL and the
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
        if hi - lo <= _ROOT_TOL:
            break
    # secant with bracket safeguard
    x0, f0, x1, f1 = lo, flo, hi, fhi
    best_x, best_f = (x0, f0) if abs(f0) < abs(f1) else (x1, f1)
    for _ in range(60):
        if hi - lo <= _ROOT_TOL and abs(best_f) <= 0.5 * BOUNDARY_TOL:
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

    a_min, g_min = _golden_min(g, lo, hi, _GOLDEN_ITERS, _ROOT_TOL)
    return a_min, sign * g_min


def find_shooting_roots(spec: ProblemSpec) -> RootSet:
    """Locate every slope in the scan window meeting the boundary condition.

    Scans ``spec.scan_n`` slopes over [slope_min, slope_max], brackets sign
    changes of the boundary residual, refines each bracket by bisection then
    secant to |delta a| < _ROOT_TOL, golden-refines interior residual extrema
    (so near-fold root pairs and the exact-fold double root are not lost),
    merges roots closer than _CLUSTER_TOL, and keeps only roots whose full
    trajectory passes validation at the calibrated resolution.  Each root
    carries that trajectory, sampled on ``spec.grid_n`` points, and its
    report.

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
        elif abs(f_min) <= BOUNDARY_TOL:
            # tangency: double root at the fold
            candidates.append((a_min, f_min))

    # trivial root at the a = 0 edge (only root allowed to touch the window)
    if spec.slope_max == 0.0:
        f0 = _residual_at(spec, 0.0)
        if abs(f0) <= BOUNDARY_TOL:
            candidates.append((0.0, f0))

    # window adequacy: no root may sit at a true edge
    f_lo_edge = _residual_at(spec, spec.slope_min)
    if math.isfinite(f_lo_edge) and abs(f_lo_edge) <= BOUNDARY_TOL:
        raise WindowTooSmallError("slope_min", spec.slope_min)
    if spec.slope_max < 0.0:
        f_hi_edge = _residual_at(spec, spec.slope_max)
        if math.isfinite(f_hi_edge) and abs(f_hi_edge) <= BOUNDARY_TOL:
            raise WindowTooSmallError("slope_max", spec.slope_max)
    for a, _ in candidates:
        if a != 0.0:
            if a - spec.slope_min < _CLUSTER_TOL:
                raise WindowTooSmallError("slope_min", a)
            if spec.slope_max - a < _CLUSTER_TOL and spec.slope_max < 0.0:
                raise WindowTooSmallError("slope_max", a)

    # merge near-coincident roots (fold proximity), best residual wins
    candidates.sort(key=lambda c: c[0])
    merged: list[tuple[float, float]] = []
    for cand in candidates:
        if merged and cand[0] - merged[-1][0] <= _CLUSTER_TOL:
            if abs(cand[1]) < abs(merged[-1][1]):
                merged[-1] = cand
        else:
            merged.append(cand)

    # final gate: the full trajectory of every reported root must validate
    roots = []
    for a, _ in merged:
        traj = integrate(spec, a)
        report = calibrated_report(spec, traj)
        if report.accepted():
            roots.append(ShootingRoot(a=a, traj=traj, report=report))
    return RootSet(
        lam=spec.lam,
        kind=spec.kind,
        roots=roots,
        scan_window=(spec.slope_min, spec.slope_max),
    )
