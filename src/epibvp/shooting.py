"""Shooting: find all launch slopes whose trajectory meets the boundary condition.

The endpoint residual R(a) has one extremum on the slope window (Dirichlet
R is convex, Navier R has one maximum), so s R falls, then rises, with
s = +1 or -1.  A root set is read off that shape: a coarse fixed-grid RK4
scan, checked to be unimodal; Brent's minimization of s R around the scan's
lowest point (the extremum dig), which stops at the first value of the other
sign; at most one secant-refined root on each side of the dug point, which is
also the root's branch; and the final validation gate.  The scan only
guides: every sign that decides a count is an adaptive (DP5) residual.

The scan steps the slopes of one or several lams at once with ``_rk4_step``
on arrays, so a sweep scans all its lams in one call and each row is bit
for bit a single-lam scan.  From the
scan on, slopes and residuals are Python floats.  Diverged shots report +inf
residual and count as the tail side of the extremum.  Every root returned
carries its trajectory on the caller's grid, whose launch slope is the
root's slope, and the report that accepted it, taken at the validators'
calibrated resolution (``calibrated_report``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import EpibvpError, WindowTooSmallError
from .integrator import (
    BLOWUP, BOUNDARY_TOL, VALIDATION_GRID_MIN, ValidationReport, _rk4_step, integrate,
    launch_state, shoot_endpoint, validate,
)
from .model import BoundaryKind, ProblemSpec, Trajectory

# graded scan grid: geometric cells out of the singular endpoint, uniform after
_SCAN_SWITCH = 5e-3
_SCAN_GEO_N = 50
_SCAN_UNI_N = 300
# s of the residual's one extremum, a minimum of s R: Dirichlet R is convex,
# Navier R has one maximum
_DIP_SIGN = {BoundaryKind.DIRICHLET: 1.0, BoundaryKind.NAVIER: -1.0}
# iteration cap of the extremum dig; a smooth dip settles in far fewer
_DIG_MAX_ITER = 100
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
# refinement stops once the slope bracket is narrower than this
_ROOT_TOL = 1e-10
# a nontrivial root closer than this to a window edge sits on the edge
_CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class ShootingRoot:
    """An accepted trajectory on the spec's grid and the report that accepted it."""

    traj: Trajectory
    report: ValidationReport

    @property
    def a(self) -> float:
        """The root's launch slope."""
        return self.traj.a


@dataclass
class RootSet:
    """All boundary-condition roots found in one scan window, sorted ascending."""

    lam: float
    kind: BoundaryKind
    roots: list[ShootingRoot]
    scan_window: tuple[float, float]
    # (a, R) where the extremum dig stopped: the extremum to _ROOT_TOL, or
    # the first slope past zero; None when the scan saw no finite residual
    extremum: Optional[tuple[float, float]] = None

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
        return validate(integrate(vspec, traj.a))
    return validate(traj)


def _scan_grid(spec: ProblemSpec) -> np.ndarray:
    """The ``spec.scan_n`` slopes of the bracketing scan over the window."""
    return np.linspace(spec.slope_min, spec.slope_max, spec.scan_n)


def _scan_residuals(spec: ProblemSpec, lams: Sequence[float]) -> np.ndarray:
    """Endpoint residuals of the scan grid at each lam, one row per lam.

    Fixed-grid RK4 (``_rk4_step``) on one flattened state of
    ``len(lams) * scan_n`` slopes, each with its own lam; the arithmetic is
    elementwise, so a row's bits do not depend on the lams scanned with it.
    Guidance only: every residual that decides a root comes from the
    adaptive integrator.  Diverged entries come back +inf.
    """
    eps = spec.eps
    a_grid = _scan_grid(spec)
    a = np.tile(a_grid, len(lams))
    lam = np.repeat(np.asarray(lams, dtype=float), a_grid.size)
    switch = max(_SCAN_SWITCH, 2.0 * eps)
    grid = np.concatenate([
        np.geomspace(eps, switch, _SCAN_GEO_N + 1)[:-1],
        np.linspace(switch, 0.5, _SCAN_UNI_N + 1),
    ]).tolist()
    alive = np.ones(a.shape, dtype=bool)
    # overflowing slopes, states and residuals all end up as +inf entries,
    # so numpy's warnings about them carry no information
    with np.errstate(invalid="ignore", over="ignore"):
        u, du = launch_state(a, lam, eps)
        for t0, t1 in zip(grid, grid[1:]):
            u, du = _rk4_step(t0, t1, t1 - t0, u, du, lam)
            # NaN and inf fail the comparison too; a dead slope stays dead
            alive &= np.abs(u) <= BLOWUP
        resid = spec.kind.residual(u, du)
    return np.where(alive, resid, np.inf).reshape(len(lams), a_grid.size)


def _residual_at(spec: ProblemSpec, a: float) -> float:
    u, du, diverged = shoot_endpoint(spec, a)
    if diverged:
        return math.inf
    return spec.kind.residual(u, du)


def _refine_bracket(spec: ProblemSpec, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Bracket-safeguarded secant inside a sign-change bracket.

    Starts on the bracket it is given; a step that leaves the bracket, or
    whose secant denominator is 0 or not finite, is replaced by the
    midpoint.  Returns the slope of smallest |residual| once the bracket is
    narrower than _ROOT_TOL and that residual is within BOUNDARY_TOL / 2,
    or once the bracket is 4 ulp wide, or after 60 steps.
    """
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
            hi = x2
        else:
            lo, flo = x2, f2
        x0, f0, x1, f1 = x1, f1, x2, f2
    return best_x


def _extremum_cells(spec: ProblemSpec, g: list[float]) -> Optional[tuple[int, int, int]]:
    """Scan indices of the lowest finite g = s R and of its finite neighbours
    (None if no entry is finite); the finite g must fall, then rise."""
    finite = [i for i, v in enumerate(g) if v < math.inf]
    if not finite:
        return None
    j = 0
    for k in range(1, len(finite)):
        if g[finite[k]] < g[finite[k - 1]]:
            if g[finite[j]] < g[finite[k - 1]]:
                raise EpibvpError(
                    f"endpoint residual at lam = {spec.lam!r} has a second extremum "
                    f"near a = {float(_scan_grid(spec)[finite[k - 1]])!r}"
                )
            j = k
    return finite[max(j - 1, 0)], finite[j], finite[min(j + 1, len(finite) - 1)]


def _dig(g, lo: float, hi: float, x: float, gx: float):
    """Brent's parabolic minimization of g = s R on [lo, hi] from x, g(x) = gx.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 5.
    Returns (a, g(a)) at the first slope where g < 0, which a root pair
    straddles, or else at the minimum, once its bracket is _ROOT_TOL wide.
    """
    v = w = x
    gv = gw = gx
    d = e = 0.0
    for _ in range(_DIG_MAX_ITER):
        mid = 0.5 * (lo + hi)
        tol = max(_ROOT_TOL, 4.0 * math.ulp(x))
        if gx < 0.0 or abs(x - mid) <= 2.0 * tol - 0.5 * (hi - lo):
            break
        # a parabola through (v, w, x) while its steps keep shrinking
        r = (x - w) * (gx - gv)
        q = (x - v) * (gx - gw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p, q = (-p, q) if q > 0.0 else (p, -q)
        e_prev, e = e, d
        if abs(e_prev) > tol and abs(p) < abs(0.5 * q * e_prev) and q * (lo - x) < p < q * (hi - x):
            d = p / q
            if min(x + d - lo, hi - x - d) < 2.0 * tol:
                d = math.copysign(tol, mid - x)
        else:  # golden section into the larger part
            e = (lo - x) if x >= mid else (hi - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        gu = g(u)
        if gu <= gx:
            lo, hi = (x, hi) if u >= x else (lo, x)
            v, gv, w, gw, x, gx = w, gw, x, gx, u, gu
        else:
            lo, hi = (u, hi) if u < x else (lo, u)
            if gu <= gw or w == x:
                v, gv, w, gw = w, gw, u, gu
            elif gu <= gv or v == x or v == w:
                v, gv = u, gu
    return x, gx


def _gated_root(spec: ProblemSpec, a: float) -> Optional[ShootingRoot]:
    """The root at slope a if its full trajectory validates, else None.

    The final gate of every reported root: the trajectory on the spec's
    grid, judged at the calibrated resolution.
    """
    traj = integrate(spec, a)
    report = calibrated_report(spec, traj)
    return ShootingRoot(traj=traj, report=report) if report.accepted() else None


def root_in_bracket(spec: ProblemSpec, lo: float, hi: float) -> Optional[ShootingRoot]:
    """The validated root inside the slope bracket [lo, hi], or None.

    The residual must change sign across the bracket; the root is refined
    as in :func:`find_shooting_roots`, must lie inside the scan window and
    must pass the same final gate.
    """
    flo = _residual_at(spec, lo)
    fhi = _residual_at(spec, hi)
    if not (math.isfinite(flo) and math.isfinite(fhi) and flo * fhi < 0.0):
        return None
    a = _refine_bracket(spec, lo, hi, flo, fhi)
    if not spec.slope_min <= a <= spec.slope_max:
        return None
    return _gated_root(spec, a)


def find_shooting_roots(spec: ProblemSpec, scan: Optional[np.ndarray] = None) -> RootSet:
    """Locate every slope in the scan window meeting the boundary condition.

    Scans ``spec.scan_n`` slopes over [slope_min, slope_max], or takes
    ``scan``, the row of :func:`_scan_residuals` for ``spec.lam``; digs out
    the one extremum of s R (:func:`_dig`); refines at most one root on each
    side of the dug point by safeguarded secant, or takes the dug point as
    the fold's double root when its residual is within BOUNDARY_TOL of 0.
    Each root that validates at the calibrated resolution is kept, with its
    trajectory on ``spec.grid_n`` points and its report.

    Raises
    ------
    WindowTooSmallError
        If a root sits at the scan-window edge, except the trivial root at
        a = 0 (the zero solution), which is legitimate.
    EpibvpError
        If the scan shows more than one extremum of the residual.
    """
    # window adequacy, before any bracket: no root may sit at a true edge,
    # and a window of one slope is judged by its edge alone
    f_lo_edge = _residual_at(spec, spec.slope_min)
    if math.isfinite(f_lo_edge) and abs(f_lo_edge) <= BOUNDARY_TOL:
        raise WindowTooSmallError("slope_min", spec.slope_min)
    f_hi_edge = f_lo_edge
    if spec.slope_max > spec.slope_min:
        f_hi_edge = _residual_at(spec, spec.slope_max)
    if spec.slope_max < 0.0 and math.isfinite(f_hi_edge) and abs(f_hi_edge) <= BOUNDARY_TOL:
        raise WindowTooSmallError("slope_max", spec.slope_max)

    if scan is None:
        scan = _scan_residuals(spec, [spec.lam])[0]
    s = _DIP_SIGN[spec.kind]
    # Python floats from here on: every endpoint shot then runs _dp45's
    # scalar loop on floats, not on numpy scalars
    a_grid = _scan_grid(spec).tolist()
    coarse = [s * r if math.isfinite(r) else math.inf for r in scan.tolist()]
    exact = {spec.slope_min: f_lo_edge, spec.slope_max: f_hi_edge}

    def g(a: float) -> float:
        """s R at slope a by the adaptive integrator, each slope shot once;
        a diverged shot counts as +inf."""
        if a not in exact:
            exact[a] = _residual_at(spec, a)
        return s * exact[a] if math.isfinite(exact[a]) else math.inf

    candidates: list[float] = []
    extremum = None
    cells = _extremum_cells(spec, coarse)
    if cells is not None:
        lo, start, hi = (a_grid[i] for i in cells)
        x, gx = _dig(g, lo, hi, start, g(start))
        extremum = (x, exact[x])
        if gx < 0.0:
            for side in (
                [(a, c) for a, c in zip(a_grid[::-1], coarse[::-1]) if a < x],
                [(a, c) for a, c in zip(a_grid, coarse) if a > x],
            ):
                # from the dug point out to the window edge, where g must
                # turn positive; the coarse scan guesses the cell and
                # adaptive values move it until they confirm it
                pts = [x] + [a for a, _ in side]
                if len(pts) == 1 or g(pts[-1]) <= 0.0:
                    continue
                k = next((k for k, (_, c) in enumerate(side, 1) if c > 0.0), len(side))
                while g(pts[k]) <= 0.0 or g(pts[k - 1]) > 0.0:
                    k += 1 if g(pts[k]) <= 0.0 else -1
                lo, hi = sorted(pts[k - 1:k + 1])
                if math.isfinite(g(lo) + g(hi)):
                    candidates.append(_refine_bracket(spec, lo, hi, exact[lo], exact[hi]))
        elif gx <= BOUNDARY_TOL:
            # tangency: double root at the fold
            candidates.append(x)

    # trivial root at the a = 0 edge (only root allowed to touch the window)
    if spec.slope_max == 0.0 and abs(f_hi_edge) <= BOUNDARY_TOL:
        candidates.append(0.0)

    for a in candidates:
        if a != 0.0:
            if a - spec.slope_min < _CLUSTER_TOL:
                raise WindowTooSmallError("slope_min", a)
            if spec.slope_max - a < _CLUSTER_TOL and spec.slope_max < 0.0:
                raise WindowTooSmallError("slope_max", a)

    # final gate: the full trajectory of every reported root must validate
    gated = (_gated_root(spec, a) for a in sorted(candidates))
    roots = [root for root in gated if root is not None]
    return RootSet(
        lam=spec.lam,
        kind=spec.kind,
        roots=roots,
        scan_window=(spec.slope_min, spec.slope_max),
        extremum=extremum,
    )
