"""Shooting: find all launch slopes whose trajectory meets the boundary condition.

The endpoint residual R(a) has one extremum on the slope window (Dirichlet
R is convex, Navier R has one maximum), so s R falls, then rises, with
s = +1 or -1.  A root set is read off that shape: a coarse fixed-grid RK4
scan, checked to be unimodal; Brent's minimization of s R around the scan's
lowest point (the extremum dig), which stops at the first value below
-_NOISE_FLOOR, or once it has placed the minimum to sqrt(eps_mach) |a|, which
moves the dug value by at most 2 |R_aa| eps_mach a^2 (4e-15 at the default
folds); at most one root on each side of a dug point below the floor, which
is also the root's branch, refined by secant from the scan's cubic between
that point and the nearest slope shot past it with s R > 0; the final gate.
The scan only guides: every sign that decides a count is a DOP853 residual.

The scan steps the slopes of one or several lams at once with
``_rk4_scan``, in place and in one fixed order of operations, so a sweep
scans all its lams in one call and each row is bit for bit a single-lam
scan.  From the scan on, slopes and residuals are Python floats.  Diverged
shots report +inf residual and count as the tail side of the extremum.
A root set endpoint-shoots each slope once into one table of s R; the
gate shoots each candidate once more, recording its steps (:func:`shoot`),
and validates it on those steps, so no output grid enters a verdict.  Every
root returned carries that shot, whose launch slope is the root's slope,
and the report that accepted it; every candidate the gate turned down is
kept with its report.  A root set refines its roots to a slope bracket of
_ROOT_TOL, since it lists them, and lists a double root as the dug point:
a minimum of s R above -_NOISE_FLOOR is a tangency within R's noise.
The same gate (:func:`_gated_root`) judges the one shot at the lower end of
the fold's certified bracket, whose slope the fold's turning point names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import EpibvpError, WindowTooSmallError
from .integrator import (
    BLOWUP, BOUNDARY_TOL, Shot, ValidationReport, _refine_bracket, _rk4_scan, launch_state, shoot,
    shoot_endpoint, validate,
)
from .model import BoundaryKind, ProblemSpec

# graded scan grid of 125 RK4 steps, geometric out of eps, uniform after the
# switch; its residuals are off by up to 1e-3 of the window's largest |R|, and
# that is enough, as the scan only picks cells and DOP853 decides every sign
_SCAN_SWITCH = 5e-3
_SCAN_GEO_N = 25
_SCAN_UNI_N = 100
# s of the residual's one extremum, a minimum of s R: Dirichlet R is convex,
# Navier R has one maximum
_DIP_SIGN = {BoundaryKind.DIRICHLET: 1.0, BoundaryKind.NAVIER: -1.0}
# iteration cap of the extremum dig; a smooth dip settles in far fewer
_DIG_MAX_ITER = 100
# the dig's relative bracket floor, sqrt(eps_mach)
_DIG_RTOL = math.sqrt(math.ulp(1.0))
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
# refinement stops once the slope bracket is narrower than this
_ROOT_TOL = 1e-10
# a nontrivial root closer than this to a window edge sits on the edge
_CLUSTER_TOL = 1e-6
# R's rounding noise from slope to neighbouring slope is 1e-15 to 8e-15
# (standard deviation), at most about 3e-14, at the default folds and the
# roots of lam = 0, 9 and 100; a minimum of s R no deeper than this floor is a
# tangency within that noise, whose two roots no secant can tell from the dug
# point
_NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class ShootingRoot:
    """An accepted shot and the report that accepted it."""

    shot: Shot
    report: ValidationReport

    @property
    def a(self) -> float:
        """The root's launch slope."""
        return self.shot.a


@dataclass
class RootSet:
    """All boundary-condition roots found in one scan window, sorted ascending."""

    lam: float
    kind: BoundaryKind
    roots: list[ShootingRoot]
    scan_window: tuple[float, float]
    # (a, R) where the extremum dig stopped: the extremum to the dig's
    # tolerance, or the first slope past zero; None if the scan saw no finite R
    extremum: Optional[tuple[float, float]] = None
    # (a, report) of each refined candidate that failed validation
    rejected: list[tuple[float, ValidationReport]] = field(default_factory=list)

    def slopes(self) -> list[float]:
        return [r.a for r in self.roots]

    def nontrivial(self) -> list[float]:
        """Slopes of nontrivial roots (a = 0 is the trivial zero solution)."""
        return [r.a for r in self.roots if r.a != 0.0]


def _scan_grid(spec: ProblemSpec) -> np.ndarray:
    """The ``spec.scan_n`` slopes of the bracketing scan over the window."""
    return np.linspace(spec.slope_min, spec.slope_max, spec.scan_n)


def _scan_times(eps: float) -> np.ndarray:
    """The scan's RK4 nodes, rising from eps to exactly 1/2; for eps >= 1/4
    the switch would lie past 1/2, and the grid is then geometric alone."""
    switch = min(max(_SCAN_SWITCH, 2.0 * eps), 0.5)
    geo = np.geomspace(eps, switch, _SCAN_GEO_N + 1)
    uni = np.linspace(switch, 0.5, _SCAN_UNI_N + 1)
    return np.concatenate([geo[:-1], uni]) if switch < 0.5 else geo


def _scan_residuals(spec: ProblemSpec, lams: Sequence[float]) -> np.ndarray:
    """Endpoint residuals of the scan grid at each lam, one row per lam.

    Fixed-grid RK4 (``_rk4_scan``, in place) on one flattened state of
    ``len(lams) * scan_n`` slopes, each with its own lam.  Every element
    goes through the same operations in the same order, so a row is bit for
    bit a single-lam scan, whatever lams are scanned with it.  Guidance
    only: every residual that decides a root comes from the adaptive
    integrator.  Diverged entries come back +inf.
    """
    a_grid = _scan_grid(spec)
    a = np.tile(a_grid, len(lams))
    lam = np.repeat(np.asarray(lams, dtype=float), a_grid.size)
    grid = _scan_times(spec.eps).tolist()
    # overflowing slopes, states and residuals all end up as +inf entries,
    # so numpy's warnings about them carry no information
    with np.errstate(invalid="ignore", over="ignore"):
        u, du, peak = _rk4_scan(grid, *launch_state(a, lam, spec.eps), lam / 2.0)
        resid = spec.kind.residual(u, du)
    # NaN fails the comparison too, so NaN and inf slopes stay dead
    return np.where(peak <= BLOWUP, resid, np.inf).reshape(len(lams), a_grid.size)


def _residual_at(spec: ProblemSpec, a: float) -> float:
    """Endpoint residual R(a) of the DOP853 shot at a, +inf if it diverged."""
    u, du, diverged = shoot_endpoint(spec, a)
    if diverged:
        return math.inf
    return spec.kind.residual(u, du)


def _scan_guess(pts: list, vals: list, k: int) -> tuple[float, float]:
    """Root and slope, in the cell [pts[k-1], pts[k]] where vals change sign,
    of the cubic through the four points around it: divided differences and
    Newton steps from the chord, in plain floats so that no BLAS sets the
    bits.  A diverged point leaves the guess on the chord, with a NaN slope."""
    i = max(0, min(k - 2, len(pts) - 4))
    xs, c = pts[i:i + 4], vals[i:i + 4]
    for j in range(1, len(xs)):
        for m in range(len(xs) - 1, j - 1, -1):
            c[m] = (c[m] - c[m - 1]) / (xs[m] - xs[m - j])
    a0, a1 = pts[k - 1], pts[k]
    t, dv = a0 - vals[k - 1] * (a1 - a0) / (vals[k] - vals[k - 1]), math.nan
    for _ in range(8):
        v, dv = c[-1], 0.0
        for xm, cm in zip(xs[-2::-1], c[-2::-1]):
            v, dv = v * (t - xm) + cm, dv * (t - xm) + v
        step = t - v / dv if dv != 0.0 else math.nan
        if not min(a0, a1) <= step <= max(a0, a1):
            break
        t = step
    return t, dv


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
    """Brent's parabolic minimization of a unimodal g on [lo, hi] from x, g(x) = gx.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 5.
    Returns (x, g(x)) at the first x where g < -_NOISE_FLOOR (for g = s R,
    a root pair straddles it, deeper than R's noise), or else within 2 tol of
    the minimum, tol = max(_ROOT_TOL, sqrt(eps_mach) |x|), as values of g
    cannot place a minimum closer; g(x) then exceeds the minimum by at most
    g''/2 (2 tol)^2.
    """
    v = w = x
    gv = gw = gx
    d = e = 0.0
    for _ in range(_DIG_MAX_ITER):
        mid = 0.5 * (lo + hi)
        tol = max(_ROOT_TOL, _DIG_RTOL * abs(x))
        if gx < -_NOISE_FLOOR or abs(x - mid) <= 2.0 * tol - 0.5 * (hi - lo):
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


def _gated_root(spec: ProblemSpec, a: float, rejected: list) -> Optional[ShootingRoot]:
    """The root at slope a if its shot validates, else None.

    The final gate of every reported root: the shot at a (:func:`shoot`),
    validated on its own steps.  A rejected slope is appended to
    ``rejected`` with its report.
    """
    shot = shoot(spec, a)
    report = validate(shot)
    if report.accepted():
        return ShootingRoot(shot=shot, report=report)
    rejected.append((a, report))
    return None


def find_shooting_roots(spec: ProblemSpec, scan: Optional[np.ndarray] = None) -> RootSet:
    """Locate every slope in the scan window meeting the boundary condition.

    Scans ``spec.scan_n`` slopes over [slope_min, slope_max], or takes
    ``scan``, the row of :func:`_scan_residuals` for ``spec.lam``; digs out
    the one extremum of s R (:func:`_dig`); refines at most one root on each
    side of the dug point by the safeguarded secant of :func:`_refine_bracket`
    when its s R is below -_NOISE_FLOOR, to a _ROOT_TOL bracket and |R| within
    BOUNDARY_TOL / 2, bracketed by the nearest slope shot past it where s R > 0
    (none: no root that side), or else takes the dug point as the fold's
    double root when its residual is within BOUNDARY_TOL of 0.
    Each root whose shot validates is kept, with that shot and its report;
    each that does not goes to ``rejected`` with its slope and report.  All
    of it reads one table of s R, one DOP853 shot per slope.

    Raises
    ------
    WindowTooSmallError
        If a root sits at the scan-window edge, except the trivial root at
        a = 0 (the zero solution), which is legitimate.
    EpibvpError
        If the scan shows more than one extremum of the residual.
    """
    # g = s R of each slope's DOP853 endpoint shot, +inf if it diverged, so that
    # no slope is shot twice before the gate; s = +-1, so |g| = |R|
    s = _DIP_SIGN[spec.kind]
    table: dict[float, float] = {}

    def g(a: float) -> float:
        if a not in table:
            r = _residual_at(spec, a)
            table[a] = s * r if math.isfinite(r) else math.inf
        return table[a]

    # window adequacy, both edges shot before any bracket: no root may sit at
    # a true edge, and a window of one slope is judged by its edge alone
    if abs(g(spec.slope_min)) <= BOUNDARY_TOL:
        raise WindowTooSmallError("slope_min", spec.slope_min)
    if abs(g(spec.slope_max)) <= BOUNDARY_TOL and spec.slope_max < 0.0:
        raise WindowTooSmallError("slope_max", spec.slope_max)

    if scan is None:
        scan = _scan_residuals(spec, [spec.lam])[0]
    # slopes and scan g in Python floats, for _dop853's scalar loop
    a_grid = _scan_grid(spec).tolist()
    coarse = [s * r if math.isfinite(r) else math.inf for r in scan.tolist()]
    cells = _extremum_cells(spec, coarse)

    candidates: list[float] = []
    extremum = None
    if cells is not None:
        lo, start, hi = (a_grid[i] for i in cells)
        x, gx = _dig(g, lo, hi, start, g(start))
        extremum = (x, s * gx if gx < math.inf else gx)
        if gx < -_NOISE_FLOOR:
            # one line of g: the scan's, with each DOP853 g of the table in its place
            line = sorted({**dict(zip(a_grid, coarse)), **table}.items())
            i = line.index((x, gx))
            for side, j in ((line[::-1], len(line) - 1 - i), (line, i)):
                # x and the nearest tabled slope past it with g > 0, if any, bracket
                # the side's one root; the line's cubic at its first g > 0 guesses it
                pts, vals = (list(v) for v in zip(*side))
                ends = [a for a in pts[j + 1:] if table.get(a, 0.0) > 0.0]
                if ends:
                    k = next(k for k in range(j + 1, len(vals)) if vals[k] > 0.0)
                    (lo, glo), (hi, ghi) = sorted([(x, gx), (ends[0], table[ends[0]])])
                    x0, slope = _scan_guess(pts, vals, k)
                    candidates.append(_refine_bracket(g, lo, glo, hi, ghi, x0, slope, _ROOT_TOL,
                                                      0.5 * BOUNDARY_TOL))
        elif gx <= BOUNDARY_TOL:
            # tangency, within R's noise or above zero: double root at the fold
            candidates.append(x)

    # trivial root at the a = 0 edge (only root allowed to touch the window)
    if spec.slope_max == 0.0 and abs(g(0.0)) <= BOUNDARY_TOL:
        candidates.append(0.0)

    for a in candidates:
        if a != 0.0:
            if a - spec.slope_min < _CLUSTER_TOL:
                raise WindowTooSmallError("slope_min", a)
            if spec.slope_max - a < _CLUSTER_TOL and spec.slope_max < 0.0:
                raise WindowTooSmallError("slope_max", a)

    # final gate: each root's trajectory must validate; slopes within _ROOT_TOL are one root
    candidates.sort()
    rejected: list[tuple[float, ValidationReport]] = []
    gated = (_gated_root(spec, a, rejected) for i, a in enumerate(candidates)
             if i == 0 or a - candidates[i - 1] >= _ROOT_TOL)
    roots = [root for root in gated if root is not None]
    return RootSet(
        lam=spec.lam,
        kind=spec.kind,
        roots=roots,
        scan_window=(spec.slope_min, spec.slope_max),
        extremum=extremum,
        rejected=rejected,
    )
