"""Shooting: find all launch slopes whose trajectory meets the boundary condition.

The endpoint residual a -> BoundaryKind.residual(u(1/2), u'(1/2)) is
scanned over the slope window with a vectorized fixed-grid RK4 sweep
(cheap, bracketing-grade), then every sign-change bracket is refined with
the accurate adaptive integrator by a bracket-safeguarded secant.
Interior extrema of the residual are additionally pushed to their bottom by
golden-section search, which recovers root pairs whose separation falls
below the scan spacing and the tangency double root at the fold itself.

One scan kernel serves every caller: it steps a block of slopes for one or
several lams at once, in place, with each slope's arithmetic that of
``_rk4_step``, so a residual does not depend on the block it was scanned
in.  A sweep scans its lams a block at a time (:func:`scan_rows`) and hands
each lam's row to :func:`find_shooting_roots`.  From the scan on, slopes
and residuals are Python floats, so the scalar refinement shots run on
floats, not on numpy scalars.

Diverged shots report +inf residual; a bracket formed against the
divergence boundary therefore never refines to a small residual, and the
final validation pass discards such artifacts: every root returned here
carries its trajectory on the caller's grid and the report that accepted
it, taken at the validators' calibrated resolution (``calibrated_report``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import WindowTooSmallError
from .integrator import (
    BLOWUP, BOUNDARY_TOL, VALIDATION_GRID_MIN, ValidationReport, integrate, launch_state,
    shoot_endpoint, validate,
)
from .model import BoundaryKind, ProblemSpec, Trajectory, _golden_min

# graded scan grid: geometric cells out of the singular endpoint, uniform after
_SCAN_SWITCH = 5e-3
_SCAN_GEO_N = 400
_SCAN_UNI_N = 2400
# slopes one block scan advances at once: a few lams of the default scan
# share each numpy call, in about 1 MB of stage buffers
_SCAN_BLOCK = 16000
# interior |residual| extrema below this are golden-refined (fold handling)
_EXTREMUM_GATE = 0.1
_GOLDEN_ITERS = 48
# refinement stops once the slope bracket is narrower than this
_ROOT_TOL = 1e-10
# a nontrivial root closer than this to a window edge sits on the edge
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


def _scan_grid(spec: ProblemSpec) -> np.ndarray:
    """The ``spec.scan_n`` slopes of the bracketing scan over the window."""
    return np.linspace(spec.slope_min, spec.slope_max, spec.scan_n)


def _scan_residuals(spec: ProblemSpec, lams: Sequence[float]) -> np.ndarray:
    """Endpoint residuals of the scan grid at each lam, one row per lam.

    Fixed-grid RK4 on one flattened state of ``len(lams) * scan_n`` slopes,
    each with its own lam.  Every stage is written into preallocated
    buffers, and each element goes through the operations of ``_rk4_step``
    in its order, so a row's bits do not depend on the block it is scanned
    in.  Bracketing-grade only; refinement re-evaluates with the adaptive
    integrator.  Diverged entries come back +inf.
    """
    eps = spec.eps
    a_grid = _scan_grid(spec)
    a = np.tile(a_grid, len(lams))
    lam = np.repeat(np.asarray(lams, dtype=float), a_grid.size)
    half_lam = lam / 2.0
    switch = max(_SCAN_SWITCH, 2.0 * eps)
    grid = np.concatenate([
        np.geomspace(eps, switch, _SCAN_GEO_N + 1)[:-1],
        np.linspace(switch, 0.5, _SCAN_UNI_N + 1),
    ]).tolist()
    # stage slopes (ku, kv), stage state w, weighted stage sums (su, sv)
    ku, kv, w, su, sv = (np.empty_like(a) for _ in range(5))
    ok = np.empty(a.shape, dtype=bool)
    alive = np.ones(a.shape, dtype=bool)
    # overflowing slopes, states and residuals all end up as +inf entries,
    # so numpy's warnings about them carry no information
    with np.errstate(invalid="ignore", over="ignore"):
        u, du = launch_state(a, lam, eps)
        for t0, t1 in zip(grid, grid[1:]):
            h = t1 - t0
            hh = 0.5 * h
            th = t0 + hh
            c0 = 8.0 * t0 * t0
            ch = 8.0 * th * th
            c1 = 8.0 * t1 * t1
            # k1 = (du, sv)
            np.multiply(u, u, out=sv)
            sv /= c0
            sv += half_lam
            # k2 = (ku, kv) at u2 = u + hh k1u
            np.multiply(du, hh, out=w)
            w += u
            np.multiply(sv, hh, out=ku)
            ku += du
            np.multiply(w, w, out=kv)
            kv /= ch
            kv += half_lam
            np.multiply(ku, 2.0, out=su)
            su += du
            np.multiply(kv, 2.0, out=w)
            sv += w
            # k3 = (ku, kv) at u3 = u + hh k2u
            np.multiply(ku, hh, out=w)
            w += u
            np.multiply(kv, hh, out=ku)
            ku += du
            np.multiply(w, w, out=kv)
            kv /= ch
            kv += half_lam
            np.multiply(ku, 2.0, out=w)
            su += w
            np.multiply(kv, 2.0, out=w)
            sv += w
            # k4 = (ku, kv) at u4 = u + h k3u
            np.multiply(ku, h, out=w)
            w += u
            np.multiply(kv, h, out=ku)
            ku += du
            np.multiply(w, w, out=kv)
            kv /= c1
            kv += half_lam
            su += ku
            sv += kv
            su *= h / 6.0
            u += su
            sv *= h / 6.0
            du += sv
            # NaN and inf fail the comparison too; a dead slope stays dead
            np.abs(u, out=w)
            np.less_equal(w, BLOWUP, out=ok)
            alive &= ok
        resid = spec.kind.residual(u, du)
    return np.where(alive, resid, np.inf).reshape(len(lams), a_grid.size)


def scan_rows(spec: ProblemSpec, lams: Sequence[float]) -> Iterator[tuple[float, np.ndarray]]:
    """Yield ``(lam, residual row)`` for each lam, scanning blocks of lams lazily.

    A block holds as many lams as fit in ``_SCAN_BLOCK`` slopes (at least
    one), so numpy's per-call overhead is shared while the buffers stay
    small; the next block is scanned only when the caller asks for its
    first lam.
    """
    per_block = max(1, _SCAN_BLOCK // spec.scan_n)
    for start in range(0, len(lams), per_block):
        block = lams[start:start + per_block]
        yield from zip(block, _scan_residuals(spec, block))


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


def _gated_root(spec: ProblemSpec, a: float) -> Optional[ShootingRoot]:
    """The root at slope a if its full trajectory validates, else None.

    The final gate of every reported root: the trajectory on the spec's
    grid, judged at the calibrated resolution.
    """
    traj = integrate(spec, a)
    report = calibrated_report(spec, traj)
    return ShootingRoot(a=a, traj=traj, report=report) if report.accepted() else None


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

    Scans ``spec.scan_n`` slopes over [slope_min, slope_max] -- or takes
    ``scan``, the residual row :func:`scan_rows` gave for ``spec.lam`` --
    and from there works on the slopes and residuals as Python floats: it
    brackets sign changes of the boundary residual, refines each bracket by
    safeguarded secant to |delta a| < _ROOT_TOL, golden-refines interior
    residual extrema (so near-fold root pairs and the exact-fold double
    root are not lost), and keeps only roots whose full trajectory passes
    validation at the calibrated resolution.  Each root carries that
    trajectory, sampled on ``spec.grid_n`` points, and its report.

    Raises
    ------
    WindowTooSmallError
        If a root sits at the scan-window edge, except the trivial root at
        a = 0 (the zero solution), which is legitimate.
    """
    # window adequacy, before any bracket: no root may sit at a true edge,
    # and a window of one slope is judged by its edge alone
    f_lo_edge = _residual_at(spec, spec.slope_min)
    if math.isfinite(f_lo_edge) and abs(f_lo_edge) <= BOUNDARY_TOL:
        raise WindowTooSmallError("slope_min", spec.slope_min)
    if spec.slope_max < 0.0:
        f_hi_edge = _residual_at(spec, spec.slope_max)
        if math.isfinite(f_hi_edge) and abs(f_hi_edge) <= BOUNDARY_TOL:
            raise WindowTooSmallError("slope_max", spec.slope_max)

    if scan is None:
        scan = _scan_residuals(spec, [spec.lam])[0]
    # Python floats from here on: every endpoint shot then runs _dp45's
    # scalar loop on floats, not on numpy scalars
    a_grid = _scan_grid(spec).tolist()
    res = scan.tolist()
    finite = [math.isfinite(r) for r in res]

    candidates: list[float] = []

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
        here, left, right = abs(res[i]), abs(res[i - 1]), abs(res[i + 1])
        if here > _EXTREMUM_GATE:
            continue
        # a minimum strictly below one neighbour: a flat run is no dip
        if not (here <= min(left, right) and here < max(left, right)):
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
            candidates.append(a_min)

    # trivial root at the a = 0 edge (only root allowed to touch the window)
    if spec.slope_max == 0.0 and abs(_residual_at(spec, 0.0)) <= BOUNDARY_TOL:
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
    )
