"""Parameter sweeps into branch-labelled (lam, a) points, and the fold point.

Solvability is monotone in the deposition rate: if the problem is solvable
at some lam it is solvable at every smaller lam.  The fold lam0 is the
largest solvable lam, where the two branches merge at a slope a* into a
double root of the endpoint residual R(a, lam).  It is a regular turning
point (R_lam and R_aa are nonzero there), so Newton on the extended system
R = 0, R_a = 0 converges to it quadratically (Moore & Spence, SIAM J.
Numer. Anal. 17, 1980).  The nontrivial-root count, sound by the
monotonicity, then certifies a bracket around lam0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

from .errors import BracketError, DomainError, EpibvpError, WindowTooSmallError
from .integrator import BOUNDARY_TOL, shoot_variational
from .model import BoundaryKind, ProblemSpec
from .shooting import _scan_extremum, _scan_residuals, find_shooting_roots, root_in_bracket

# Newton on the fold stops once both steps are below this, relative to
# 1 + |a| and 1 + lam; quadratic convergence makes the last iterate far
# more accurate still.  A regular start takes 4-10 steps.
_FOLD_NEWTON_RTOL = 1e-10
_FOLD_NEWTON_MAX_ITER = 30


class Branch(Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class DiagramPoint:
    """One validated root of a sweep: its lam, slope and branch."""

    lam: float
    a: float
    branch: Branch


def sweep(
    kind: BoundaryKind,
    lams: Sequence[float],
    spec_defaults: Optional[ProblemSpec] = None,
) -> list[DiagramPoint]:
    """Run the root finder at each lam and label branches.

    ``lams`` must be finite, nonnegative and sorted ascending.  One
    :func:`~epibvp.shooting._scan_residuals` call scans every lam, and each
    lam's row goes to its own :func:`~epibvp.shooting.find_shooting_roots`
    call, so every lam gets exactly the root set it would get alone.  A
    root's branch is the side of its root set's residual extremum it lies
    on: lower below it, upper from it on.  Returns the points in lam order,
    ascending in slope within a lam; only validated roots enter (the root
    finder guarantees that).
    """
    lams = list(lams)
    if not all(0.0 <= l < math.inf for l in lams):
        raise BracketError("lams", "sweep lams must be finite and >= 0")
    if lams != sorted(lams):
        raise BracketError("lams", "sweep lams must be sorted ascending")
    if spec_defaults is None:
        spec_defaults = ProblemSpec(lam=0.0, kind=kind)

    spec = replace(spec_defaults, kind=kind)
    points: list[DiagramPoint] = []
    for lam, scan in zip(lams, _scan_residuals(spec, lams)):
        rs = find_shooting_roots(replace(spec, lam=lam), scan)
        for a in rs.slopes():
            branch = Branch.LOWER if a < rs.extremum[0] else Branch.UPPER
            points.append(DiagramPoint(lam=lam, a=a, branch=branch))
    return points


def _fold_newton(spec: ProblemSpec, a: float) -> tuple[float, float, float, float]:
    """Newton on the extended system R = 0, R_a = 0 from (a, spec.lam).

    Returns the fold point (a*, lam0) with R_lam and R_aa there.  Each
    iterate takes one variational shot and solves
    [[R_a, R_lam], [R_aa, R_alam]] (da, dlam) = -(R, R_a) by Cramer's rule.

    Raises
    ------
    EpibvpError
        If a shot diverges, the Jacobian is singular, lam leaves [0, inf)
        or the steps do not settle within ``_FOLD_NEWTON_MAX_ITER``.
    """
    lam = spec.lam
    for _ in range(_FOLD_NEWTON_MAX_ITER):
        r, r_a, r_lam, r_aa, r_alam = shoot_variational(replace(spec, lam=lam), a)
        det = r_a * r_alam - r_lam * r_aa
        if not math.isfinite(det) or det == 0.0 or r_lam * r_aa == 0.0:
            raise EpibvpError(f"singular fold Jacobian at a = {a!r}, lam = {lam!r}")
        da = (r_lam * r_a - r * r_alam) / det
        dlam = (r * r_aa - r_a * r_a) / det
        a += da
        lam += dlam
        if not 0.0 <= lam < math.inf:
            raise EpibvpError(f"fold Newton left lam >= 0 (lam = {lam!r})")
        if max(abs(da) / (1.0 + abs(a)), abs(dlam) / (1.0 + lam)) <= _FOLD_NEWTON_RTOL:
            return a, lam, r_lam, r_aa
    raise EpibvpError(f"fold Newton did not converge in {_FOLD_NEWTON_MAX_ITER} steps")


def locate_fold(
    kind: BoundaryKind,
    bracket: tuple[float, float],
    fold_tol: float,
    spec_defaults: Optional[ProblemSpec] = None,
) -> tuple[float, float, float, float]:
    """Solve for the fold point by Newton and certify a bracket around it.

    Preconditions: 0 <= bracket[0] < bracket[1] < inf and 0 < fold_tol < inf,
    both checked before any shot, and a finite residual in the slope scan at
    bracket[0].  Newton on R = 0, R_a = 0 (:func:`_fold_newton`) starts
    there, at the scan's lowest point of s R, and gives the fold (a*, lam0).

    The bracket [lam0 - d, lam0 + d] is then certified by the count
    predicate, which monotone solvability makes sound: one validated root
    at lam0 - d, found in the slope bracket [a*, a* + 2 delta] that the
    quadratic turning point predicts, and no nontrivial root at lam0 + d.
    d starts at 4 BOUNDARY_TOL / |R_lam|, so the residual's minimum at
    lam0 + d clears the root gate's tangency threshold, and doubles while a
    check fails.

    Returns (lam_lo, lam_hi, lam0, a_star) with lam_hi - lam_lo <= fold_tol;
    no claim is made about solvability exactly at the fold.

    Raises
    ------
    BracketError
        Naming the failing end when a bracket precondition does not hold;
        "lo" when the scan at bracket[0] has no finite residual or lam0 - d
        falls below it, "hi" when lam0 + d exceeds bracket[1].
    DomainError
        When fold_tol is not finite and > 0.
    WindowTooSmallError
        Naming the scan-window edge that the Newton fold slope a* lies
        beyond, before any certificate root set.
    EpibvpError
        When Newton fails, or no bracket of width <= fold_tol certifies
        (among them a fold_tol below 2 d at the first d); the message then
        names the check that failed at the last d: a lower root the gate
        turned down, with its lam and report, a slope bracket with no lower
        root, or a nontrivial root at lam0 + d.
    """
    lo, hi = bracket
    if not 0.0 <= lo < hi:
        raise BracketError("lo", f"need 0 <= lo < hi, got ({lo}, {hi})")
    if hi == math.inf:
        raise BracketError("hi", "need a finite hi")
    if not 0.0 < fold_tol < math.inf:
        raise DomainError(f"need a finite fold_tol > 0, got {fold_tol}")
    if spec_defaults is None:
        spec_defaults = ProblemSpec(lam=0.0, kind=kind)
    spec = replace(spec_defaults, lam=lo, kind=kind)

    a_grid, _, cells = _scan_extremum(spec)
    if cells is None:
        raise BracketError("lo", f"the slope scan at lam = {lo} sees no finite residual")
    a_star, lam0, r_lam, r_aa = _fold_newton(spec, a_grid[cells[1]])
    # the certificate's root sets scan only the window, so a fold slope
    # outside it could never be certified
    if not spec.slope_min <= a_star <= spec.slope_max:
        edge = "slope_min" if a_star < spec.slope_min else "slope_max"
        raise WindowTooSmallError(edge, a_star)

    d = 4.0 * BOUNDARY_TOL / abs(r_lam)
    # why the latest d failed, for the message when no d is left
    failure = f"the first bracket is already 2 d = {2.0 * d:.3g} wide"
    while 2.0 * d <= fold_tol:
        if lam0 - d < lo:
            raise BracketError("lo", f"the fold lam0 = {lam0!r} is not above lo = {lo} by {d:.3g}")
        if lam0 + d > hi:
            raise BracketError("hi", f"the fold lam0 = {lam0!r} is not below hi = {hi} by {d:.3g}")
        delta = math.sqrt(2.0 * abs(r_lam) * d / abs(r_aa))
        lower = (a_star, a_star + 2.0 * delta)
        rejected: list = []
        if root_in_bracket(replace(spec, lam=lam0 - d), *lower, rejected) is None:
            if rejected:
                a, report = rejected[0]
                fields = ", ".join(f"{k} = {v!r}" for k, v in report.to_dict().items())
                failure = (f"the gate rejected the lower root a = {a!r} at lam = {lam0 - d!r} "
                           f"({fields})")
            else:
                failure = f"the slope bracket {lower!r} holds no lower root at lam = {lam0 - d!r}"
        else:
            upper = find_shooting_roots(replace(spec, lam=lam0 + d)).nontrivial()
            if not upper:
                return lam0 - d, lam0 + d, lam0, a_star
            failure = f"the upper root a = {upper[0]!r} remains at lam = {lam0 + d!r}"
        d *= 2.0
    raise EpibvpError(
        f"no bracket of width <= fold_tol = {fold_tol} certifies the fold lam0 = {lam0!r}; "
        f"last, {failure}"
    )


def default_fold_bracket(kind: BoundaryKind) -> tuple[float, float]:
    """Certificate-backed search bracket: the fold provably lies inside."""
    if kind is BoundaryKind.DIRICHLET:
        return 144.0, 307.0
    return 9.0, 128.0 / 11.0


def default_fold_tol(kind: BoundaryKind) -> float:
    return 0.5 if kind is BoundaryKind.DIRICHLET else 0.05
