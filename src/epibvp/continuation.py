"""Parameter sweeps into branch-labelled (lam, a) points, and the fold point.

Solvability is monotone in the deposition rate: if the problem is solvable
at some lam it is solvable at every smaller lam.  The fold lam0 is the
largest solvable lam, where the two branches merge at a slope a* into a
double root of the endpoint residual R(a, lam).  lam is a pure scale of the
equation, so one event shot at the kind's proven nonexistence bound
lam_ref, stretched, is a solution at 4 t*^2 lam_ref
(:func:`~epibvp.integrator.shoot_event`), and the fold is the maximum of
that one scalar function of the slope, found by Brent's derivative-free
search (Brent, Algorithms for Minimization without Derivatives, 1973).
The nontrivial-root count, sound by the monotonicity, then certifies a
bracket around lam0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

from .errors import BracketError, DomainError, EpibvpError, WindowTooSmallError
from .integrator import BOUNDARY_TOL, shoot_event
from .model import BoundaryKind, ProblemSpec
from .shooting import _CGOLD, _dig, _scan_residuals, find_shooting_roots, root_in_bracket


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


def _fold_point(spec: ProblemSpec) -> tuple[float, float, float, float]:
    """The fold (a*, lam0), with R_lam and R_aa there.

    An event shot at lam_ref, the kind's proven nonexistence bound, with
    slope x, stretched by 2 t*, is the solution at lam(x) = 4 t*^2 lam_ref
    with slope 2 t* x; no event can come past t = 1/2.  Brent's search takes
    g = lam_ref - lam(x) to its minimum over the class-default window, so no
    shot depends on the caller's bracket or window.  R_lam is read off the
    event state by the scaling identity t u' = a u_a + 2 lam u_lam at t = 1/2
    and its t-derivative, with R_a = 0.  R_aa comes from one more event shot,
    at x* + dx, as R_lam (lam - lam0) + R_aa (a - a*)^2 / 2 = 0 along the
    family, where a - a* = 2 t* dx: at a coarse eps, (a*, lam0) is no double
    root of the problem launched at eps.
    """
    lam_ref = default_fold_bracket(spec.kind)[1]
    ref = replace(spec, lam=lam_ref)
    events = {}

    def g(x: float) -> float:
        events[x] = shoot_event(ref, x)
        if events[x] is None:
            raise EpibvpError(f"the shot at lam = {lam_ref!r}, a = {x!r} keeps the launch sign "
                              f"of its boundary function up to t = 1/2")
        return lam_ref - 4.0 * events[x][0] ** 2 * lam_ref

    lo, hi = ProblemSpec.slope_min, ProblemSpec.slope_max
    x = lo + _CGOLD * (hi - lo)
    x, gx = _dig(g, lo, hi, x, g(x))
    t_star, u, du = events[x]
    lam0 = 4.0 * t_star ** 2 * lam_ref
    # the stretched solution at t = 1/2, where the equation gives u'' = (u^2 + lam0)/2
    du *= 2.0 * t_star
    r_lam = spec.kind.residual(du, 2.0 * du + 0.5 * (u * u + lam0)) / (4.0 * lam0)
    dx = 1e-3 * abs(x)
    r_aa = 2.0 * r_lam * (g(x + dx) - gx) / (2.0 * t_star * dx) ** 2
    return 2.0 * t_star * x, lam0, r_lam, r_aa


def locate_fold(
    kind: BoundaryKind,
    bracket: tuple[float, float],
    fold_tol: float,
    spec_defaults: Optional[ProblemSpec] = None,
) -> tuple[float, float, float, float]:
    """Find the fold point (:func:`_fold_point`) and certify a bracket around it.

    Preconditions: 0 <= bracket[0] < bracket[1] < inf and 0 < fold_tol < inf,
    both checked before any shot.  The bracket and the slope window only
    bound lam0 +- d and a*, not where the fold is found.

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
        "lo" when lam0 - d falls below bracket[0], "hi" when lam0 + d
        exceeds bracket[1].
    DomainError
        When fold_tol is not finite and > 0.
    WindowTooSmallError
        Naming the scan-window edge that the fold slope a* lies beyond,
        before any certificate root set.
    EpibvpError
        When an event shot finds no sign change, or no bracket of width <=
        fold_tol certifies (among them a fold_tol below 2 d at the first d);
        the message then names the check that failed at the last d: a lower
        root the gate turned down, with its lam and report, a slope bracket
        with no lower root, or a nontrivial root at lam0 + d.
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
    spec = replace(spec_defaults, kind=kind)

    a_star, lam0, r_lam, r_aa = _fold_point(spec)
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
