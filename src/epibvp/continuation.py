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
One turning-point Newton step moves that maximum to the fold of the problem
launched at eps, which the certificate shoots, and the nontrivial-root
count, sound by the monotonicity, then certifies a bracket around lam0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

from .errors import BracketError, DomainError, EpibvpError, WindowTooSmallError
from .integrator import BOUNDARY_TOL, shoot_event
from .model import BoundaryKind, ProblemSpec
from .shooting import (
    _CGOLD, _DIP_SIGN, _dig, _gated_root, _residual_at, _scan_residuals, find_shooting_roots,
)


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
    """The fold (a*, lam0) of the problem launched at ``spec.eps``, with R_lam
    and R_aa there.

    An event shot at lam_ref, the kind's proven nonexistence bound, with
    slope x, stretched by 2 t*, is the solution at lam(x) = 4 t*^2 lam_ref
    with slope 2 t* x; no event can come past t = 1/2.  Brent's search takes
    g = lam_ref - lam(x) to its minimum over the class-default window, so no
    shot depends on the caller's bracket or window.  R_lam is read off the
    event state by the scaling identity t u' = a u_a + 2 lam u_lam at t = 1/2
    and its t-derivative, with R_a = 0.  The stretched solution launches at
    eps sqrt(lam_ref / lam), so one turning-point Newton step on R = R_a = 0
    (Keller, Lectures on Numerical Methods in Bifurcation Problems, 1987)
    moves (a, lam) to the fold of the problem launched at eps, from three
    endpoint shots at a and a +- h whose central differences give R_a and
    R_aa: a* = a - R_a / R_aa, and lam0 = lam - (R - R_a^2 / (2 R_aa)) / R_lam.

    Raises
    ------
    EpibvpError
        When an event shot keeps its launch sign, or R_aa is not finite
        (a diverged shot among them) or not of the residual extremum's sign.
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
    x, _ = _dig(g, lo, hi, x, g(x))
    t_star, u, du = events[x]
    lam = 4.0 * t_star ** 2 * lam_ref
    a = 2.0 * t_star * x
    # the stretched solution at t = 1/2, where the equation gives u'' = (u^2 + lam)/2
    du *= 2.0 * t_star
    r_lam = spec.kind.residual(du, 2.0 * du + 0.5 * (u * u + lam)) / (4.0 * lam)

    at = replace(spec, lam=lam)
    # R_a's truncation R_aaa h^2 / 6 and noise 5e-15 / h leave a* ~1e-10 off R's vertex
    h = 1e-5 * abs(a)
    r_lo, r, r_hi = (_residual_at(at, a + k * h) for k in (-1.0, 0.0, 1.0))
    r_a = (r_hi - r_lo) / (2.0 * h)
    r_aa = (r_hi - 2.0 * r + r_lo) / (h * h)
    if not (math.isfinite(r_aa) and _DIP_SIGN[spec.kind] * r_aa > 0.0):
        raise EpibvpError(f"the fold's Newton step at lam = {lam!r}, a = {a!r} reads "
                          f"R_aa = {r_aa!r}, not a finite value of the residual extremum's sign")
    return a - r_a / r_aa, lam - (r - 0.5 * r_a * r_a / r_aa) / r_lam, r_lam, r_aa


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

    The bracket [lam0 - d, lam0 + d], d = 4 BOUNDARY_TOL / |R_lam|, is then
    certified by the count predicate, which monotone solvability makes
    sound.  At lam0 - d the quadratic turning point names a root outright,
    a* + delta with delta = sqrt(2 |R_lam| d / |R_aa|), and one recorded
    shot there must pass the validation gate.  At lam0 + d, where the
    residual's extremum clears the gate's tangency threshold, a full root
    set must hold no nontrivial root.

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
        Naming the scan-window edge that a* or the lower shot's slope
        a* + delta lies beyond, before that shot.
    EpibvpError
        When :func:`_fold_point` fails, or the bracket does not certify; the
        message names lam0 and the check that failed: 2 d above fold_tol,
        the gate turning down the lower shot (with its slope, lam and
        report), or a nontrivial root at lam0 + d.
    """
    lo, hi = bracket
    if not math.isfinite(hi):
        raise BracketError("hi", f"need a finite hi, got {hi}")
    if not 0.0 <= lo < hi:
        raise BracketError("lo", f"need 0 <= lo < hi, got ({lo}, {hi})")
    if not 0.0 < fold_tol < math.inf:
        raise DomainError(f"need a finite fold_tol > 0, got {fold_tol}")
    if spec_defaults is None:
        spec_defaults = ProblemSpec(lam=0.0, kind=kind)
    spec = replace(spec_defaults, kind=kind)

    a_star, lam0, r_lam, r_aa = _fold_point(spec)
    d = 4.0 * BOUNDARY_TOL / abs(r_lam)
    # the root at lam0 - d that the quadratic turning point names
    a_lower = a_star + math.sqrt(2.0 * abs(r_lam) * d / abs(r_aa))
    # the certificate's shots lie in the window, so a fold slope outside it
    # could never be certified
    for a in (a_star, a_lower):
        if not spec.slope_min <= a <= spec.slope_max:
            raise WindowTooSmallError("slope_min" if a < spec.slope_min else "slope_max", a)
    failed = f"the fold lam0 = {lam0!r} does not certify: "
    if 2.0 * d > fold_tol:
        raise EpibvpError(failed + f"its bracket 2 d = {2.0 * d:.3g} is wider than "
                          f"fold_tol = {fold_tol}")
    if lam0 - d < lo:
        raise BracketError("lo", f"the fold lam0 = {lam0!r} is not above lo = {lo} by {d:.3g}")
    if lam0 + d > hi:
        raise BracketError("hi", f"the fold lam0 = {lam0!r} is not below hi = {hi} by {d:.3g}")
    rejected: list = []
    if _gated_root(replace(spec, lam=lam0 - d), a_lower, rejected) is None:
        fields = ", ".join(f"{k} = {v!r}" for k, v in rejected[0][1].to_dict().items())
        raise EpibvpError(failed + f"the gate rejected the lower root a = {a_lower!r} at "
                          f"lam = {lam0 - d!r} ({fields})")
    upper = find_shooting_roots(replace(spec, lam=lam0 + d)).nontrivial()
    if upper:
        raise EpibvpError(failed + f"the upper root a = {upper[0]!r} remains at lam = {lam0 + d!r}")
    return lam0 - d, lam0 + d, lam0, a_star


def default_fold_bracket(kind: BoundaryKind) -> tuple[float, float]:
    """Certificate-backed search bracket: the fold provably lies inside."""
    if kind is BoundaryKind.DIRICHLET:
        return 144.0, 307.0
    return 9.0, 128.0 / 11.0


def default_fold_tol(kind: BoundaryKind) -> float:
    return 0.5 if kind is BoundaryKind.DIRICHLET else 0.05
