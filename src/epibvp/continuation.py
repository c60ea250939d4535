"""Parameter sweeps, branch labeling, and fold location by count bisection.

Solvability is monotone in the deposition rate: if the problem is solvable
at some lam it is solvable at every smaller lam.  Bisection on the
nontrivial-root count is therefore a sound fold locator, and it is robust
to the near-tangency of the merging branches, where residual-minimization
schemes lose their footing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

from .errors import BracketError
from .model import BoundaryKind, ProblemSpec
from .shooting import find_shooting_roots

# lam resolution floor: below this, the shooting root merge distance makes
# finer fold claims meaningless at the default tolerances
FOLD_RESOLUTION_FLOOR = 1e-3


class Branch(Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class DiagramPoint:
    lam: float
    a: float
    branch: Branch


@dataclass
class BifurcationDiagram:
    """(lam, slope) branch points, plus a fold bracket when one was located."""

    kind: BoundaryKind
    points: list[DiagramPoint]
    fold: Optional[tuple[float, float]] = None


def sweep(
    kind: BoundaryKind,
    lams: Sequence[float],
    spec_defaults: Optional[ProblemSpec] = None,
) -> BifurcationDiagram:
    """Run the root finder at each lam and label branches.

    ``lams`` must be finite, nonnegative and sorted ascending.  With two
    roots at a given lam the more negative slope goes to the lower branch; a
    single root is labeled by nearest-neighbor matching against the previous
    lam's labeled points, so each branch stays consistent across the sweep.
    Only validated roots enter the diagram (the root finder guarantees that).
    """
    lams = list(lams)
    if not all(0.0 <= l < math.inf for l in lams):
        raise BracketError("lams", "sweep lams must be finite and >= 0")
    if lams != sorted(lams):
        raise BracketError("lams", "sweep lams must be sorted ascending")
    if spec_defaults is None:
        spec_defaults = ProblemSpec(lam=0.0, kind=kind)

    points: list[DiagramPoint] = []
    prev: dict[Branch, float] = {}
    for lam in lams:
        spec = replace(spec_defaults, lam=lam, kind=kind)
        rs = find_shooting_roots(spec)
        slopes = sorted(rs.slopes())
        labeled: list[tuple[float, Branch]] = []
        if len(slopes) >= 2:
            labeled.append((slopes[0], Branch.LOWER))
            labeled.append((slopes[-1], Branch.UPPER))
            for extra in slopes[1:-1]:
                # between-branch roots (not expected here); nearest label
                d_low = abs(extra - slopes[0])
                d_up = abs(extra - slopes[-1])
                labeled.append((extra, Branch.LOWER if d_low < d_up else Branch.UPPER))
        elif len(slopes) == 1:
            a = slopes[0]
            if prev:
                branch = min(prev, key=lambda b: abs(prev[b] - a))
            else:
                branch = Branch.LOWER if a < 0 else Branch.UPPER
            labeled.append((a, branch))
        for a, branch in labeled:
            points.append(DiagramPoint(lam=lam, a=a, branch=branch))
        prev = {branch: a for a, branch in labeled}
    return BifurcationDiagram(kind=kind, points=points)


def locate_fold(
    kind: BoundaryKind,
    bracket: tuple[float, float],
    fold_tol: float,
    spec_defaults: Optional[ProblemSpec] = None,
) -> tuple[float, float]:
    """Bisect lam on the nontrivial-root count to bracket the fold.

    Preconditions: fold_tol is finite and >= FOLD_RESOLUTION_FLOOR (finer
    claims would be below the root merge distance), at bracket[0] the count
    is >= 1 and at bracket[1] it is 0; monotone solvability below the fold
    justifies the bisection predicate.
    Returns (lam_lo, lam_hi) with lam_hi - lam_lo <= fold_tol; no claim is
    made about solvability exactly at the fold.

    Raises
    ------
    BracketError
        Naming the failing end when a precondition does not hold.
    """
    lo, hi = bracket
    if not 0.0 <= lo < hi:
        raise BracketError("lo", f"need 0 <= lo < hi, got ({lo}, {hi})")
    if not FOLD_RESOLUTION_FLOOR <= fold_tol < math.inf:
        raise BracketError(
            "fold_tol", f"need a finite fold_tol >= {FOLD_RESOLUTION_FLOOR}, got {fold_tol}"
        )
    if spec_defaults is None:
        spec_defaults = ProblemSpec(lam=0.0, kind=kind)

    def count(lam: float) -> int:
        spec = replace(spec_defaults, lam=lam, kind=kind)
        return len(find_shooting_roots(spec).nontrivial())

    if count(lo) < 1:
        raise BracketError("lo", f"no nontrivial root at lam = {lo}")
    if count(hi) != 0:
        raise BracketError("hi", f"roots persist at lam = {hi}")
    while hi - lo > fold_tol:
        mid = 0.5 * (lo + hi)
        if count(mid) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def default_fold_bracket(kind: BoundaryKind) -> tuple[float, float]:
    """Certificate-backed search bracket: the fold provably lies inside."""
    if kind is BoundaryKind.DIRICHLET:
        return 144.0, 307.0
    return 9.0, 128.0 / 11.0


def default_fold_tol(kind: BoundaryKind) -> float:
    return 0.5 if kind is BoundaryKind.DIRICHLET else 0.05
