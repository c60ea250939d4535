"""Sweeps, branch labels, and the fold point with its certified bracket."""

import hashlib
import math
import os
from dataclasses import replace

import pytest

from epibvp.cli import main
from epibvp.continuation import (
    Branch,
    default_fold_bracket,
    default_fold_tol,
    locate_fold,
    sweep,
)
from epibvp.errors import BracketError, DomainError, WindowTooSmallError
from epibvp.model import BoundaryKind, ProblemSpec
from epibvp.shooting import find_shooting_roots

# independent fold values: scipy DOP853 at rtol 1e-12 on the 10-state
# variational system, eps = 1e-6
DIRICHLET_FOLD = 168.769431276654
NAVIER_FOLD = 11.340809421457


def _counts(points):
    counts = {}
    for p in points:
        counts[p.lam] = counts.get(p.lam, 0) + 1
    return counts


def test_sweep_dirichlet_counts():
    points = sweep(BoundaryKind.DIRICHLET, [0.0, 50.0, 100.0, 150.0])
    assert _counts(points) == {0.0: 2, 50.0: 2, 100.0: 2, 150.0: 2}


def test_sweep_dirichlet_beyond_fold():
    points = sweep(BoundaryKind.DIRICHLET, [200.0, 250.0])
    assert points == []


def test_sweep_navier_counts():
    points = sweep(BoundaryKind.NAVIER, [0.0, 5.0, 10.0])
    assert _counts(points) == {0.0: 2, 5.0: 2, 10.0: 2}
    points = sweep(BoundaryKind.NAVIER, [12.0])
    assert points == []


def test_branch_labels_consistent():
    points = sweep(BoundaryKind.DIRICHLET, [50.0, 100.0, 150.0])
    lower = {p.lam: p.a for p in points if p.branch is Branch.LOWER}
    upper = {p.lam: p.a for p in points if p.branch is Branch.UPPER}
    assert set(lower) == set(upper) == {50.0, 100.0, 150.0}
    for lam in lower:
        assert lower[lam] < upper[lam]


def test_branches_approach_each_other():
    points = sweep(BoundaryKind.DIRICHLET, [100.0, 160.0])
    gap = {}
    for p in points:
        gap.setdefault(p.lam, {})[p.branch] = p.a
    g100 = abs(gap[100.0][Branch.UPPER] - gap[100.0][Branch.LOWER])
    g160 = abs(gap[160.0][Branch.UPPER] - gap[160.0][Branch.LOWER])
    assert g160 < g100


def test_monotone_solvability_over_sweep():
    """Roots at a larger lam imply roots at every smaller sampled lam."""
    points = sweep(BoundaryKind.DIRICHLET, [0.0, 50.0, 100.0, 150.0])
    counts = _counts(points)
    lams = sorted(counts)
    for i, lam in enumerate(lams):
        if counts[lam] > 0:
            assert all(counts[smaller] > 0 for smaller in lams[:i])


def test_sweep_rejects_bad_input():
    with pytest.raises(BracketError):
        sweep(BoundaryKind.DIRICHLET, [50.0, 10.0])
    with pytest.raises(BracketError):
        sweep(BoundaryKind.DIRICHLET, [-1.0, 10.0])


def test_single_root_labels():
    """A root's branch is the side of its root set's residual extremum
    (RootSet.extremum) it lies on: with the lower branch outside the window,
    each lone root, the trivial a = 0 included, is upper."""
    narrow = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, slope_min=-100.0)
    points = sweep(BoundaryKind.DIRICHLET, [0.0, 50.0, 100.0, 130.0], narrow)
    assert [(p.lam, p.branch) for p in points] == [
        (0.0, Branch.UPPER), (50.0, Branch.UPPER), (100.0, Branch.UPPER),
        (130.0, Branch.LOWER), (130.0, Branch.UPPER),
    ]
    assert points[0].a == 0.0

    low = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, slope_min=-500.0, slope_max=-50.0)
    (point,) = sweep(BoundaryKind.DIRICHLET, [0.0], low)
    assert point.branch is Branch.LOWER and point.a < -50.0


# sha256 of diagram.csv from `sweep --lambdas 0,50,120,167 --bc dirichlet`,
# whose slopes are within 2e-13 of those of a 2000-slope scan per lam
DIRICHLET_SWEEP_CSV_SHA256 = "3e3fa9e2df5c879eb6ee4668a23ad5465b94d99641f53bd4e623f5b6b6770a1d"


def test_sweep_matches_per_lam_root_sets(tmp_path):
    """The sweep, scanning all its lams at once, gives each lam's own root
    set, bit for bit."""
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.NAVIER)
    # two roots up to 11.3, none past the fold at 11.34
    lams = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 11.0, 11.3, 11.4, 12.0]
    points = sweep(BoundaryKind.NAVIER, lams, spec)
    for lam in lams:
        want = find_shooting_roots(replace(spec, lam=lam)).slopes()
        assert [p.a for p in points if p.lam == lam] == want, lam
        assert len(want) == (2 if lam <= 11.3 else 0), lam

    closed = replace(spec, slope_min=0.0, slope_max=0.0)
    with pytest.raises(WindowTooSmallError) as per_lam:
        find_shooting_roots(closed)
    with pytest.raises(WindowTooSmallError) as swept:
        sweep(BoundaryKind.NAVIER, [0.0, 5.0], closed)
    assert str(swept.value) == str(per_lam.value)

    argv = ["sweep", "--lambdas", "0,50,120,167", "--bc", "dirichlet", "--out", str(tmp_path)]
    assert main(argv) == 0
    with open(os.path.join(tmp_path, "diagram.csv"), "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == DIRICHLET_SWEEP_CSV_SHA256


def test_locate_fold_navier():
    lo, hi, lam0, a_star = locate_fold(BoundaryKind.NAVIER, (9.0, 128.0 / 11.0), 0.05)
    assert 0.0 < hi - lo <= 1e-5
    assert lo <= NAVIER_FOLD <= hi
    assert lo < lam0 < hi <= 128.0 / 11.0
    assert -500.0 < a_star < 0.0


def test_locate_fold_dirichlet_from_certificate_bracket():
    lo, hi, lam0, a_star = locate_fold(BoundaryKind.DIRICHLET, (144.0, 307.0), 0.5)
    assert 0.0 < hi - lo <= 1e-5
    assert lo <= DIRICHLET_FOLD <= hi
    assert 168.0 <= lo < lam0 < hi <= 171.0
    assert -500.0 < a_star < 0.0


def test_locate_fold_bracket_independence():
    """Any valid starting bracket localizes the same fold within tolerance."""
    lo1, hi1, _, _ = locate_fold(BoundaryKind.NAVIER, (9.0, 128.0 / 11.0), 0.05)
    lo2, hi2, _, _ = locate_fold(BoundaryKind.NAVIER, (10.0, 11.5), 0.05)
    mid1 = 0.5 * (lo1 + hi1)
    mid2 = 0.5 * (lo2 + hi2)
    assert abs(mid1 - mid2) <= 0.05


def test_locate_fold_dirichlet_from_zero():
    """From lo = 0 (trivial root counted in the Newton start) to the same bracket."""
    fold = locate_fold(BoundaryKind.DIRICHLET, (0.0, 307.0), 0.5)
    default = locate_fold(BoundaryKind.DIRICHLET, (144.0, 307.0), 0.5)
    assert fold == pytest.approx(default, rel=0.0, abs=1e-9)


def test_locate_fold_bad_bracket_lo():
    with pytest.raises(BracketError) as err:
        locate_fold(BoundaryKind.NAVIER, (12.0, 13.0), 0.05)
    assert err.value.end == "lo"


def test_locate_fold_bad_bracket_hi():
    with pytest.raises(BracketError) as err:
        locate_fold(BoundaryKind.NAVIER, (9.0, 11.0), 0.05)
    assert err.value.end == "hi"


def test_locate_fold_rejects_reversed():
    with pytest.raises(BracketError):
        locate_fold(BoundaryKind.NAVIER, (12.0, 9.0), 0.05)


def test_locate_fold_rejects_infinite_hi():
    # checked before any root set
    with pytest.raises(BracketError) as err:
        locate_fold(BoundaryKind.NAVIER, (12.0, math.inf), 0.05)
    assert err.value.end == "hi"


def test_locate_fold_rejects_bad_tol():
    # fold_tol must be finite and positive, checked before any root set:
    # this bracket would fail at "lo" otherwise
    for fold_tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            locate_fold(BoundaryKind.NAVIER, (12.0, 13.0), fold_tol)


def test_locate_fold_rejects_fold_slope_outside_window():
    # the Navier fold slope a* = -8.87 lies below this window
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.NAVIER, slope_min=-8.0, slope_max=-1.0)
    with pytest.raises(WindowTooSmallError) as err:
        locate_fold(BoundaryKind.NAVIER, (9.0, 128.0 / 11.0), 0.05, spec)
    assert err.value.edge == "slope_min"
    assert -9.0 < err.value.a < -8.0


def test_default_brackets_and_tols():
    assert default_fold_bracket(BoundaryKind.DIRICHLET) == (144.0, 307.0)
    assert default_fold_bracket(BoundaryKind.NAVIER) == (9.0, 128.0 / 11.0)
    assert default_fold_tol(BoundaryKind.DIRICHLET) == 0.5
    assert default_fold_tol(BoundaryKind.NAVIER) == 0.05
