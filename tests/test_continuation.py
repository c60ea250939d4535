"""Sweeps, branch labels, and the fold point with its certified bracket."""

import hashlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from epibvp import continuation, shooting
from epibvp.cli import main
from epibvp.continuation import (
    Branch,
    default_fold_bracket,
    default_fold_tol,
    locate_fold,
    sweep,
)
from epibvp.errors import BracketError, DomainError, EpibvpError, WindowTooSmallError
from epibvp.integrator import ValidationReport
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


# sha256 of diagram.csv from `sweep --lambdas 0,50,120,167 --bc dirichlet`
DIRICHLET_SWEEP_CSV_SHA256 = "8e6a0e45d66365a20445c85af6435149b58ecfb240d9820aaf834c1d3a779595"

# sha256 of the default folds' fold.json and of a Navier sweep's diagram.csv;
# a scan that picks the same cells leaves the folds' bytes alone, while the
# sweep's slopes also follow the scan values, whose cubic starts each secant
PINNED_SHA256 = [
    (["fold", "--bc", "dirichlet"], "fold.json",
     "75bcc49b9d70df583c238519fdb2b264a9f14f91ad97902e1147c8c26c57e28e"),
    (["fold", "--bc", "navier"], "fold.json",
     "a36c473d1a8125098e5818a7e52e02b4c1cb7a523c669790e40e6eea9636ba84"),
    (["sweep", "--bc", "navier", "--lambdas", "0,5,11.2"], "diagram.csv",
     "710deb0f0d7aa5aea18aae7091818d04644222dd1d3c5eadfaeb16d4ab53474f"),
]


@pytest.mark.parametrize("argv, name, digest", PINNED_SHA256,
                         ids=["fold-dirichlet", "fold-navier", "sweep-navier"])
def test_fold_and_sweep_bytes_are_pinned(tmp_path, argv, name, digest):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    with open(os.path.join(tmp_path, name), "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == digest


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
    assert lam0 == pytest.approx(NAVIER_FOLD, rel=1e-12, abs=0.0)
    assert lo < lam0 < hi <= 128.0 / 11.0
    assert -500.0 < a_star < 0.0


def test_locate_fold_dirichlet_from_certificate_bracket():
    lo, hi, lam0, a_star = locate_fold(BoundaryKind.DIRICHLET, (144.0, 307.0), 0.5)
    assert 0.0 < hi - lo <= 1e-5
    assert lo <= DIRICHLET_FOLD <= hi
    assert lam0 == pytest.approx(DIRICHLET_FOLD, rel=1e-12, abs=0.0)
    assert 168.0 <= lo < lam0 < hi <= 171.0
    assert -500.0 < a_star < 0.0


@pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
def test_fold_a_star_is_the_residual_vertex(kind):
    """The a* that a default fold prints is the vertex of R(., lam0) to 1e-9
    relative: a quartic least-squares fit of 41 endpoint shots on a* +- 0.01,
    whose slope vanishes there."""
    *_, lam0, a_star = locate_fold(kind, default_fold_bracket(kind), default_fold_tol(kind))
    spec = ProblemSpec(lam=lam0, kind=kind)
    x = np.linspace(-1.0, 1.0, 41)
    r = [shooting._residual_at(spec, a_star + 0.01 * xi) for xi in x.tolist()]
    slope = np.polynomial.Polynomial.fit(x, r, 4, domain=[-1.0, 1.0]).deriv()
    vertex = a_star + 0.01 * min(slope.roots(), key=abs).real
    assert abs(a_star - vertex) <= 1e-9 * abs(vertex)


@pytest.mark.parametrize("kind, endpoint, event", [
    (BoundaryKind.DIRICHLET, 14, 16), (BoundaryKind.NAVIER, 16, 21),
], ids=["dirichlet", "navier"])
def test_default_fold_shot_counts(monkeypatch, kind, endpoint, event):
    """A default fold's shots and calls, pinned: the Brent search's event
    shots, the Newton step's three endpoint shots, one recorded shot at
    lam0 - d and one full root set at lam0 + d, which takes the other
    endpoint shots."""
    calls = {"endpoint": 0, "event": 0, "recorded": 0, "root_sets": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(shooting, "shoot_endpoint",
                        counted("endpoint", shooting.shoot_endpoint))
    monkeypatch.setattr(continuation, "shoot_event",
                        counted("event", continuation.shoot_event))
    monkeypatch.setattr(shooting, "shoot", counted("recorded", shooting.shoot))
    monkeypatch.setattr(continuation, "find_shooting_roots",
                        counted("root_sets", continuation.find_shooting_roots))
    locate_fold(kind, default_fold_bracket(kind), default_fold_tol(kind))
    assert calls == {"endpoint": endpoint, "event": event, "recorded": 1, "root_sets": 1}


@pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
def test_default_fold_lower_shot_is_a_root(monkeypatch, kind):
    """The quadratic turning point names the root at lam0 - d outright: its
    one shot, at a* + delta, meets the boundary condition to 1e-10, far
    inside the gate's BOUNDARY_TOL."""
    roots = []
    real = continuation._gated_root
    monkeypatch.setattr(continuation, "_gated_root",
                        lambda *args: roots.append(real(*args)) or roots[-1])
    lo, _, _, a_star = locate_fold(kind, default_fold_bracket(kind), default_fold_tol(kind))
    (root,) = roots
    assert root.shot.lam == lo and root.a > a_star
    assert abs(root.report.boundary_resid) <= 1e-10


def test_sweep_lists_the_fold_root_once():
    """At the lam0 that the default Navier fold printed while shoot_event
    placed t* by Newton, 2.3e-14 above its print now, the one root is a
    single upper point."""
    points = sweep(BoundaryKind.NAVIER, [11.34080942145586])
    assert [(p.a, p.branch) for p in points] == [(-8.872504312348994, Branch.UPPER)]


def test_locate_fold_bracket_independence():
    """The fold's search never reads the bracket or the slope window: every
    valid bracket and window gives the default's (lam0, a_star) bit for bit."""
    want = {kind: locate_fold(kind, default_fold_bracket(kind), default_fold_tol(kind))[2:]
            for kind in BoundaryKind}
    window = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, slope_min=-60.0, slope_max=-40.0)
    for kind, bracket, spec in [
        (BoundaryKind.DIRICHLET, (0.0, 307.0), None),
        (BoundaryKind.DIRICHLET, (150.0, 290.0), None),
        (BoundaryKind.DIRICHLET, (144.0, 307.0), window),
        (BoundaryKind.NAVIER, (9.5, 11.5), None),
        (BoundaryKind.NAVIER, (11.3, 11.4), None),
    ]:
        fold = locate_fold(kind, bracket, default_fold_tol(kind), spec)
        assert fold[2:] == want[kind], (kind, bracket, spec)


@pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
def test_fold_derivatives_match_differences(kind):
    """R_lam, read off the event state, matches a central difference of
    shoot_endpoint at (a*, lam0) to 1e-6; R_aa, the Newton step's second
    difference next to the searched slope, matches one at (a*, lam0) to
    2e-3."""
    a, lam0, r_lam, r_aa = continuation._fold_point(ProblemSpec(lam=0.0, kind=kind))

    def resid(lam, a):
        return shooting._residual_at(ProblemSpec(lam=lam, kind=kind), a)

    h = 1e-4
    assert r_lam == pytest.approx((resid(lam0 + h, a) - resid(lam0 - h, a)) / (2 * h), rel=1e-6)
    h = 1e-3 * abs(a)
    second = (resid(lam0, a + h) - 2.0 * resid(lam0, a) + resid(lam0, a - h)) / (h * h)
    assert r_aa == pytest.approx(second, rel=2e-3)


def test_locate_fold_dirichlet_from_zero():
    """A bracket from lo = 0, where the trivial root a = 0 is one of two,
    certifies the same bracket."""
    fold = locate_fold(BoundaryKind.DIRICHLET, (0.0, 307.0), 0.5)
    default = locate_fold(BoundaryKind.DIRICHLET, (144.0, 307.0), 0.5)
    assert fold == pytest.approx(default, rel=0.0, abs=1e-9)


def test_locate_fold_bad_bracket_lo():
    with pytest.raises(BracketError) as err:
        locate_fold(BoundaryKind.NAVIER, (12.0, 13.0), 0.05)
    assert err.value.end == "lo"


def test_locate_fold_within_d_of_lo():
    """A lo less than d below the fold fails at "lo", as a hi less than d
    above it fails at "hi"; the message names the fold it found."""
    with pytest.raises(BracketError) as err:
        locate_fold(BoundaryKind.NAVIER, (11.3408094, 11.5), 0.05)
    assert err.value.end == "lo"
    assert "11.3408094214" in str(err.value)


def test_locate_fold_scan_without_a_finite_residual():
    """Every slope of this window overflows at launch; the fold's search does
    not scan it, and its a* lies above the window."""
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, slope_min=-1e308, slope_max=-1e307)
    with pytest.raises(WindowTooSmallError) as err:
        locate_fold(BoundaryKind.DIRICHLET, (144.0, 307.0), 0.5, spec)
    assert err.value.edge == "slope_max"
    assert err.value.a == locate_fold(BoundaryKind.DIRICHLET, (144.0, 307.0), 0.5)[3]


def test_locate_fold_window_without_the_roots_at_lo():
    """The fold's search needs no roots at lo: a window that holds a* but
    leaves out both roots at lo = 144 certifies the default bracket."""
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, slope_min=-60.0, slope_max=-40.0)
    assert find_shooting_roots(replace(spec, lam=144.0)).roots == []
    lo, hi, lam0, a_star = locate_fold(BoundaryKind.DIRICHLET, (144.0, 307.0), 0.5, spec)
    default = locate_fold(BoundaryKind.DIRICHLET, (144.0, 307.0), 0.5)
    assert (lo, hi, lam0, a_star) == pytest.approx(default, rel=1e-14, abs=0.0)
    assert lo <= DIRICHLET_FOLD <= hi


def test_locate_fold_bad_bracket_hi():
    with pytest.raises(BracketError) as err:
        locate_fold(BoundaryKind.NAVIER, (9.0, 11.0), 0.05)
    assert err.value.end == "hi"


def test_locate_fold_rejects_reversed():
    with pytest.raises(BracketError):
        locate_fold(BoundaryKind.NAVIER, (12.0, 9.0), 0.05)


def test_locate_fold_rejects_infinite_hi():
    # checked before any root set, and before the order check, which a NaN
    # hi would fail at "lo"
    for hi in (math.inf, math.nan):
        with pytest.raises(BracketError) as err:
            locate_fold(BoundaryKind.NAVIER, (12.0, hi), 0.05)
        assert err.value.end == "hi", hi


def test_locate_fold_rejects_bad_tol():
    # fold_tol must be finite and positive, checked before any root set:
    # this bracket would fail at "lo" otherwise
    for fold_tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            locate_fold(BoundaryKind.NAVIER, (12.0, 13.0), fold_tol)


@pytest.mark.parametrize("check, fold_tol, failed", [
    ("none", 1e-9, "its bracket 2 d = "),
    ("lower", 1e-5, "the gate rejected the lower root a = "),
    ("upper", 1e-5, "the upper root a = "),
], ids=["tol-below-first-bracket", "lower-check", "upper-check"])
def test_uncertified_fold_names_the_last_failed_check(monkeypatch, check, fold_tol, failed):
    """The bracket is certified at one d, and a check that fails there ends
    the run: the message names lam0 and that check, and no later check
    runs."""
    real_gate, real_upper = continuation._gated_root, continuation.find_shooting_roots
    calls = []

    def gate(spec, a, rejected):
        calls.append("lower")
        if check == "lower":
            rejected.append((a, ValidationReport(1.0, 1.0, 0.0, 0.0)))
            return None
        return real_gate(spec, a, rejected)

    def upper(spec):
        calls.append("upper")
        # below the fold, the root set still holds both roots
        return real_upper(replace(spec, lam=spec.lam - 1.0))

    monkeypatch.setattr(continuation, "_gated_root", gate)
    monkeypatch.setattr(continuation, "find_shooting_roots", upper)
    with pytest.raises(EpibvpError) as err:
        locate_fold(BoundaryKind.NAVIER, default_fold_bracket(BoundaryKind.NAVIER), fold_tol)
    message = str(err.value)
    lam0 = continuation._fold_point(ProblemSpec(lam=0.0, kind=BoundaryKind.NAVIER))[1]
    assert message.startswith(f"the fold lam0 = {lam0!r} does not certify: {failed}")
    assert ("first_integral_resid = 1.0" in message) == (check == "lower")
    assert calls == {"none": [], "lower": ["lower"], "upper": ["lower", "upper"]}[check]


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
