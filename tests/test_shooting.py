"""Boundary residuals, root finding, scan stability, and window policing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from epibvp import serialize, shooting
from epibvp.errors import WindowTooSmallError
from epibvp.integrator import (
    BLOWUP, BOUNDARY_TOL, SIGN_TOL, _rk4_step, integrate, launch_state, validate,
)
from epibvp.model import BoundaryKind, ProblemSpec, reconstruct_phi
from epibvp.shooting import (
    _CLUSTER_TOL,
    _ROOT_TOL,
    _SCAN_GEO_N,
    _SCAN_SWITCH,
    _SCAN_UNI_N,
    _residual_at,
    _scan_residuals,
    find_shooting_roots,
    root_in_bracket,
)

# production root values, frozen from refined runs at default tolerances
LAM0_DIRICHLET_NONTRIVIAL = -161.11280742612547
LAM100_DIRICHLET = (-108.52567289833944, -16.2635630662405)


def test_boundary_residual_zero_solution():
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, grid_n=501)
    traj = integrate(spec, 0.0)
    assert BoundaryKind.DIRICHLET.residual(traj.u[-1], traj.du[-1]) == 0.0
    assert BoundaryKind.NAVIER.residual(traj.u[-1], traj.du[-1]) == 0.0


def test_boundary_residual_navier_arithmetic():
    # endpoint (u, u') = (-3, -3) meets the Navier condition: the lower-function
    # candidate -6t(2 - sqrt(2t)) ends exactly there
    spec = ProblemSpec(lam=9.0, kind=BoundaryKind.NAVIER, grid_n=501)
    traj = integrate(spec, -4.742307280271374)
    r = BoundaryKind.NAVIER.residual(traj.u[-1], traj.du[-1])
    assert abs(r) < 1e-7
    traj.u[-1], traj.du[-1] = -1.0, 0.0
    assert BoundaryKind.NAVIER.residual(traj.u[-1], traj.du[-1]) == -1.0
    assert validate(traj).boundary_resid == -1.0


def test_boundary_residual_diverged_sentinel():
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, grid_n=501)
    traj = integrate(spec, -2000.0)
    assert traj.diverged
    assert validate(traj).boundary_resid == math.inf
    assert _residual_at(spec, -2000.0) == math.inf


@pytest.mark.parametrize("grid_n", [16001, 4001])
def test_roots_carry_gate_trajectory_and_report(grid_n):
    """Each root holds its trajectory on the spec's grid and its calibrated report."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, grid_n=grid_n)
    rs = find_shooting_roots(spec)
    assert len(rs.roots) == 2
    for root in rs.roots:
        assert type(root.a) is float
        traj = integrate(spec, root.a)
        assert root.traj.t.size == grid_n
        assert np.array_equal(root.traj.t, traj.t)
        assert np.array_equal(root.traj.u, traj.u)
        assert np.array_equal(root.traj.du, traj.du)
        assert root.traj.a == traj.a and not root.traj.diverged
        assert root.report == validate(integrate(replace(spec, grid_n=16001), root.a))
        assert root.report.accepted()


def test_lam0_dirichlet_roots(root_cache):
    """One trivial and one nontrivial solution at lam = 0."""
    rs = root_cache(0.0, BoundaryKind.DIRICHLET)
    slopes = rs.slopes()
    assert 0.0 in slopes
    nontrivial = rs.nontrivial()
    assert len(nontrivial) == 1
    assert nontrivial[0] == pytest.approx(LAM0_DIRICHLET_NONTRIVIAL, abs=1e-9)


def test_lam0_nontrivial_root_against_brute_force_scan(monkeypatch):
    """Independent check: a 10^4-slope residual scan brackets the same root."""
    monkeypatch.setattr(ProblemSpec, "scan_n", 10001)
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET)
    a_grid = np.linspace(spec.slope_min, spec.slope_max, 10001)
    res = _scan_residuals(spec, [spec.lam])[0]
    finite = np.isfinite(res)
    crossings = [
        (a_grid[i], a_grid[i + 1])
        for i in range(10000)
        if finite[i] and finite[i + 1] and res[i] * res[i + 1] < 0
    ]
    assert len(crossings) == 1
    lo, hi = crossings[0]
    assert lo <= LAM0_DIRICHLET_NONTRIVIAL <= hi


def test_lam100_dirichlet_two_roots(root_cache):
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    assert len(rs.roots) == 2
    assert all(r.a < 0 for r in rs.roots)
    assert rs.roots[0].a == pytest.approx(LAM100_DIRICHLET[0], abs=1e-9)
    assert rs.roots[1].a == pytest.approx(LAM100_DIRICHLET[1], abs=1e-9)


def test_lam200_dirichlet_no_roots(root_cache):
    assert root_cache(200.0, BoundaryKind.DIRICHLET).roots == []


def test_roots_sorted_and_separated(root_cache):
    for lam in (50.0, 100.0):
        rs = root_cache(lam, BoundaryKind.DIRICHLET)
        slopes = rs.slopes()
        assert slopes == sorted(slopes)
        for x, y in zip(slopes, slopes[1:]):
            assert y - x > _CLUSTER_TOL


def test_every_root_validates(root_cache):
    spec = ProblemSpec(lam=50.0, kind=BoundaryKind.DIRICHLET)
    rs = root_cache(50.0, BoundaryKind.DIRICHLET)
    for root in rs.roots:
        traj = integrate(spec, root.a)
        report = validate(traj)
        assert report.accepted(), report
        assert abs(report.boundary_resid) < BOUNDARY_TOL
        assert report.sign_violation <= SIGN_TOL


def test_reconstructed_w_sign_property(root_cache):
    """Each Dirichlet root's physical profile obeys w <= 0 with w -> 0 at 0."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    for root in root_cache(100.0, BoundaryKind.DIRICHLET).roots:
        traj = integrate(spec, root.a)
        prof = reconstruct_phi(traj)
        assert np.max(prof.w) <= SIGN_TOL
        assert abs(prof.w[0]) < 1e-4


def test_root_stability_under_scan_doubling(root_cache, monkeypatch):
    base = root_cache(100.0, BoundaryKind.DIRICHLET)
    monkeypatch.setattr(ProblemSpec, "scan_n", 4000)
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    rs = find_shooting_roots(spec)
    assert len(rs.roots) == len(base.roots)
    for a_new, a_old in zip(rs.slopes(), base.slopes()):
        assert abs(a_new - a_old) < _ROOT_TOL * 10


def _scan_residuals_masked(spec, a_grid):
    """Reference scan that freezes each dead slope at its last finite state."""
    a = np.asarray(a_grid, dtype=float)
    switch = max(_SCAN_SWITCH, 2.0 * spec.eps)
    grid = np.concatenate([
        np.geomspace(spec.eps, switch, _SCAN_GEO_N + 1)[:-1],
        np.linspace(switch, 0.5, _SCAN_UNI_N + 1),
    ])
    alive = np.ones(a.shape, dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        u, du = launch_state(a, spec.lam, spec.eps)
        for i in range(len(grid) - 1):
            t0, t1 = grid[i], grid[i + 1]
            u_new, du_new = _rk4_step(t0, t1, t1 - t0, u, du, spec.lam)
            step_ok = alive & np.isfinite(u_new) & (np.abs(u_new) <= BLOWUP)
            u = np.where(step_ok, u_new, u)
            du = np.where(step_ok, du_new, du)
            alive = step_ok
        resid = spec.kind.residual(u, du)
    return np.where(alive, resid, np.inf)


# a sweep's lams, from two roots through the fold to divergence in the
# window, scanned as one block in one call
_SWEEP_LAMS = [100.0, 0.0, 50.0, 150.0, 168.0, 200.0, 300.0, 1000.0, 5000.0]


@pytest.mark.parametrize("spec, lams", [
    (ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET), [100.0]),
    (ProblemSpec(lam=1.0, kind=BoundaryKind.NAVIER, slope_min=-1e308, slope_max=-1e307), [1.0]),
    (ProblemSpec(lam=5000.0, kind=BoundaryKind.DIRICHLET), [5000.0]),
    (ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET), _SWEEP_LAMS),
], ids=["dirichlet-100", "navier-overflow-window", "dirichlet-5000", "dirichlet-block"])
def test_scan_residuals_match_masked_reference(spec, lams):
    """Every row of a multi-lam scan is bit for bit the single-lam masked scan."""
    a_grid = np.linspace(spec.slope_min, spec.slope_max, spec.scan_n)
    rows = _scan_residuals(spec, lams)
    assert rows.shape == (len(lams), spec.scan_n)
    for lam, got in zip(lams, rows):
        want = _scan_residuals_masked(replace(spec, lam=lam), a_grid)
        assert np.array_equal(got, want), lam
        assert np.array_equal(np.signbit(got), np.signbit(want)), lam


def test_window_error_at_edge_root():
    """A window whose edge sits on a root is reported as too small."""
    spec = ProblemSpec(
        lam=0.0,
        kind=BoundaryKind.DIRICHLET,
        slope_min=LAM0_DIRICHLET_NONTRIVIAL,
        slope_max=-100.0,
    )
    with pytest.raises(WindowTooSmallError) as err:
        find_shooting_roots(spec)
    assert err.value.edge == "slope_min"

    spec = ProblemSpec(
        lam=0.0,
        kind=BoundaryKind.DIRICHLET,
        slope_min=-300.0,
        slope_max=LAM0_DIRICHLET_NONTRIVIAL,
    )
    with pytest.raises(WindowTooSmallError) as err:
        find_shooting_roots(spec)
    assert err.value.edge == "slope_max"


def test_trivial_root_at_zero_edge_is_legitimate(root_cache):
    """a = 0 tops the default window yet is a genuine root at lam = 0."""
    rs = root_cache(0.0, BoundaryKind.NAVIER)
    assert 0.0 in rs.slopes()
    assert len(rs.roots) == 2


def test_near_fold_roots_recovered_below_scan_resolution(monkeypatch):
    """Close to the fold the root pair slips between scan samples; the
    residual-extremum descent still digs both roots out."""
    monkeypatch.setattr(ProblemSpec, "scan_n", 100)
    spec = ProblemSpec(lam=168.76, kind=BoundaryKind.DIRICHLET)
    a_grid = np.linspace(spec.slope_min, spec.slope_max, spec.scan_n)
    res = _scan_residuals(spec, [spec.lam])[0]
    finite = np.isfinite(res)
    crossings = sum(
        1
        for i in range(spec.scan_n - 1)
        if finite[i] and finite[i + 1] and res[i] * res[i + 1] < 0
    )
    assert crossings == 0  # the scan alone would report no roots
    rs = find_shooting_roots(spec)
    assert len(rs.roots) == 2
    assert rs.roots[0].a == pytest.approx(-52.86091514090039, abs=1e-9)
    assert rs.roots[1].a == pytest.approx(-51.850827418593774, abs=1e-9)


def test_root_within_coarse_error_of_a_scan_node():
    """A root 1e-6 from a scan node, well inside the coarse RK4 residual's
    error there: the node's coarse sign is wrong, and the adaptive residuals
    that decide every bracket still find the root."""
    a_root = LAM100_DIRICHLET[0]
    k, n = 50, ProblemSpec.scan_n
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET,
                       slope_min=(a_root + 1e-6) * (n - 1) / (n - 1 - k))
    node = float(np.linspace(spec.slope_min, spec.slope_max, n)[k])
    assert 0.0 < node - a_root < 2e-6
    coarse = _scan_residuals(spec, [spec.lam])[0][k]
    assert coarse * _residual_at(spec, node) < 0.0
    rs = find_shooting_roots(spec)
    assert rs.slopes() == pytest.approx(list(LAM100_DIRICHLET), abs=1e-9)


def test_extremum_separates_the_branches(root_cache):
    """The dug extremum lies between a root pair; it stays out of roots.json."""
    for lam, kind in ((100.0, BoundaryKind.DIRICHLET), (5.0, BoundaryKind.NAVIER)):
        rs = root_cache(lam, kind)
        a_ext, r_ext = rs.extremum
        lower, upper = rs.slopes()
        assert lower < a_ext < upper
        assert r_ext * (1.0 if kind is BoundaryKind.DIRICHLET else -1.0) < 0.0
        assert "extremum" not in serialize.rootset_to_json(rs)


def _count_shots(monkeypatch) -> list:
    """Record the slope of every endpoint shot the shooting module takes."""
    shots = []
    real = shooting.shoot_endpoint

    def counted(spec, a):
        shots.append(a)
        return real(spec, a)

    monkeypatch.setattr(shooting, "shoot_endpoint", counted)
    return shots


@pytest.mark.parametrize("lam, kind", [
    (100.0, BoundaryKind.DIRICHLET), (5.0, BoundaryKind.NAVIER),
], ids=["dirichlet-100", "navier-5"])
def test_root_set_shot_budget(monkeypatch, lam, kind):
    """The secant starts on the scan cell itself: a two-root set costs a few
    endpoint shots per root (an 18-step bisection prelude alone would spend
    36), the edge checks and the trivial-root check included."""
    shots = _count_shots(monkeypatch)
    rs = find_shooting_roots(ProblemSpec(lam=lam, kind=kind))
    assert len(rs.roots) == 2
    assert len(shots) <= 20


@pytest.mark.parametrize("lam, kind, a, text", [
    (100.0, BoundaryKind.DIRICHLET, LAM100_DIRICHLET[1],
     "root at scan-window edge slope_min (a = -16.2635630662405); widen the window"),
    (0.0, BoundaryKind.NAVIER, 0.0,
     "root at scan-window edge slope_min (a = 0.0); widen the window"),
    (100.0, BoundaryKind.DIRICHLET, LAM100_DIRICHLET[1] + 1e-3, None),
], ids=["dirichlet-root", "navier-zero", "dirichlet-no-root"])
def test_zero_width_window_takes_few_shots(monkeypatch, lam, kind, a, text):
    """A window of one slope scans a constant residual: the edge checks run
    before any bracket, and a residual near 0 but beyond BOUNDARY_TOL gives
    no root."""
    shots = _count_shots(monkeypatch)
    spec = ProblemSpec(lam=lam, kind=kind, slope_min=a, slope_max=a)
    if text is None:
        assert 0.0 < abs(_residual_at(spec, a)) < 0.1  # near the root, yet no root
        shots.clear()
        assert find_shooting_roots(spec).roots == []
    else:
        with pytest.raises(WindowTooSmallError) as err:
            find_shooting_roots(spec)
        assert str(err.value) == text
    assert len(shots) <= 3


@pytest.mark.parametrize("edge", ["slope_min", "slope_max"])
def test_root_near_window_edge_is_rejected(edge):
    """A refined root within _CLUSTER_TOL of an edge whose own residual is
    above BOUNDARY_TOL sits on that edge: only the candidate rule raises."""
    a = LAM0_DIRICHLET_NONTRIVIAL
    lo, hi = (a - 5e-7, -100.0) if edge == "slope_min" else (-300.0, a + 5e-7)
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, slope_min=lo, slope_max=hi)
    assert abs(_residual_at(spec, getattr(spec, edge))) > 3 * BOUNDARY_TOL
    with pytest.raises(WindowTooSmallError) as err:
        find_shooting_roots(spec)
    assert err.value.edge == edge
    assert err.value.a == pytest.approx(a, abs=1e-9)


def test_root_in_bracket_matches_root_set(root_cache):
    """A sign-change bracket around one root gives that root through the same
    gate; a bracket without a sign change or outside the window gives None."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    upper = root_cache(100.0, BoundaryKind.DIRICHLET).roots[1]
    root = root_in_bracket(spec, upper.a - 1.0, upper.a + 1.0)
    assert root.a == pytest.approx(upper.a, abs=1e-8)
    assert root.report.accepted()
    assert np.array_equal(root.traj.u, integrate(spec, root.a).u)
    assert root_in_bracket(spec, upper.a + 1.0, upper.a + 2.0) is None
    narrow = replace(spec, slope_min=upper.a + 0.5)
    assert root_in_bracket(narrow, upper.a - 1.0, upper.a + 1.0) is None


def test_rootset_fields(root_cache):
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    assert rs.lam == 100.0
    assert rs.kind is BoundaryKind.DIRICHLET
    assert rs.scan_window == (-500.0, 0.0)
