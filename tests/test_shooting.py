"""Boundary residuals, root finding, scan stability, and window policing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from epibvp import continuation, integrator, serialize, shooting
from epibvp.errors import WindowTooSmallError
from epibvp.integrator import (
    BLOWUP, BOUNDARY_TOL, SIGN_TOL, integrate, launch_state, shoot, validate,
)
from epibvp.model import BoundaryKind, ProblemSpec, reconstruct_phi
from rk4_reference import _rk4_step
from epibvp.shooting import (
    _CLUSTER_TOL,
    _ROOT_TOL,
    _SCAN_GEO_N,
    _SCAN_SWITCH,
    _SCAN_UNI_N,
    _residual_at,
    _scan_residuals,
    _scan_times,
    find_shooting_roots,
)

# production root values, frozen from refined runs at default tolerances
LAM0_DIRICHLET_NONTRIVIAL = -161.11280742326542
LAM100_DIRICHLET = (-108.52567289521774, -16.26356306543258)


def test_boundary_residual_zero_solution():
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, grid_n=501)
    traj = integrate(spec, 0.0)
    assert BoundaryKind.DIRICHLET.residual(traj.u[-1], traj.du[-1]) == 0.0
    assert BoundaryKind.NAVIER.residual(traj.u[-1], traj.du[-1]) == 0.0


def test_boundary_residual_navier_arithmetic():
    # endpoint (u, u') = (-3, -3) meets the Navier condition: the lower-function
    # candidate -6t(2 - sqrt(2t)) ends exactly there
    spec = ProblemSpec(lam=9.0, kind=BoundaryKind.NAVIER, grid_n=501)
    shot = shoot(spec, -4.742307280271374)
    r = BoundaryKind.NAVIER.residual(shot.u[-1], shot.du[-1])
    assert abs(r) < 1e-7
    shot.u[-1], shot.du[-1] = -1.0, 0.0
    assert BoundaryKind.NAVIER.residual(shot.u[-1], shot.du[-1]) == -1.0
    assert validate(shot).boundary_resid == -1.0


def test_boundary_residual_diverged_sentinel():
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, grid_n=501)
    shot = shoot(spec, -2000.0)
    assert shot.diverged
    assert validate(shot).boundary_resid == math.inf
    assert _residual_at(spec, -2000.0) == math.inf


@pytest.mark.parametrize("grid_n", [16001, 4001])
def test_roots_carry_gate_trajectory_and_report(grid_n):
    """Each root holds the shot the gate validated, which samples the
    trajectory on any grid, and that shot's report."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, grid_n=grid_n)
    rs = find_shooting_roots(spec)
    assert len(rs.roots) == 2
    for root in rs.roots:
        assert type(root.a) is float
        traj = integrate(spec, root.a)
        sampled = root.shot.trajectory(grid_n)
        assert sampled.t.size == grid_n
        assert np.array_equal(sampled.t, traj.t)
        assert np.array_equal(sampled.u, traj.u)
        assert np.array_equal(sampled.du, traj.du)
        assert sampled.a == traj.a and not sampled.diverged
        assert root.report == validate(shoot(spec, root.a))
        assert root.report.accepted()


def test_lam0_dirichlet_roots(root_cache):
    """One trivial and one nontrivial solution at lam = 0."""
    rs = root_cache(0.0, BoundaryKind.DIRICHLET)
    slopes = rs.slopes()
    assert 0.0 in slopes
    nontrivial = rs.nontrivial()
    assert len(nontrivial) == 1
    assert nontrivial[0] == pytest.approx(LAM0_DIRICHLET_NONTRIVIAL, abs=1e-9)


def test_lam0_nontrivial_root_against_brute_force_scan():
    """Independent check: a 10^4-slope RK4 scan brackets the same root, on a
    time grid of its own, not the production scan's: 50 geometric steps out
    of eps to 5e-3 and 300 uniform ones after."""
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET)
    a_grid = np.linspace(spec.slope_min, spec.slope_max, 10001)
    times = np.concatenate([np.geomspace(spec.eps, 5e-3, 51)[:-1], np.linspace(5e-3, 0.5, 301)])
    lam = np.zeros(a_grid.size)
    with np.errstate(invalid="ignore", over="ignore"):
        u, du, peak = integrator._rk4_scan(
            times.tolist(), *launch_state(a_grid, lam, spec.eps), lam / 2.0)
        res = np.where(peak <= BLOWUP, spec.kind.residual(u, du), np.inf)
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
        report = validate(shoot(spec, root.a))
        assert report.accepted(), report
        assert abs(report.boundary_resid) < BOUNDARY_TOL
        assert report.sign_violation <= SIGN_TOL


def test_reconstructed_w_sign_property(root_cache):
    """Each Dirichlet root's physical profile obeys w <= 0 with w -> 0 at 0."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    for root in root_cache(100.0, BoundaryKind.DIRICHLET).roots:
        prof = reconstruct_phi(integrate(spec, root.a), root.report)
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
    grid = _scan_times(spec.eps)
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


@pytest.mark.parametrize("eps", [
    1e-8, 1e-6, 1e-3, 2.5e-3, 5e-3, 0.1, 0.2499, 0.25, 0.26, 0.3, 0.4, 0.49,
])
def test_scan_times_rise_to_one_half(eps):
    """The scan's RK4 nodes rise from eps to exactly 1/2 with no zero-length
    step; from eps = 1/4 on, the switch 2 eps would lie past 1/2, and the
    grid is geometric alone."""
    times = _scan_times(eps)
    assert times[0] == eps and times[-1] == 0.5
    assert np.all(np.diff(times) > 0.0)
    steps = _SCAN_GEO_N + (_SCAN_UNI_N if max(_SCAN_SWITCH, 2.0 * eps) < 0.5 else 0)
    assert times.size == steps + 1


_FOLD_LAMS = {
    BoundaryKind.DIRICHLET: (168.769431276654, 168.7),
    BoundaryKind.NAVIER: (11.340809421457, 11.34),
}


@pytest.mark.parametrize("kind", list(_FOLD_LAMS), ids=lambda k: k.value)
def test_scan_picks_the_cells_adaptive_residuals_pick(kind):
    """The coarse scan only picks cells: on the scan row, the extremum cells
    and each side's first positive cell are those that adaptive residuals at
    the same slopes give, from lam = 0 up to just below the fold."""
    fold, near = _FOLD_LAMS[kind]
    lams = [*np.linspace(0.0, 0.9 * fold, 10).tolist(), 0.99 * fold, near]
    spec = ProblemSpec(lam=0.0, kind=kind)
    s = shooting._DIP_SIGN[kind]
    for lam, row in zip(lams, _scan_residuals(spec, lams)):
        at = replace(spec, lam=lam)
        exact = [_residual_at(at, a) for a in shooting._scan_grid(at).tolist()]
        picks = []
        for resid in (row.tolist(), exact):
            g = [s * r if math.isfinite(r) else math.inf for r in resid]
            cells = shooting._extremum_cells(at, g)
            j = cells[1]
            left = next((i for i in range(j, -1, -1) if g[i] > 0.0), None)
            right = next((i for i in range(j, len(g)) if g[i] > 0.0), None)
            picks.append((cells, left, right))
        assert picks[0] == picks[1], lam


# a sweep's lams, from two roots through the fold to divergence in the
# window, scanned as one block in one call
_SWEEP_LAMS = [100.0, 0.0, 50.0, 150.0, 168.0, 200.0, 300.0, 1000.0, 5000.0]
# the same for Navier, on to partly (4000) and wholly (1e4) diverged rows
_NAVIER_LAMS = [5.0, 0.0, 11.0, 11.340809421307341, 11.5, 20.0, 100.0, 4000.0, 1e4]


@pytest.mark.parametrize("spec, lams", [
    (ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET), [100.0]),
    (ProblemSpec(lam=1.0, kind=BoundaryKind.NAVIER, slope_min=-1e308, slope_max=-1e307), [1.0]),
    (ProblemSpec(lam=5000.0, kind=BoundaryKind.DIRICHLET), [5000.0]),
    (ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET), _SWEEP_LAMS),
    (ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, eps=0.3), [100.0]),
    (ProblemSpec(lam=0.0, kind=BoundaryKind.NAVIER), _NAVIER_LAMS),
], ids=["dirichlet-100", "navier-overflow-window", "dirichlet-5000", "dirichlet-block",
        "dirichlet-eps-0.3-geometric", "navier-block"])
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
    assert rs.roots[0].a == pytest.approx(-52.86091520902445, abs=1e-9)
    assert rs.roots[1].a == pytest.approx(-51.85082734721711, abs=1e-9)


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


@pytest.mark.parametrize("lam, kind, count", [
    (100.0, BoundaryKind.DIRICHLET, 12), (5.0, BoundaryKind.NAVIER, 14),
    (0.5, BoundaryKind.NAVIER, 14),
], ids=["dirichlet-100", "navier-5", "navier-0.5"])
def test_root_set_shot_budget(monkeypatch, lam, kind, count):
    """Endpoint shots of a two-root set, pinned: the two edge checks, the
    dig, and for each root a secant on [dug point, window edge] that starts
    at the root of the scan's cubic, steps along the cubic's slope, and
    closes its bracket with one _ROOT_TOL / 2 step.  At Navier 0.5 the upper
    root, -0.19, lies in the scan cell that touches a = 0."""
    shots = _count_shots(monkeypatch)
    rs = find_shooting_roots(ProblemSpec(lam=lam, kind=kind))
    assert len(rs.roots) == 2
    assert len(shots) == count


def _fields(shot) -> dict:
    """Every field of a shot as exact bytes or repr."""
    return {f: v.tobytes() + repr(v.shape).encode() if isinstance(v, np.ndarray) else repr(v)
            for f, v in vars(shot).items()}


def test_root_set_endpoint_shoots_each_slope_once_and_gates_fresh_shots(monkeypatch):
    """Within a root set no slope is endpoint-shot twice, and ``shoot`` is
    called once per gated candidate, at its slope, from the gate alone: each
    root carries a fresh shot at its slope, field by field, at Dirichlet
    100, Navier 9 and on each lam of a Navier sweep."""
    endpoint, shots, gated = [], [], []
    real_endpoint, real_shoot, real_gate = (
        shooting.shoot_endpoint, shooting.shoot, shooting._gated_root)

    def counted_endpoint(spec, a):
        endpoint.append((spec.kind, spec.lam, a))
        return real_endpoint(spec, a)

    def counted_shoot(spec, a):
        shots.append((spec.kind, spec.lam, a))
        return real_shoot(spec, a)

    def gate(spec, a, rejected):
        before = len(shots)
        root = real_gate(spec, a, rejected)
        assert shots[before:] == [(spec.kind, spec.lam, a)]
        gated.append((spec, a, root))
        return root

    monkeypatch.setattr(shooting, "shoot_endpoint", counted_endpoint)
    monkeypatch.setattr(shooting, "shoot", counted_shoot)
    monkeypatch.setattr(shooting, "_gated_root", gate)
    roots = [find_shooting_roots(ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)).roots,
             find_shooting_roots(ProblemSpec(lam=9.0, kind=BoundaryKind.NAVIER)).roots]
    points = continuation.sweep(BoundaryKind.NAVIER, [0.0, 5.0, 11.2])
    assert [len(r) for r in roots] == [2, 2] and len(points) == 6
    # each root set has its own (kind, lam), so no slope is shot twice within one
    assert len(set(endpoint)) == len(endpoint)
    assert len(shots) == len(gated)
    assert {(spec.kind, spec.lam, a) for spec, a, _ in gated} <= set(endpoint)
    found = [root for _, _, root in gated if root is not None]
    assert found[:4] == roots[0] + roots[1]
    assert [(root.shot.lam, root.a) for root in found[4:]] == [(p.lam, p.a) for p in points]
    for spec, a, root in gated:
        if root is not None:
            assert root.a == a
            assert _fields(root.shot) == _fields(real_shoot(spec, a)), (spec.lam, a)


def _root_brackets(spec: ProblemSpec, slopes) -> None:
    """Each nontrivial slope meets the boundary condition to BOUNDARY_TOL / 2
    and lies inside a DOP853 sign change _ROOT_TOL wide."""
    for a in (a for a in slopes if a != 0.0):
        assert abs(_residual_at(spec, a)) <= 0.5 * BOUNDARY_TOL, (spec.lam, a)
        below, above = (_residual_at(spec, a + d) for d in (-_ROOT_TOL, _ROOT_TOL))
        assert below * above < 0.0, (spec.lam, a)


def test_every_root_closes_its_bracket():
    """The refinement stops on a closed bracket, at Dirichlet 100, Navier 9
    and on each lam of a Navier sweep, whatever root its secant ends on."""
    for lam, kind in ((100.0, BoundaryKind.DIRICHLET), (9.0, BoundaryKind.NAVIER)):
        spec = ProblemSpec(lam=lam, kind=kind)
        _root_brackets(spec, find_shooting_roots(spec).slopes())
    points = continuation.sweep(BoundaryKind.NAVIER, [0.0, 5.0, 11.2])
    assert len(points) == 6
    for lam in (0.0, 5.0, 11.2):
        spec = ProblemSpec(lam=lam, kind=BoundaryKind.NAVIER)
        _root_brackets(spec, [p.a for p in points if p.lam == lam])


@pytest.mark.parametrize("lam, kind, slope_min", [
    (9.0, BoundaryKind.NAVIER, -3000.0), (100.0, BoundaryKind.DIRICHLET, -2000.0),
], ids=["navier-9", "dirichlet-100"])
def test_diverged_window_edge_keeps_both_roots(lam, kind, slope_min):
    """An edge shot that diverges counts as the tail side of the extremum:
    its side's bracket still runs from the dug point to that edge, and both
    roots come out as in the default window."""
    wide = ProblemSpec(lam=lam, kind=kind, slope_min=slope_min)
    assert _residual_at(wide, slope_min) == math.inf
    want = find_shooting_roots(ProblemSpec(lam=lam, kind=kind)).slopes()
    got = find_shooting_roots(wide).slopes()
    assert len(got) == 2
    assert got == pytest.approx(want, abs=1e-10)


# lams about d above the default folds, where the dug minimum of s R is
# designed to be about 4e-8, and the dig's shot budget there; a dig down to
# a _ROOT_TOL bracket takes 28 and 29 shots.  The lams are the upper ends
# that fold.json printed while shoot_event placed t* by Newton, 3.4e-13 below
# and 2.8e-14 above those it prints now
_CERT_HI = {
    BoundaryKind.DIRICHLET: (168.7694322082279, 14),
    BoundaryKind.NAVIER: (11.340809689074929, 22),
}


@pytest.mark.parametrize("kind", list(_CERT_HI), ids=lambda k: k.value)
def test_dig_stops_at_brents_tolerance(monkeypatch, kind):
    """Above the fold the dig narrows the minimum to sqrt(eps_mach) |a|, not
    to _ROOT_TOL: its value moves by far less than BOUNDARY_TOL, stays above
    it, and the dig takes about half the shots."""
    lam, budget = _CERT_HI[kind]
    spec = ProblemSpec(lam=lam, kind=kind)
    with monkeypatch.context() as m:
        m.setattr(shooting, "_DIG_RTOL", 0.0)
        tight = find_shooting_roots(spec).extremum[1]
    shots = _count_shots(monkeypatch)
    dig_shots = []
    real_dig = shooting._dig

    def counted_dig(*args):
        start = len(shots)
        out = real_dig(*args)
        dig_shots.append(len(shots) - start)
        return out

    monkeypatch.setattr(shooting, "_dig", counted_dig)
    rs = find_shooting_roots(spec)
    assert rs.roots == []
    assert abs(rs.extremum[1] - tight) <= 1e-13
    assert shooting._DIP_SIGN[kind] * rs.extremum[1] > BOUNDARY_TOL
    assert len(dig_shots) == 1 and dig_shots[0] <= budget


# the lam0 and a* that the default folds print and, at lam0 (1 + r), the root
# counts that a dig down to _ROOT_TOL gives: a root pair below the fold, one
# tangency root just above it, none further up
_NEAR_FOLD = {
    BoundaryKind.DIRICHLET: (168.76943127663534, -52.35461061910923,
                             [2, 2, 2, 2, 2, 1, 1, 1, 0, 0, 0, 0]),
    BoundaryKind.NAVIER: (11.340809421455837, -8.872504442974822,
                          [2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0]),
}
_NEAR_FOLD_R = [-1e-3, -1e-6, -1e-9, -1e-12, -1e-13, 1e-12, 1e-10, 1e-9, 2e-9, 5e-9, 1e-8, 1e-5]


@pytest.mark.parametrize("kind", list(_NEAR_FOLD), ids=lambda k: k.value)
def test_near_fold_root_counts(monkeypatch, kind):
    """The dig's coarser stop changes no root count around the fold; a root
    set there, where the scan's cubic guesses poorly, stays within 64
    endpoint shots, and each pair below the fold straddles the fold's a*."""
    lam0, a_star, counts = _NEAR_FOLD[kind]
    spec = ProblemSpec(lam=lam0, kind=kind)
    shots = _count_shots(monkeypatch)
    got = []
    for r in _NEAR_FOLD_R:
        shots.clear()
        roots = find_shooting_roots(replace(spec, lam=lam0 * (1.0 + r))).slopes()
        got.append(len(roots))
        assert len(shots) <= 64, r
        if r < 0.0:
            assert roots[0] < a_star < roots[1], r
    assert got == counts


def test_root_at_the_fold_is_listed_once():
    """At a lam0 that a default fold printed, the residual's minimum lies
    within _NOISE_FLOOR of zero, below it for Dirichlet: the double root is
    the dug point, one root, not a pair of roots inside R's noise."""
    # the lam0 printed while shoot_event placed t* by Newton; at the lam0
    # printed now the Dirichlet minimum is +3.9e-15
    for kind, lam, dug in [
        (BoundaryKind.NAVIER, 11.34080942145586, -8.872504312348994),
        (BoundaryKind.DIRICHLET, 168.769431276635, -52.35460993095646),
    ]:
        rs = find_shooting_roots(ProblemSpec(lam=lam, kind=kind))
        assert rs.slopes() == [dug], kind
        assert rs.extremum[0] == dug, kind
        assert abs(rs.extremum[1]) <= shooting._NOISE_FLOOR, kind
    assert rs.extremum[1] < 0.0


@pytest.mark.parametrize("lam, kind, a, text", [
    (100.0, BoundaryKind.DIRICHLET, LAM100_DIRICHLET[1],
     "root at scan-window edge slope_min (a = -16.26356306543258); widen the window"),
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


def test_rootset_fields(root_cache):
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    assert rs.lam == 100.0
    assert rs.kind is BoundaryKind.DIRICHLET
    assert rs.scan_window == (-500.0, 0.0)
    assert rs.rejected == []


def test_rootset_keeps_the_candidates_the_gate_rejects(root_cache, monkeypatch):
    """A candidate whose report fails is listed in ``rejected`` with that
    report, and the other root is kept as before."""
    lower, upper = root_cache(100.0, BoundaryKind.DIRICHLET).roots
    real = shooting.validate

    def reject_upper(shot):
        report = real(shot)
        return replace(report, first_integral_resid=math.inf) if shot.a == upper.a else report

    monkeypatch.setattr(shooting, "validate", reject_upper)
    rs = find_shooting_roots(ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET))
    assert rs.slopes() == [lower.a]
    assert rs.roots[0].report == lower.report
    [(a, report)] = rs.rejected
    assert a == upper.a
    assert report == replace(upper.report, first_integral_resid=math.inf)
    assert not report.accepted()


@pytest.mark.parametrize("grid_n, diverged", [
    (16001, False), (101, False), (101, True),
], ids=["calibrated", "coarse", "diverged"])
def test_gate_shoots_each_candidate_once_and_reads_no_grid(monkeypatch, grid_n, diverged):
    """The gate records one shot per candidate and integrates no output
    grid, so its report at the calibrated or a coarse spec.grid_n equals the
    report of a shot made on a two-point grid; a diverged shot is rejected
    with infinite residuals."""
    a = -2000.0 if diverged else LAM100_DIRICHLET[1]
    shots = []
    real = shooting.shoot
    monkeypatch.setattr(shooting, "shoot", lambda spec, a: shots.append(a) or real(spec, a))
    rejected = []
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, grid_n=grid_n)
    root = shooting._gated_root(spec, a, rejected)
    assert shots == [a]
    assert (root is None) is diverged
    report = rejected[0][1] if diverged else root.report
    assert report == validate(real(replace(spec, grid_n=2), a))
    assert report.accepted() is not diverged
    assert math.isinf(report.first_integral_resid) is diverged
