"""Boundary residuals, root finding, scan stability, and window policing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from epibvp.errors import WindowTooSmallError
from epibvp.integrator import BOUNDARY_TOL, SIGN_TOL, integrate, validate
from epibvp.model import BoundaryKind, ProblemSpec, reconstruct_phi
from epibvp.shooting import (
    _CLUSTER_TOL,
    _ROOT_TOL,
    _residual_at,
    _scan_residuals,
    find_shooting_roots,
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
        traj = integrate(spec, root.a)
        assert root.traj.t.size == grid_n
        assert np.array_equal(root.traj.t, traj.t)
        assert np.array_equal(root.traj.u, traj.u)
        assert np.array_equal(root.traj.du, traj.du)
        assert root.traj.launch == traj.launch and not root.traj.diverged
        assert root.report == validate(integrate(replace(spec, grid_n=16001), root.a))
        assert root.report.accepted()


def test_lam0_dirichlet_roots(root_cache):
    """One trivial and one nontrivial solution at lam = 0."""
    rs = root_cache(0.0, BoundaryKind.DIRICHLET)
    slopes = rs.slopes()
    assert 0.0 in slopes
    nontrivial = rs.nontrivial()
    assert len(nontrivial) == 1
    assert nontrivial[0] == pytest.approx(LAM0_DIRICHLET_NONTRIVIAL, abs=1e-6)


def test_lam0_nontrivial_root_against_brute_force_scan():
    """Independent check: a 10^4-slope residual scan brackets the same root."""
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, scan_n=10001)
    a_grid = np.linspace(spec.slope_min, spec.slope_max, 10001)
    res = _scan_residuals(spec, a_grid)
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
    assert rs.roots[0].a == pytest.approx(LAM100_DIRICHLET[0], abs=1e-6)
    assert rs.roots[1].a == pytest.approx(LAM100_DIRICHLET[1], abs=1e-6)


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


def test_root_stability_under_scan_doubling(root_cache):
    base = root_cache(100.0, BoundaryKind.DIRICHLET)
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, scan_n=4000)
    rs = find_shooting_roots(spec)
    assert len(rs.roots) == len(base.roots)
    for a_new, a_old in zip(rs.slopes(), base.slopes()):
        assert abs(a_new - a_old) < _ROOT_TOL * 10


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


def test_near_fold_roots_recovered_below_scan_resolution():
    """Close to the fold the root pair slips between scan samples; the
    residual-extremum descent still digs both roots out."""
    spec = ProblemSpec(lam=168.76, kind=BoundaryKind.DIRICHLET, scan_n=100)
    a_grid = np.linspace(spec.slope_min, spec.slope_max, spec.scan_n)
    res = _scan_residuals(spec, a_grid)
    finite = np.isfinite(res)
    crossings = sum(
        1
        for i in range(spec.scan_n - 1)
        if finite[i] and finite[i + 1] and res[i] * res[i + 1] < 0
    )
    assert crossings == 0  # the scan alone would report no roots
    rs = find_shooting_roots(spec)
    assert len(rs.roots) == 2
    assert rs.roots[0].a == pytest.approx(-52.86091514, abs=1e-6)
    assert rs.roots[1].a == pytest.approx(-51.85082742, abs=1e-6)


def test_rootset_fields(root_cache):
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    assert rs.lam == 100.0
    assert rs.kind is BoundaryKind.DIRICHLET
    assert rs.scan_window == (-500.0, 0.0)
