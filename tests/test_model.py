"""Domain types, the spec preconditions, and profile reconstruction."""

import numpy as np
import pytest

from epibvp.errors import DomainError, UnvalidatedTrajectoryError
from epibvp.integrator import (
    BOUNDARY_TOL, SIGN_TOL, _beta, integrate, launch_state, shoot, validate,
)
from epibvp.model import BoundaryKind, ProblemSpec, Trajectory, reconstruct_phi
from epibvp.shooting import find_shooting_roots
from lower_function_reference import alpha_dirichlet_dd


def test_rhs_lower_function_touch():
    # at lam = 144 the Dirichlet lower-function slack vanishes at t = 1/8:
    # the candidate's second derivative equals u^2/(8t^2) + lam/2 along it there
    t, u, lam = 0.125, -3.0, 144.0
    assert u * u / (8.0 * t * t) + lam / 2.0 == pytest.approx(144.0, rel=1e-15)
    assert alpha_dirichlet_dd(0.125) == pytest.approx(144.0, rel=1e-15)


def test_series_launch_beta():
    assert _beta(-48.0, 144.0) == 144.0 + 36.0
    assert _beta(-1.0, 0.0) == 1.0 / 16.0
    assert launch_state(-1.0, 0.0, 0.25) == (-0.25 + 0.25 ** 2 / 16.0, -1.0 + 0.5 / 16.0)


def test_problem_spec_validation():
    with pytest.raises(DomainError):
        ProblemSpec(lam=-1.0, kind=BoundaryKind.DIRICHLET)
    with pytest.raises(DomainError):
        ProblemSpec(lam=1.0, kind=BoundaryKind.DIRICHLET, eps=0.5)
    with pytest.raises(DomainError):
        ProblemSpec(lam=1.0, kind=BoundaryKind.DIRICHLET, slope_min=0.0, slope_max=-1.0)
    with pytest.raises(DomainError):
        ProblemSpec(lam=1.0, kind=BoundaryKind.DIRICHLET, slope_max=1.0)
    with pytest.raises(DomainError):
        ProblemSpec(lam=1.0, kind=BoundaryKind.NAVIER, slope_min=-np.inf)
    # eps^2 must be a normal float: below it 8 t^2 and 4 t^2 lose their digits
    for eps in (1e-300, 5.6e-163, 1e-161, 1.49e-154):
        with pytest.raises(DomainError, match="eps"):
            ProblemSpec(lam=1.0, kind=BoundaryKind.DIRICHLET, eps=eps)
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, eps=1.5e-154)
    assert len(find_shooting_roots(spec).nontrivial()) == 2


def test_grid_n_must_size_a_float64_array():
    """grid_n runs from 2 up to the float64 count numpy can size; the spec
    allocates nothing, so its bounds are checked without memory."""
    big = np.iinfo(np.intp).max // 8
    for grid_n in (1, big + 1, 2 ** 63 - 1):
        with pytest.raises(DomainError, match="grid_n"):
            ProblemSpec(lam=1.0, kind=BoundaryKind.DIRICHLET, grid_n=grid_n)
    for grid_n in (2, big):
        assert ProblemSpec(lam=1.0, kind=BoundaryKind.DIRICHLET, grid_n=grid_n).grid_n == grid_n


def test_trajectory_requires_increasing_t():
    with pytest.raises(DomainError):
        Trajectory(
            lam=0.0,
            kind=BoundaryKind.DIRICHLET,
            t=np.array([0.1, 0.1, 0.3]),
            u=np.zeros(3),
            du=np.zeros(3),
            a=0.0,
        )


def test_trajectory_requires_identical_shapes():
    with pytest.raises(DomainError, match="identical shapes"):
        Trajectory(lam=0.0, kind=BoundaryKind.DIRICHLET, t=np.array([0.1, 0.5]),
                   u=np.zeros(2), du=np.zeros(3), a=0.0)


def test_reconstruct_zero_solution():
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, grid_n=2001)
    traj = integrate(spec, 0.0)
    prof = reconstruct_phi(traj, validate(shoot(spec, 0.0)))
    assert np.all(prof.w == 0.0)
    assert np.all(prof.phi == 0.0)
    assert prof.r[-1] == 1.0


def test_reconstruct_anchor_and_sign(dirichlet_spec, root_cache):
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    traj = integrate(dirichlet_spec, rs.roots[0].a)
    prof = reconstruct_phi(traj, validate(shoot(dirichlet_spec, rs.roots[0].a)))
    assert prof.phi[-1] == 0.0  # anchored at r = 1 by construction
    assert np.max(prof.w) <= SIGN_TOL
    assert np.min(prof.phi) >= 0.0  # w <= 0 forces phi >= 0
    # Dirichlet input: w(1) vanishes within the boundary tolerance
    assert abs(prof.w[-1]) < BOUNDARY_TOL


def test_reconstruct_takes_w_as_u(dirichlet_spec, root_cache):
    """w(r) = u(r^2/2) is u itself, bit for bit, with no copy: the one-pass
    CSV writer formats u once for both files."""
    root = root_cache(100.0, BoundaryKind.DIRICHLET).roots[0]
    traj = integrate(dirichlet_spec, root.a)
    prof = reconstruct_phi(traj, root.report)
    assert prof.w is traj.u
    assert np.array_equal(prof.w.view(np.uint64), traj.u.view(np.uint64))


def test_reconstruct_derivative_identity(dirichlet_spec, root_cache):
    """Finite-difference phi' at interior r matches w/r within quadrature error.

    The r-grid is the square-root image of the uniform t-grid, so the
    derivative uses the second-order three-point formula for nonuniform
    spacing.
    """
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    for root in rs.roots:
        traj = integrate(dirichlet_spec, root.a)
        prof = reconstruct_phi(traj, validate(shoot(dirichlet_spec, root.a)))
        r, w, phi = prof.r, prof.w, prof.phi
        h1 = r[1:-1] - r[:-2]
        h2 = r[2:] - r[1:-1]
        dphi = (
            h1 ** 2 * phi[2:] - h2 ** 2 * phi[:-2] + (h2 ** 2 - h1 ** 2) * phi[1:-1]
        ) / (h1 * h2 * (h1 + h2))
        target = w[1:-1] / r[1:-1]
        assert np.max(np.abs(dphi - target)) < 1e-4


def test_reconstruct_refuses_diverged():
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, grid_n=2001)
    traj = integrate(spec, -2000.0)
    assert traj.diverged
    with pytest.raises(UnvalidatedTrajectoryError):
        reconstruct_phi(traj, validate(shoot(spec, -2000.0)))


def test_reconstruct_refuses_non_root():
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, grid_n=2001)
    traj = integrate(spec, -5.0)  # not a boundary root
    with pytest.raises(UnvalidatedTrajectoryError):
        reconstruct_phi(traj, validate(shoot(spec, -5.0)))


def test_reconstruct_accepts_precomputed_report(dirichlet_spec, root_cache):
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    traj = integrate(dirichlet_spec, rs.roots[1].a)
    report = validate(shoot(dirichlet_spec, rs.roots[1].a))
    prof = reconstruct_phi(traj, report)
    assert prof.r.shape == traj.t.shape
