"""Series launch, adaptive integration, RK4 cross-check, and the validators."""

import dataclasses
import math

import numpy as np
import pytest

from epibvp import integrator
from epibvp.errors import IntegrationError
from epibvp.integrator import (
    BOUNDARY_TOL,
    FI_TOL,
    REP_TOL,
    SIGN_TOL,
    ValidationReport,
    _beta,
    first_integral_residual,
    integrate,
    integrate_rk4,
    launch_state,
    representation_residual,
    shoot_endpoint,
    shoot_variational,
    validate,
)
from epibvp.model import BoundaryKind, ProblemSpec


def test_launch_zero():
    assert launch_state(0.0, 0.0, 1e-6) == (0.0, 0.0)


def test_launch_values():
    eps = 1e-4
    u0, du0 = launch_state(-48.0, 144.0, eps)
    beta = 180.0
    assert u0 == pytest.approx(-48.0 * eps + beta * eps * eps, rel=1e-15)
    assert du0 == pytest.approx(-48.0 + 2.0 * beta * eps, rel=1e-15)
    u0, du0 = launch_state(-1.0, 0.0, eps)
    assert u0 == pytest.approx(-eps + eps * eps / 16.0, rel=1e-15)


def test_launch_series_defect_is_first_order():
    """Substituting the two-term series into the equation leaves an O(eps) defect."""
    a, lam = -48.0, 144.0
    beta = a * a / 16.0 + lam / 4.0
    defects = []
    for eps in (1e-3, 1e-4, 1e-5):
        u0, _ = launch_state(a, lam, eps)
        defects.append(abs(2.0 * beta - (u0 * u0 / (8.0 * eps * eps) + lam / 2.0)))
    # one decade in eps -> one decade in the defect
    assert defects[0] / defects[1] == pytest.approx(10.0, rel=0.05)
    assert defects[1] / defects[2] == pytest.approx(10.0, rel=0.05)


def test_zero_solution_exact():
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, grid_n=1001)
    traj = integrate(spec, 0.0)
    assert np.all(traj.u == 0.0)
    assert np.all(traj.du == 0.0)
    report = validate(traj)
    assert report.boundary_resid == 0.0
    assert report.first_integral_resid == 0.0


def test_grid_shape_and_endpoint():
    spec = ProblemSpec(lam=7.0, kind=BoundaryKind.DIRICHLET, grid_n=513)
    traj = integrate(spec, -3.0)
    assert traj.t.shape == (513,)
    assert traj.t[0] == spec.eps
    assert traj.t[-1] == 0.5
    assert not traj.diverged


def test_cross_check_against_rk4_reference():
    """Adaptive pair and fixed-step RK4 agree on the lam=144 candidate shot.

    Launching with the lower-function slope a = -48 produces a trajectory
    that stays nonpositive all the way to t = 1/2 (ending near -1.04); the
    two independent integrators must agree at the endpoint.
    """
    spec = ProblemSpec(lam=144.0, kind=BoundaryKind.DIRICHLET, grid_n=2001)
    ref = integrate_rk4(spec, -48.0, 10 ** 6)
    tr = integrate(spec, -48.0)
    assert abs(ref.u[-1] - tr.u[-1]) < 1e-8
    assert tr.u[-1] == pytest.approx(-1.040907387, abs=1e-6)
    assert np.max(tr.u) <= 0.0


def test_divergence_flag_and_truncation():
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, grid_n=2001)
    traj = integrate(spec, -2000.0)
    assert traj.diverged
    assert traj.t[-1] < 0.5
    assert np.abs(traj.u[-1]) > 1e5  # ended on its way past the blow-up bound
    report = validate(traj)
    assert math.isinf(report.boundary_resid)


def test_shoot_endpoint_matches_dense_output(root_cache):
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    for root in rs.roots:
        u, du, diverged = shoot_endpoint(spec, root.a)
        traj = integrate(spec, root.a)
        assert not diverged
        assert u == traj.u[-1]
        assert du == traj.du[-1]


@pytest.mark.parametrize("kind, lam, a", [
    (BoundaryKind.DIRICHLET, 100.0, -16.0),
    (BoundaryKind.DIRICHLET, 168.7694, -52.35),
    (BoundaryKind.NAVIER, 5.0, -3.0),
    (BoundaryKind.NAVIER, 11.34, -10.0),
], ids=["dirichlet-100", "dirichlet-near-fold", "navier-5", "navier-near-fold"])
def test_variational_derivatives_match_differences(kind, lam, a):
    """R equals shoot_endpoint's residual exactly; R_a and R_lam match central
    differences of shoot_endpoint; R_aa and R_alam match central differences
    of the variational R_a."""

    def resid(lam, a):
        u, du, diverged = shoot_endpoint(ProblemSpec(lam=lam, kind=kind), a)
        assert not diverged
        return kind.residual(u, du)

    def r_a_at(lam, a):
        return shoot_variational(ProblemSpec(lam=lam, kind=kind), a)[1]

    h = 1e-4
    spec = ProblemSpec(lam=lam, kind=kind)
    r, r_a, r_lam, r_aa, r_alam = shoot_variational(spec, a)
    close = dict(rel=1e-6, abs=1e-10)
    # the variational shot rides on the endpoint shot's steps: R is bit for bit
    assert r == kind.residual(*shoot_endpoint(spec, a)[:2])
    assert r_a == pytest.approx((resid(lam, a + h) - resid(lam, a - h)) / (2 * h), **close)
    assert r_lam == pytest.approx((resid(lam + h, a) - resid(lam - h, a)) / (2 * h), **close)
    assert r_aa == pytest.approx((r_a_at(lam, a + h) - r_a_at(lam, a - h)) / (2 * h), **close)
    assert r_alam == pytest.approx((r_a_at(lam + h, a) - r_a_at(lam - h, a)) / (2 * h), **close)


def test_variational_shot_refuses_divergence():
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    with pytest.raises(IntegrationError):
        shoot_variational(spec, -2000.0)


def _dp45_loop(spec, a, on_step=None):
    """Reference stepper: the Dormand-Prince pair as tableau loops, each stage
    and error sum accumulated from 0.0 in tableau order, every stage checked
    for finiteness."""
    lam = spec.lam
    tol = spec.step_tol
    u, du = launch_state(a, lam, spec.eps)
    t = spec.eps
    h = min(1e-4, 0.5 - t)
    k0 = (du, u * u / (8.0 * t * t) + lam / 2.0)
    while True:
        final = h >= 0.5 - t
        if final:
            h = 0.5 - t
        k = [k0]
        for s in range(6):
            au = 0.0
            av = 0.0
            for j, aij in enumerate(integrator._DP_A[s]):
                au += aij * k[j][0]
                av += aij * k[j][1]
            ts = t + integrator._DP_C[s] * h
            uu = u + h * au
            vv = du + h * av
            if not (math.isfinite(uu) and math.isfinite(vv)):
                return u, du, True
            k.append((vv, uu * uu / (8.0 * ts * ts) + lam / 2.0))
        err_u = 0.0
        err_v = 0.0
        for e, (ku, kv) in zip(integrator._DP_E, k):
            err_u += e * ku
            err_v += e * kv
        err = max(
            abs(h * err_u) / (tol * (1.0 + abs(u))),
            abs(h * err_v) / (tol * (1.0 + abs(du))),
        )
        if not math.isfinite(err):
            err = 1e16
        if err <= 1.0:
            if on_step is not None:
                on_step(t, h, u, du, tuple(k))
            t += h
            u, du = uu, vv
            k0 = k[6]
            if abs(u) > integrator.BLOWUP:
                return u, du, True
            if final:
                return u, du, False
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < integrator._MIN_STEP:
            raise IntegrationError(f"step size underflow at t={t!r} (a={a!r}, lam={lam!r})")


def _end(call):
    """The exact repr of a shot's end state, or its error message."""
    try:
        return repr(call())
    except IntegrationError as exc:
        return str(exc)


def _shot_record(stepper, spec, a):
    """The end of a shot and the bytes of every accepted step's (t, h, u, u')
    and stages."""
    steps = []

    def record(t, h, u, du, k):
        steps.append((t, h, u, du, *(x for stage in k for x in stage)))

    return _end(lambda: stepper(spec, a, record)), np.array(steps).tobytes()


_SHOT_CASES = [
    (kind, lam, eps, a)
    for kind in BoundaryKind
    for lam in (0.0, 1.0, 9.0, 100.0, 168.7694, 5000.0)
    for eps in (1e-8, 1e-3, 1.5e-154)
    for a in (-1e154, -1e30, -1e6, -2000.0, -52.35, -16.2635630662405, -4.742307280271374, 0.0, 3.0)
]


def test_unrolled_stepper_matches_tableau_loops():
    """The unrolled _dp45 reproduces the loop stepper bit for bit: end
    states, divergence flags, every accepted step with its stages, and the
    step-underflow message."""
    outcomes = set()
    for kind, lam, eps, a in _SHOT_CASES:
        spec = ProblemSpec(lam=lam, kind=kind, eps=eps)
        want = _shot_record(_dp45_loop, spec, a)
        assert _shot_record(integrator._dp45, spec, a) == want, (kind, lam, eps, a)
        assert _end(lambda: shoot_endpoint(spec, a)) == want[0]
        if want[0].startswith("step size underflow"):
            outcomes.add("underflow")
        else:
            outcomes.add("diverged" if want[0].endswith("True)") else "landed")
    # diverged covers both a blow-up and a non-finite stage
    assert outcomes == {"landed", "diverged", "underflow"}


def test_variational_residual_is_the_endpoint_residual():
    """shoot_variational rides on the unrolled steps: its R is bit for bit
    shoot_endpoint's wherever the variational shot succeeds."""
    compared = 0
    for kind, lam, eps, a in _SHOT_CASES:
        spec = ProblemSpec(lam=lam, kind=kind, eps=eps)
        try:
            r = shoot_variational(spec, a)[0]
        except IntegrationError:
            continue
        u, du, diverged = shoot_endpoint(spec, a)
        assert not diverged
        assert repr(r) == repr(kind.residual(u, du)), (kind, lam, eps, a)
        compared += 1
    assert compared > len(_SHOT_CASES) // 3


def _dense_fill_by_sample(t0, h, y0, k, t_out, us, dus, idx):
    """Sample-by-sample reference for the dense fill of one accepted step:
    the samples before the step's end, from the first not yet filled."""
    q = [[sum(k[s][c] * integrator._DP_P[s][j] for s in range(7)) for j in range(4)]
         for c in range(2)]
    while idx < len(t_out) and t_out[idx] < t0 + h:
        theta = (t_out[idx] - t0) / h
        poly = theta
        acc_u = 0.0
        acc_v = 0.0
        for j in range(4):
            acc_u += q[0][j] * poly
            acc_v += q[1][j] * poly
            poly *= theta
        us[idx] = y0[0] + h * acc_u
        dus[idx] = y0[1] + h * acc_v
        idx += 1
    return idx


def _integrate_by_sample(spec, a):
    """Reference dense output: each accepted step of _dp45 fills its samples
    one at a time; samples past the last step take the end state at 1/2."""
    t_out = np.linspace(spec.eps, 0.5, spec.grid_n)
    us = np.empty(spec.grid_n)
    dus = np.empty(spec.grid_n)
    us[0], dus[0] = launch_state(a, spec.lam, spec.eps)
    idx = 1

    def fill(t, h, u, du, k):
        nonlocal idx
        idx = _dense_fill_by_sample(t, h, (u, du), k, t_out, us, dus, idx)

    u, du, diverged = integrator._dp45(spec, a, fill)
    if not diverged:
        us[idx:], dus[idx:] = u, du
        idx = spec.grid_n
    return t_out[:idx], us[:idx], dus[:idx], diverged


@pytest.mark.parametrize("kind, lam, a, grid_n", [
    (BoundaryKind.DIRICHLET, 100.0, -16.2635630662405, 16001),
    (BoundaryKind.DIRICHLET, 100.0, -2000.0, 2001),
    (BoundaryKind.NAVIER, 9.0, -4.742307280271374, 64001),
    (BoundaryKind.DIRICHLET, 100.0, -16.2635630662405, 2),
    (BoundaryKind.NAVIER, 9.0, -4.742307280271374, 3),
    (BoundaryKind.NAVIER, 5.0, -500.0, 16001),
], ids=["dirichlet-16001", "diverged-2001", "navier-64001", "grid-2", "grid-3",
        "diverged-navier-16001"])
def test_dense_fill_matches_sample_by_sample_reference(kind, lam, a, grid_n):
    spec = ProblemSpec(lam=lam, kind=kind, grid_n=grid_n)
    fast = integrate(spec, a)
    t, u, du, diverged = _integrate_by_sample(spec, a)
    assert fast.diverged == diverged
    for got, want in ((fast.t, t), (fast.u, u), (fast.du, du)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_determinism():
    spec = ProblemSpec(lam=42.0, kind=BoundaryKind.NAVIER, grid_n=501)
    t1 = integrate(spec, -7.5)
    t2 = integrate(spec, -7.5)
    assert np.array_equal(t1.u, t2.u)
    assert np.array_equal(t1.du, t2.du)


def test_first_integral_zero_case():
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, grid_n=1001)
    assert first_integral_residual(integrate(spec, 0.0)) == 0.0
    assert representation_residual(integrate(spec, 0.0)) == 0.0


def test_acceptance_thresholds_at_their_edges():
    """Residuals exactly at FI_TOL, REP_TOL or BOUNDARY_TOL fail (strict <);
    max u exactly at SIGN_TOL passes (<=); a diverged shot's report never passes."""
    clean = dict(
        first_integral_resid=0.0, representation_resid=0.0, sign_violation=0.0, boundary_resid=0.0
    )
    assert ValidationReport(**clean).accepted()
    assert ValidationReport(**{**clean, "sign_violation": SIGN_TOL}).accepted()
    for field, value in [
        ("first_integral_resid", FI_TOL),
        ("representation_resid", REP_TOL),
        ("boundary_resid", BOUNDARY_TOL),
        ("boundary_resid", -BOUNDARY_TOL),
        ("sign_violation", math.nextafter(SIGN_TOL, math.inf)),
    ]:
        assert not ValidationReport(**{**clean, field: value}).accepted(), (field, value)
    diverged = integrate(ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, grid_n=2001), -2000.0)
    assert diverged.diverged and not validate(diverged).accepted()


def test_residuals_small_on_roots(root_cache):
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    for root in root_cache(100.0, BoundaryKind.DIRICHLET).roots:
        traj = integrate(spec, root.a)
        fi = first_integral_residual(traj)
        rep = representation_residual(traj)
        assert fi < FI_TOL
        # the two exact identities agree on accepted Dirichlet solutions
        assert rep < 10.0 * fi


def test_corruption_sensitivity(root_cache):
    """Scaling u by 1.01 must blow the residual up by far more than 10x."""
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    traj = integrate(spec, rs.roots[0].a)
    clean = first_integral_residual(traj)
    corrupted = dataclasses.replace(traj, u=traj.u * 1.01)
    assert first_integral_residual(corrupted) > 10.0 * clean


def test_representation_resampling_stability(root_cache):
    """Doubling the sample density only tightens the quadrature."""
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    a = rs.roots[0].a
    spec1 = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, grid_n=16001)
    spec2 = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, grid_n=32001)
    r1 = representation_residual(integrate(spec1, a))
    r2 = representation_residual(integrate(spec2, a))
    assert r2 < r1
    assert r1 < REP_TOL


def test_convergence_under_step_tol_halving(root_cache):
    """On the lower-branch reference solve the residual decreases with step_tol.

    Cumulative reduction over four halvings lands well above 4x; individual
    halvings always reduce the residual, though not each by a full 2x (the
    step controller quantizes the step sequence).
    """
    a = root_cache(100.0, BoundaryKind.DIRICHLET).roots[0].a
    fis = []
    for k in range(5):
        spec = ProblemSpec(
            lam=100.0, kind=BoundaryKind.DIRICHLET, step_tol=4e-4 * 0.5 ** k
        )
        fis.append(first_integral_residual(integrate(spec, a)))
    assert all(fis[i + 1] < fis[i] for i in range(4)), fis
    assert fis[0] / fis[4] > 4.0


def test_convexity_of_accepted_trajectories(root_cache):
    """u' never decreases along a candidate solution (the rhs is nonnegative)."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    for root in root_cache(100.0, BoundaryKind.DIRICHLET).roots:
        traj = integrate(spec, root.a)
        assert np.min(np.diff(traj.du)) >= -spec.step_tol


def test_slope_ratio_monotonicity(root_cache):
    """v = -u/t decreases with v' <= -lam/4, computed from the samples."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    for root in root_cache(100.0, BoundaryKind.DIRICHLET).roots:
        traj = integrate(spec, root.a)
        vprime = -(traj.t * traj.du - traj.u) / traj.t ** 2
        assert np.max(vprime) <= -spec.lam / 4.0 + 1e-7


def test_launch_consistency_at_eps(root_cache):
    """|u(eps)/eps - a| stays within the series' own correction |beta| eps."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    for root in root_cache(100.0, BoundaryKind.DIRICHLET).roots:
        traj = integrate(spec, root.a)
        beta = _beta(root.a, spec.lam)
        assert abs(traj.u[0] / spec.eps - root.a) <= abs(beta) * spec.eps + 1e-12


def test_quadrature_independence_on_subgrid(root_cache):
    """Residuals on the full grid and every-other-sample subgrid agree in order."""
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    traj = integrate(spec, rs.roots[0].a)
    sub = dataclasses.replace(
        traj, t=traj.t[::2], u=traj.u[::2], du=traj.du[::2]
    )
    fi_full = first_integral_residual(traj)
    fi_sub = first_integral_residual(sub)
    # trapezoid is second order: the coarse grid may lose at most ~4x,
    # plus a safety factor for the changed sample set
    assert fi_sub <= 8.0 * fi_full
    assert fi_full <= 1.5 * fi_sub
