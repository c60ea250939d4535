"""Certificate verdicts, the slack identities, the fixed point, and the
monotone solver."""

import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings, strategies as st

from epibvp import certificates
from epibvp.certificates import (
    CertificateKind,
    Verdict,
    alpha_dirichlet,
    alpha_dirichlet_dd,
    alpha_navier,
    alpha_navier_dd,
    c0_closed_form,
    certificates_for,
    f_criterion,
    fixed_point_c0,
    lower_function_dirichlet,
    lower_function_navier,
    nonexistence_dirichlet,
    nonexistence_navier,
    slack_dirichlet,
    slack_navier,
    truncated_monotone_solve,
    universal_bound,
    universal_certificate,
)
from epibvp.errors import DomainError, EpibvpError
from epibvp.integrator import validate
from epibvp.model import BoundaryKind, ProblemSpec


# --- slack identities -------------------------------------------------------

def test_dirichlet_slack_identity():
    """Direct evaluation of alpha'' - alpha^2/(8t^2) matches the factorization."""
    t = np.linspace(1e-6, 0.5, 10000)
    direct = alpha_dirichlet_dd(t) - alpha_dirichlet(t) ** 2 / (8.0 * t * t)
    factored = slack_dirichlet(t, 0.0) - 72.0  # slack at lam = 0 minus constant
    scale = np.maximum(np.abs(direct), 1.0)
    assert np.max(np.abs(direct - 72.0 - factored) / scale) < 1e-10


def test_navier_slack_identity():
    t = np.linspace(1e-6, 0.5, 10000)
    direct = alpha_navier_dd(t) - alpha_navier(t) ** 2 / (8.0 * t * t)
    factored = slack_navier(t, 0.0) - 4.5
    scale = np.maximum(np.abs(direct), 1.0)
    assert np.max(np.abs(direct - 4.5 - factored) / scale) < 1e-10


def test_dirichlet_slack_zeros():
    # the factorized part vanishes at t = 1/8 and t = 1/2
    assert slack_dirichlet(0.125, 144.0) == pytest.approx(0.0, abs=1e-12)
    assert slack_dirichlet(0.5, 144.0) == pytest.approx(0.0, abs=1e-12)
    assert slack_dirichlet(0.125, 150.0) == pytest.approx(-3.0, abs=1e-12)


def test_navier_slack_zero_and_endpoint():
    assert slack_navier(0.5, 9.0) == pytest.approx(0.0, abs=1e-12)
    assert slack_navier(0.5, 10.0) == pytest.approx(-0.5, abs=1e-12)
    # alpha(1/2) = alpha'(1/2) = -3: Navier endpoint inequality with equality
    assert alpha_navier(0.5) == pytest.approx(-3.0, rel=1e-15)


# --- lower-function certificates --------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 72.0, 144.0])
def test_lower_dirichlet_existence(lam):
    cert = lower_function_dirichlet(lam)
    assert cert.verdict is Verdict.EXISTENCE
    assert cert.witness["min_slack"] >= 0.0


def test_lower_dirichlet_inconclusive_and_witness():
    # the second input is the first double above the threshold 144
    for lam, min_slack in [(150.0, -3.0), (math.nextafter(144.0, math.inf), 0.0)]:
        cert = lower_function_dirichlet(lam)
        assert cert.verdict is Verdict.INCONCLUSIVE, lam
        assert cert.witness["min_slack"] == pytest.approx(min_slack, abs=1e-9)
        assert cert.witness["argmin_t"] == pytest.approx(0.125, abs=1e-9)


def test_lower_dirichlet_lam0_witness():
    cert = lower_function_dirichlet(0.0)
    assert cert.witness["min_slack"] == pytest.approx(72.0, abs=1e-9)


@pytest.mark.parametrize("lam", [0.0, 4.5, 9.0])
def test_lower_navier_existence(lam):
    cert = lower_function_navier(lam)
    assert cert.verdict is Verdict.EXISTENCE


def test_lower_navier_inconclusive():
    # the second input is the first double above the threshold 9
    for lam, min_slack in [(10.0, -0.5), (math.nextafter(9.0, math.inf), 0.0)]:
        cert = lower_function_navier(lam)
        assert cert.verdict is Verdict.INCONCLUSIVE, lam
        assert cert.witness["min_slack"] == pytest.approx(min_slack, abs=1e-9)
        assert cert.witness["argmin_t"] == pytest.approx(0.5, abs=1e-9)


def test_lower_function_rejects_negative_lam():
    with pytest.raises(DomainError):
        lower_function_dirichlet(-1.0)


# --- fixed point -------------------------------------------------------------

def test_fixed_point_zero():
    c0, iterations = fixed_point_c0(0.0)
    assert c0 == 0.0
    assert iterations >= 1


def test_fixed_point_cap():
    c0, _ = fixed_point_c0(384.0)
    assert abs(c0 - 192.0) < 1e-9


def test_fixed_point_navier_bound_value():
    c0, _ = fixed_point_c0(128.0 / 11.0)
    closed = 192.0 * (1.0 - math.sqrt(32.0 / 33.0))
    assert c0 == pytest.approx(closed, rel=1e-10)
    assert c0 == pytest.approx(2.9314698557, abs=1e-9)


def test_fixed_point_matches_closed_form():
    rng = np.random.default_rng(3)
    for lam in rng.uniform(0.0, 384.0, 25):
        c0, _ = fixed_point_c0(float(lam))
        assert c0 == pytest.approx(c0_closed_form(float(lam)), rel=1e-10)


def test_fixed_point_iterates_monotone_and_bounded():
    lam = 300.0
    c = lam / 4.0
    seen = [c]
    for _ in range(200):
        c = c * c / 384.0 + lam / 4.0
        seen.append(c)
    assert all(y >= x for x, y in zip(seen, seen[1:]))
    assert seen[-1] <= 192.0
    c0, _ = fixed_point_c0(lam)
    assert seen[-1] <= c0 + 1e-9


def test_fixed_point_domain():
    with pytest.raises(DomainError):
        fixed_point_c0(384.0 + 1e-9)
    with pytest.raises(DomainError):
        fixed_point_c0(-1e-9)


# --- nonexistence certificates ------------------------------------------------

def test_f_criterion_anchor():
    """f(307, 1/8) exceeds 1 by about 1.86e-4; frozen to full precision."""
    value = f_criterion(307.0, 0.125)
    assert value == pytest.approx(1.0001862454413324, rel=1e-12)
    # independent evaluation of the closed form, spelled out from scratch
    c = 192.0 * (1.0 - math.sqrt(1.0 - 307.0 / 384.0))
    t = 0.125
    direct = (0.5 - t) ** 2 * t / 8.0 * (c * c * (0.5 - t) ** 3 / 4.0 + 307.0)
    assert value == pytest.approx(direct, rel=1e-12)


def test_f_criterion_zero_at_lam0():
    t = np.linspace(1e-6, 0.5, 100)
    assert np.max(np.abs(f_criterion(0.0, t))) == 0.0


def test_f_monotone_in_lam():
    t = np.linspace(0.01, 0.49, 25)
    for lam1, lam2 in [(10.0, 50.0), (100.0, 200.0), (300.0, 350.0)]:
        assert np.all(f_criterion(lam2, t) >= f_criterion(lam1, t))


def test_nonexistence_dirichlet_at_307():
    cert = nonexistence_dirichlet(307.0)
    assert cert.verdict is Verdict.NONEXISTENCE
    assert cert.witness["f_max"] > 1.0
    assert cert.witness["f_max"] >= f_criterion(307.0, 0.125)


# the smallest double at which f(lam, t*) > 1 holds exactly
_FIRST_NONEXISTENT = 306.96197210915716


def test_nonexistence_dirichlet_threshold_is_exact():
    """The verdict turns at one double, where the float f_max is within a
    few ulp of 1 on either side."""
    first = nonexistence_dirichlet(_FIRST_NONEXISTENT)
    before = nonexistence_dirichlet(math.nextafter(_FIRST_NONEXISTENT, 0.0))
    assert first.verdict is Verdict.NONEXISTENCE
    assert before.verdict is Verdict.INCONCLUSIVE
    assert abs(first.witness["f_max"] - 1.0) < 1e-15
    assert abs(before.witness["f_max"] - 1.0) < 1e-15


# the grid maximum of f over (0, 1/2] that the certificate once searched
_F_GRID = np.linspace(0.5 / 100000, 0.5, 100000)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.floats(min_value=0.0, max_value=384.0, exclude_min=True))
def test_nonexistence_dirichlet_witness_is_the_maximum(lam):
    """f_max is at least the 100000-point grid maximum, and f_argmax is a
    local maximizer of f."""
    witness = nonexistence_dirichlet(lam).witness
    f_max, t_star = witness["f_max"], witness["f_argmax"]
    assert f_max == f_criterion(lam, t_star)
    assert f_max >= float(np.max(f_criterion(lam, _F_GRID)))
    assert f_criterion(lam, t_star - 1e-6) <= f_max
    assert f_criterion(lam, t_star + 1e-6) <= f_max


def test_nonexistence_dirichlet_lam0_witness():
    """f vanishes identically at lam = 0: Inconclusive, with f_max = 0."""
    cert = nonexistence_dirichlet(0.0)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.witness == {"f_max": 0.0, "f_argmax": 0.5, "c0": 0.0}


@pytest.mark.parametrize("lam", [1e-10, 1e-300])
def test_nonexistence_dirichlet_small_lam_c0(lam):
    """The c0 witness keeps its digits at small lam, where 1 - sqrt(1 - lam/384)
    would cancel: it matches (lam/2) / (1 + sqrt(1 - lam/384)) in rationals."""
    x = 1 - Fraction(lam) / 384
    root = Fraction(math.isqrt(x.numerator * 4 ** 200 // x.denominator), 2 ** 200)
    exact = Fraction(lam) / 2 / (1 + root)
    c0 = nonexistence_dirichlet(lam).witness["c0"]
    assert abs(Fraction(c0) - exact) <= Fraction(1e-14) * exact


@pytest.mark.parametrize("lam", [5e-324, 1e-300])
def test_nonexistence_dirichlet_tiny_lam_argmax(lam):
    """q(s) is about lam (1 - 3s) at a tiny lam, so t* is about 1/6, also at
    the smallest subnormal, where lam (1 - 3s) on unscaled floats underflows."""
    assert abs(nonexistence_dirichlet(lam).witness["f_argmax"] - 1.0 / 6.0) < 1e-15


def _argmax_unscaled(lam):
    """t* from the sign test of q on unscaled floats."""
    c = c0_closed_form(lam)
    lo, hi = 0.0, 0.5
    while lo < 0.5 * (lo + hi) < hi:
        s = 0.5 * (lo + hi)
        if lam * (1.0 - 3.0 * s) + c * c * s ** 3 * (0.625 - 1.5 * s) > 0.0:
            lo = s
        else:
            hi = s
    return 0.5 - lo


def test_nonexistence_dirichlet_scaled_sign_test_keeps_argmax():
    """Scaling q by 2^600 moves no maximizer for lam >= 1e-300, across the
    range where c^2 underflows and near the verdict threshold; the unscaled
    test is what fails at the smallest subnormal."""
    lams = [*np.geomspace(1e-300, 384.0, 400), 306.96197210915716]
    for lam in map(float, lams):
        assert nonexistence_dirichlet(lam).witness["f_argmax"] == _argmax_unscaled(lam), lam
    assert abs(_argmax_unscaled(5e-324) - 1.0 / 3.0) < 1e-15


def test_nonexistence_dirichlet_gate_above_384():
    cert = nonexistence_dirichlet(400.0)
    assert cert.verdict is Verdict.NONEXISTENCE
    assert cert.witness == {"gate": 384.0}


def test_nonexistence_dirichlet_inconclusive():
    assert nonexistence_dirichlet(0.0).verdict is Verdict.INCONCLUSIVE
    assert nonexistence_dirichlet(150.0).verdict is Verdict.INCONCLUSIVE


def test_nonexistence_navier_verdicts():
    assert nonexistence_navier(12.0).verdict is Verdict.NONEXISTENCE
    assert nonexistence_navier(11.0).verdict is Verdict.INCONCLUSIVE
    # the double 128/11 lies above the rational 128/11, its predecessor below
    assert nonexistence_navier(128.0 / 11.0).verdict is Verdict.NONEXISTENCE
    assert nonexistence_navier(math.nextafter(128.0 / 11.0, 0.0)).verdict is Verdict.INCONCLUSIVE
    assert nonexistence_navier(11.636363647363636).verdict is Verdict.NONEXISTENCE
    assert nonexistence_navier(0.0).verdict is Verdict.INCONCLUSIVE
    assert nonexistence_navier(12.0).witness["discriminant"] == pytest.approx(
        -0.03125, abs=1e-15
    )


def test_universal_bound_value_and_ordering():
    bound = universal_bound()
    assert bound == pytest.approx(64.0 * math.pi ** 2, rel=1e-15)
    assert bound > 307.0 > 128.0 / 11.0
    assert universal_certificate(700.0).verdict is Verdict.NONEXISTENCE
    assert universal_certificate(100.0).verdict is Verdict.INCONCLUSIVE


# pi enclosed by two decimals with 30 digits after the point
_PI_LO = Fraction("3.141592653589793238462643383279")
_PI_HI = _PI_LO + Fraction(1, 10 ** 30)


def test_universal_bound_is_exact():
    """The double 64 pi^2 lies just below the true 64 pi^2 and its next
    double above it, so ``lam > bound`` decides every double exactly."""
    bound = universal_bound()
    above = math.nextafter(bound, math.inf)
    assert Fraction(bound) < 64 * _PI_LO ** 2
    assert 64 * _PI_HI ** 2 < Fraction(above)
    assert 3.9e-14 < 64 * _PI_LO ** 2 - Fraction(bound) < 4.1e-14
    assert universal_certificate(bound).verdict is Verdict.INCONCLUSIVE
    assert universal_certificate(above).verdict is Verdict.NONEXISTENCE


def test_certificate_consistency_grid():
    """No lam gets an existence and a matching nonexistence verdict at once."""
    lams = np.arange(0.0, 700.0 + 0.25, 0.25)
    for lam in lams:
        lam = float(lam)
        d_exist = lower_function_dirichlet(lam).verdict is Verdict.EXISTENCE
        d_nonexist = nonexistence_dirichlet(lam).verdict is Verdict.NONEXISTENCE
        assert not (d_exist and d_nonexist), lam
        n_exist = lower_function_navier(lam).verdict is Verdict.EXISTENCE
        n_nonexist = nonexistence_navier(lam).verdict is Verdict.NONEXISTENCE
        assert not (n_exist and n_nonexist), lam


def test_certificates_for_bundles():
    kinds = {c.kind for c in certificates_for(1.0, BoundaryKind.DIRICHLET)}
    assert kinds == {
        CertificateKind.LOWER_DIRICHLET,
        CertificateKind.NONEXIST_DIRICHLET,
        CertificateKind.UNIVERSAL,
    }
    kinds = {c.kind for c in certificates_for(1.0, BoundaryKind.NAVIER)}
    assert kinds == {
        CertificateKind.LOWER_NAVIER,
        CertificateKind.NONEXIST_NAVIER,
        CertificateKind.UNIVERSAL,
    }


def test_verdict_source_invariant():
    """Existence only from Lower* kinds, Nonexistence only from Nonexist*/Universal."""
    for lam in (0.0, 9.0, 144.0, 307.0, 400.0, 700.0):
        for kind in BoundaryKind:
            for cert in certificates_for(lam, kind):
                if cert.verdict is Verdict.EXISTENCE:
                    assert cert.kind in (
                        CertificateKind.LOWER_DIRICHLET,
                        CertificateKind.LOWER_NAVIER,
                    )
                if cert.verdict is Verdict.NONEXISTENCE:
                    assert cert.kind in (
                        CertificateKind.NONEXIST_DIRICHLET,
                        CertificateKind.NONEXIST_NAVIER,
                        CertificateKind.UNIVERSAL,
                    )
                assert cert.witness  # every verdict carries a witness


# --- monotone solver ---------------------------------------------------------

def _v_coefficients(lam, kind):
    """Coefficients in x = 2t of the polynomial v = -u/t of a monotone solve."""
    p = certificates._picard_solve(lam, kind)
    return certificates._times_one_minus_x(p) if kind is BoundaryKind.DIRICHLET else p


def _check_polynomial(traj):
    """The solve samples u = -t v, and v solves t v'' + 2 v' + v^2/8 + lam/2 = 0
    on [0, 1/2], t = 0 included, by its own derivatives."""
    c = _v_coefficients(traj.lam, traj.kind)
    eps = traj.t[0]
    v_eps = P.polyval(2.0 * eps, c)
    assert traj.u[0] == pytest.approx(-eps * v_eps, rel=1e-14, abs=0.0)
    assert traj.a == -c[0]
    x = np.concatenate(([0.0], 2.0 * traj.t))
    v = P.polyval(x, c)
    dv = 2.0 * P.polyval(x, P.polyder(c))
    ddv = 4.0 * P.polyval(x, P.polyder(c, 2))
    resid = np.max(np.abs(x / 2.0 * ddv + 2.0 * dv + v * v / 8.0 + traj.lam / 2.0))
    assert resid <= 1e-9 * (1.0 + traj.lam)


@pytest.mark.parametrize("eps", [1e-8, 1e-2])
@pytest.mark.parametrize("grid_n", [5, 11, 2001])
def test_monotone_solver_dirichlet_strip(grid_n, eps):
    spec = ProblemSpec(lam=144.0, kind=BoundaryKind.DIRICHLET, grid_n=grid_n, eps=eps)
    traj = truncated_monotone_solve(spec)
    assert traj.t[0] == eps and traj.t.size == grid_n
    assert abs(traj.u[-1]) <= 1e-15
    alpha = alpha_dirichlet(traj.t)
    assert np.all(traj.u >= alpha - 1e-12)
    assert np.all(traj.u <= 0.0)
    _check_polynomial(traj)
    if (grid_n, eps) == (2001, 1e-8):
        # coarser grids, and the validators' series tail at eps = 1e-2, miss
        # their tolerances
        report = validate(traj)
        assert report.accepted(), report


def test_monotone_solver_zero_at_lam0():
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET)
    traj = truncated_monotone_solve(spec)
    assert np.all(traj.u == 0.0)


@pytest.mark.parametrize("eps", [1e-8, 1e-2])
@pytest.mark.parametrize("grid_n", [5, 11, 2001])
def test_monotone_solver_navier_endpoint(grid_n, eps):
    spec = ProblemSpec(lam=9.0, kind=BoundaryKind.NAVIER, grid_n=grid_n, eps=eps)
    traj = truncated_monotone_solve(spec)
    assert traj.t[0] == eps and traj.t.size == grid_n
    alpha = alpha_navier(traj.t)
    assert np.all(traj.u >= alpha - 1e-12)
    assert np.all(traj.u <= 0.0)
    assert abs(traj.u[-1] - traj.du[-1]) < 1e-8
    _check_polynomial(traj)


@pytest.mark.parametrize("lam, kind, alpha", [
    (144.0, BoundaryKind.DIRICHLET, alpha_dirichlet),
    (9.0, BoundaryKind.NAVIER, alpha_navier),
], ids=["dirichlet-144", "navier-9"])
def test_picard_iterates_rise_below_the_lower_function(lam, kind, alpha):
    """The upper/lower-function sandwich: from v = 0 the iterates of v <- T[v]
    never fall and never pass -alpha/t, up to rounding."""
    t = np.linspace(1e-8, 0.5, 2001)
    x = 2.0 * t
    ceiling = -alpha(t) / t
    dirichlet = kind is BoundaryKind.DIRICHLET
    p = np.zeros(certificates._PICARD_DEGREE + 1)
    v_prev = np.zeros_like(t)
    for _ in range(80):
        p = certificates._picard_step(p, lam, dirichlet)
        v = P.polyval(x, p) * ((1.0 - x) if dirichlet else 1.0)
        assert np.all(v >= v_prev - 1e-12)
        assert np.all(v <= ceiling + 1e-12)
        v_prev = v
    # 80 steps pass the solver's stop, so the last iterate is its solution
    assert np.max(np.abs(p - certificates._picard_solve(lam, kind))) <= 1e-12


def test_monotone_solver_iteration_cap(monkeypatch):
    monkeypatch.setattr(certificates, "_PICARD_MAX_ITER", 3)
    with pytest.raises(EpibvpError, match="did not settle in 3 steps"):
        truncated_monotone_solve(ProblemSpec(lam=144.0, kind=BoundaryKind.DIRICHLET))


def test_monotone_solver_requires_certificate():
    spec = ProblemSpec(lam=150.0, kind=BoundaryKind.DIRICHLET)
    with pytest.raises(DomainError):
        truncated_monotone_solve(spec)
