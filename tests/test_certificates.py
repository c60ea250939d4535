"""Certificate verdicts, the slack identities, the fixed point, and the
truncated-domain monotone solver."""

import math

import numpy as np
import pytest

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
from epibvp.errors import DomainError
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


# --- truncated-domain monotone solver ----------------------------------------

def test_monotone_solver_dirichlet_strip():
    spec = ProblemSpec(lam=144.0, kind=BoundaryKind.DIRICHLET)
    traj = truncated_monotone_solve(spec)
    alpha = alpha_dirichlet(traj.t)
    assert np.all(traj.u >= alpha - 1e-12)
    assert np.all(traj.u <= 0.0)
    report = validate(traj)
    assert report.accepted(), report


def test_monotone_solver_zero_at_lam0():
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET)
    traj = truncated_monotone_solve(spec)
    assert np.all(traj.u == 0.0)


def test_monotone_solver_navier_endpoint():
    spec = ProblemSpec(lam=9.0, kind=BoundaryKind.NAVIER)
    traj = truncated_monotone_solve(spec)
    alpha = alpha_navier(traj.t)
    assert np.all(traj.u >= alpha - 1e-12)
    assert np.all(traj.u <= 0.0)
    assert abs(traj.u[-1] - traj.du[-1]) < 1e-8


def test_monotone_solver_requires_certificate():
    spec = ProblemSpec(lam=150.0, kind=BoundaryKind.DIRICHLET)
    with pytest.raises(DomainError):
        truncated_monotone_solve(spec)
