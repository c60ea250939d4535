"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS lines.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from epibvp.cli import main as cli_main

from epibvp.certificates import (
    Verdict,
    alpha_navier,
    c0_closed_form,
    f_criterion,
    fixed_point_c0,
    lower_function_dirichlet,
    lower_function_navier,
    nonexistence_dirichlet,
    nonexistence_navier,
    truncated_monotone_solve,
)
from epibvp.continuation import default_fold_bracket, locate_fold
from epibvp.integrator import integrate, shoot, validate
from epibvp.model import BoundaryKind, ProblemSpec, reconstruct_phi
from lower_function_reference import alpha_dirichlet


@pytest.fixture(scope="module")
def dirichlet_fold(tmp_path_factory):
    """The actual CLI run `fold --bc dirichlet` at default tolerances, timed,
    with the text of the fold.json it wrote."""
    out = str(tmp_path_factory.mktemp("foldd"))
    start = time.perf_counter()
    code = cli_main(["fold", "--bc", "dirichlet", "--out", out])
    elapsed = time.perf_counter() - start
    assert code == 0
    with open(os.path.join(out, "fold.json")) as handle:
        text = handle.read()
    record = json.loads(text)
    return (record["lo"], record["hi"]), elapsed, text


@pytest.fixture(scope="module")
def navier_fold():
    return locate_fold(BoundaryKind.NAVIER, default_fold_bracket(BoundaryKind.NAVIER), 0.05)[:2]


def test_criterion_1_fold_dirichlet(dirichlet_fold):
    """Dirichlet fold inside [160, 178], bracket width <= 0.5, under 60 s."""
    (lo, hi), elapsed, _ = dirichlet_fold
    assert hi - lo <= 0.5
    assert 160.0 <= lo and hi <= 178.0
    assert elapsed < 60.0
    print(f"PASS criterion 1: Dirichlet fold in [{lo:.4f}, {hi:.4f}] "
          f"(width {hi - lo:.4f} <= 0.5, inside [160,178]) in {elapsed:.1f}s")


def test_criterion_2_fold_navier(navier_fold):
    """Navier fold inside [11.2, 11.5] and below 128/11, width <= 0.05."""
    lo, hi = navier_fold
    assert hi - lo <= 0.05
    assert 11.2 <= lo and hi <= 11.5
    assert hi <= 128.0 / 11.0 + 1e-9
    print(f"PASS criterion 2: Navier fold in [{lo:.5f}, {hi:.5f}] "
          f"(width {hi - lo:.5f} <= 0.05, inside [11.2,11.5], <= 128/11)")


def test_criterion_3_bound_consistency(dirichlet_fold, navier_fold):
    """Computed folds lie inside the certificate bounds, exactly."""
    (dlo, dhi), _, _ = dirichlet_fold
    nlo, nhi = navier_fold
    assert 144.0 <= dlo and dhi <= 307.0
    assert 9.0 <= nlo and nhi <= 128.0 / 11.0
    print(f"PASS criterion 3: Dirichlet fold [{dlo:.3f},{dhi:.3f}] in [144,307]; "
          f"Navier fold [{nlo:.4f},{nhi:.4f}] in [9,128/11]")


def test_readme_fold_example_is_the_cli_output(dirichlet_fold):
    """The README's fold.json example is the file `fold --bc dirichlet` writes."""
    *_, text = dirichlet_fold
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as handle:
        readme = handle.read()
    example = readme.split("At the defaults:\n\n```\n", 1)[1].split("```\n", 1)[0]
    assert example == text


def test_criterion_4_certificate_truth_table():
    for lam in (0.0, 72.0, 144.0):
        assert lower_function_dirichlet(lam).verdict is Verdict.EXISTENCE, lam
    assert lower_function_dirichlet(150.0).verdict is Verdict.INCONCLUSIVE
    for lam in (0.0, 4.5, 9.0):
        assert lower_function_navier(lam).verdict is Verdict.EXISTENCE, lam
    assert lower_function_navier(10.0).verdict is Verdict.INCONCLUSIVE
    assert nonexistence_navier(12.0).verdict is Verdict.NONEXISTENCE
    assert nonexistence_navier(11.0).verdict is Verdict.INCONCLUSIVE
    assert nonexistence_dirichlet(307.0).verdict is Verdict.NONEXISTENCE
    assert nonexistence_dirichlet(400.0).verdict is Verdict.NONEXISTENCE
    assert nonexistence_dirichlet(0.0).verdict is Verdict.INCONCLUSIVE
    print("PASS criterion 4: certificate truth table "
          "(lower D/N existence and gaps, nonexistence D/N) all as required")


def test_criterion_5_f_anchor():
    """f(307, 1/8) > 1 with margin in (1e-5, 1e-3), matching the independent
    closed form to 4 significant figures."""
    value = f_criterion(307.0, 0.125)
    margin = value - 1.0
    assert 1e-5 < margin < 1e-3
    # independent evaluation, written out from the closed forms
    c = 192.0 * (1.0 - math.sqrt(1.0 - 307.0 / 384.0))
    t = 0.125
    independent = (0.5 - t) ** 2 * t / 8.0 * (c * c * (0.5 - t) ** 3 / 4.0 + 307.0)
    assert round(value, 4) == round(independent, 4) == 1.0002
    print(f"PASS criterion 5: f(307,1/8) = {value:.10f} "
          f"(margin {margin:.3e} in (1e-5,1e-3); 4-sig-fig match 1.0002)")


def test_criterion_6_fixed_point():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for lam in rng.uniform(0.0, 384.0, 100):
        lam = float(lam)
        c0, _ = fixed_point_c0(lam)
        closed = c0_closed_form(lam)
        worst = max(worst, abs(c0 - closed) / closed)
    assert worst < 1e-10
    c_cap, _ = fixed_point_c0(384.0)
    assert abs(c_cap - 192.0) < 1e-9
    print(f"PASS criterion 6: fixed point matches closed form "
          f"(worst rel {worst:.2e} < 1e-10 over 100 draws; c0(384) = {c_cap!r})")


REQUIRED_ROOT_RUNS = [
    (BoundaryKind.DIRICHLET, (0.0, 50.0, 100.0, 150.0)),
    (BoundaryKind.NAVIER, (0.0, 5.0, 10.0, 11.0)),
]


def test_criterion_7_solution_validation(root_cache):
    from epibvp.certificates import universal_bound

    worst = {"fi": 0.0, "rep": 0.0, "maxu": -np.inf, "w": -np.inf, "wrmin": 0.0}
    n_roots = 0
    for kind, lams in REQUIRED_ROOT_RUNS:
        for lam in lams:
            assert lam <= universal_bound()  # solvable lam never exceeds 64 pi^2
            spec = ProblemSpec(lam=lam, kind=kind)
            for root in root_cache(lam, kind).roots:
                traj = integrate(spec, root.a)
                report = validate(shoot(spec, root.a))
                fi, rep = report.first_integral_resid, report.representation_resid
                prof = reconstruct_phi(traj, report)
                assert fi < 1e-6, (kind, lam, root.a, fi)
                assert rep < 1e-5, (kind, lam, root.a, rep)
                # on the shot's own steps the identities hold to the
                # integrator's accuracy, far inside the thresholds
                assert fi <= 1e-9 and rep <= 1e-9, (kind, lam, root.a, fi, rep)
                assert np.max(traj.u) <= 1e-8
                assert np.max(prof.w) <= 1e-8
                assert abs(prof.w[0]) < 1e-4
                worst["fi"] = max(worst["fi"], fi)
                worst["rep"] = max(worst["rep"], rep)
                worst["maxu"] = max(worst["maxu"], float(np.max(traj.u)))
                worst["w"] = max(worst["w"], float(np.max(prof.w)))
                worst["wrmin"] = max(worst["wrmin"], abs(float(prof.w[0])))
                n_roots += 1
    assert n_roots == 16
    print(f"PASS criterion 7: {n_roots} roots validated "
          f"(worst fi {worst['fi']:.2e} < 1e-6, rep {worst['rep']:.2e} < 1e-5, "
          f"max u {worst['maxu']:.2e} <= 1e-8, |w(r_min)| {worst['wrmin']:.2e} < 1e-4)")


def test_criterion_8_branch_structure(root_cache):
    rs100 = root_cache(100.0, BoundaryKind.DIRICHLET)
    rs160 = root_cache(160.0, BoundaryKind.DIRICHLET)
    assert len(rs100.roots) == 2
    gap100 = abs(rs100.roots[1].a - rs100.roots[0].a)
    gap160 = abs(rs160.roots[1].a - rs160.roots[0].a)
    assert gap160 < gap100
    print(f"PASS criterion 8: lam=100 has exactly 2 roots; "
          f"branch gap shrinks {gap100:.3f} -> {gap160:.3f} toward the fold")


def test_criterion_9_cross_solver_agreement(root_cache):
    sups = {}
    for lam, kind, alpha_fn in [
        (144.0, BoundaryKind.DIRICHLET, alpha_dirichlet),
        (9.0, BoundaryKind.NAVIER, alpha_navier),
    ]:
        spec = ProblemSpec(lam=lam, kind=kind)
        fd, _ = truncated_monotone_solve(spec)
        # the strip solution is maximal: it corresponds to the best-matching
        # (upper-branch) shooting root
        best = math.inf
        for root in root_cache(lam, kind).roots:
            sh = integrate(spec, root.a)
            sup = float(np.max(np.abs(fd.u - np.interp(fd.t, sh.t, sh.u))))
            best = min(best, sup)
        assert best < 1e-6, (kind, best)
        alpha = alpha_fn(fd.t)
        assert np.all(fd.u >= alpha - 1e-12)
        assert np.all(fd.u <= 0.0)
        sups[kind.value] = best
    print(f"PASS criterion 9: monotone solver matches shooting within 1e-6 "
          f"(dirichlet {sups['dirichlet']:.2e}, navier {sups['navier']:.2e}), "
          f"both inside the strip [alpha, 0]")


def test_criterion_9_monotone_solver_within_1e9(root_cache):
    """The monotone iteration meets the upper shooting branch far inside
    criterion 9's bound: its polynomial has no truncation or grid error."""
    for lam, kind in [(144.0, BoundaryKind.DIRICHLET), (9.0, BoundaryKind.NAVIER)]:
        spec = ProblemSpec(lam=lam, kind=kind)
        mono, _ = truncated_monotone_solve(spec)
        upper = root_cache(lam, kind).roots[-1]
        assert np.max(np.abs(mono.u - integrate(spec, upper.a).u)) <= 1e-9, kind
        assert abs(mono.a - upper.a) <= 1e-8, kind


def test_criterion_10_convergence_order(root_cache):
    a_lower = root_cache(100.0, BoundaryKind.DIRICHLET).roots[0].a
    fis = []
    for k in range(5):
        spec = ProblemSpec(
            lam=100.0, kind=BoundaryKind.DIRICHLET, step_tol=4e-4 * 0.5 ** k
        )
        fis.append(validate(shoot(spec, a_lower)).first_integral_resid)
    assert all(fis[i + 1] < fis[i] for i in range(4)), fis
    print(f"PASS criterion 10: first-integral residual decreases monotonically "
          f"across 4 step_tol halvings: {', '.join(f'{v:.3e}' for v in fis)}")
