"""CLI subcommands, exit codes, artifact round-trips, and determinism."""

import json
import os

import numpy as np
import pytest

from epibvp import serialize
from epibvp.cli import main
from epibvp.model import BoundaryKind


def run(tmp_path, *argv):
    out = os.path.join(tmp_path, "out")
    return main(list(argv) + ["--out", out]), out


def test_solve_zero_solution(tmp_path):
    code, out = run(tmp_path, "solve", "--lambda", "0", "--bc", "dirichlet", "--a", "0")
    assert code == 0
    report = serialize.validation_from_json(
        open(os.path.join(out, "validation.json")).read()
    )
    assert report.first_integral_resid == 0.0
    assert report.boundary_resid == 0.0
    t, u, du = serialize.trajectory_samples_from_csv(
        open(os.path.join(out, "trajectory.csv")).read()
    )
    assert np.all(u == 0.0)
    prof = serialize.profile_from_csv(open(os.path.join(out, "profile.csv")).read())
    assert np.all(prof.phi == 0.0)


def test_solve_all_roots(tmp_path):
    code, out = run(
        tmp_path, "solve", "--lambda", "100", "--bc", "dirichlet", "--grid", "4001"
    )
    assert code == 0
    roots = json.load(open(os.path.join(out, "roots.json")))
    assert len(roots["roots"]) == 2
    for i in range(2):
        assert os.path.exists(os.path.join(out, f"trajectory_root{i}.csv"))
        assert os.path.exists(os.path.join(out, f"profile_root{i}.csv"))
        assert os.path.exists(os.path.join(out, f"validation_root{i}.json"))


def test_solve_json_format(tmp_path):
    code, out = run(
        tmp_path, "solve", "--lambda", "0", "--bc", "dirichlet", "--a", "0",
        "--format", "json",
    )
    assert code == 0
    data = json.load(open(os.path.join(out, "trajectory.json")))
    assert set(data) == {"t", "u", "du"}


def test_certify_dirichlet_307(tmp_path):
    code, out = run(tmp_path, "certify", "--lambda", "307", "--bc", "dirichlet")
    assert code == 0
    certs = json.load(open(os.path.join(out, "certificates.json")))
    nonexist = [c for c in certs if c["kind"] == "NonexistDirichlet"]
    assert len(nonexist) == 1
    assert nonexist[0]["verdict"] == "Nonexistence"
    assert nonexist[0]["witness"]["f_max"] > 1.0


def test_fold_navier(tmp_path):
    code, out = run(
        tmp_path, "fold", "--bc", "navier",
        "--lo", "9", "--hi", "11.6363", "--tol", "0.05",
    )
    assert code == 0
    kind, lo, hi = serialize.fold_from_json(open(os.path.join(out, "fold.json")).read())
    assert hi - lo <= 0.05
    assert abs(0.5 * (lo + hi) - 11.3) <= 0.1


def test_sweep_csv(tmp_path):
    code, out = run(tmp_path, "sweep", "--lambdas", "0,5", "--bc", "navier")
    assert code == 0
    text = open(os.path.join(out, "diagram.csv")).read()
    diagram = serialize.diagram_from_csv(text, BoundaryKind.NAVIER)
    lams = {p.lam for p in diagram.points}
    assert lams == {0.0, 5.0}


def test_sweep_range_flags(tmp_path):
    code, out = run(
        tmp_path, "sweep", "--lo", "0", "--hi", "5", "--n", "2", "--bc", "navier"
    )
    assert code == 0
    diagram = serialize.diagram_from_csv(
        open(os.path.join(out, "diagram.csv")).read(), BoundaryKind.NAVIER
    )
    assert {p.lam for p in diagram.points} == {0.0, 5.0}


def test_scan_window_override(tmp_path):
    # narrow window around the upper root only
    code, out = run(
        tmp_path, "solve", "--lambda", "100", "--bc", "dirichlet",
        "--a-min", "-30", "--a-max", "-5",
    )
    assert code == 0
    roots = json.load(open(os.path.join(out, "roots.json")))
    assert len(roots["roots"]) == 1
    assert roots["window"] == [-30.0, -5.0]


def test_monotone_solve_cli(tmp_path):
    code, out = run(
        tmp_path, "solve", "--lambda", "9", "--bc", "navier", "--monotone"
    )
    assert code == 0
    report = serialize.validation_from_json(
        open(os.path.join(out, "validation.json")).read()
    )
    assert abs(report.boundary_resid) < 1e-8


def test_usage_error_unknown_flag(tmp_path):
    assert main(["solve", "--no-such-flag"]) == 1


def test_usage_error_missing_lambda(tmp_path):
    code, _ = run(tmp_path, "solve", "--bc", "dirichlet")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--lo", "0", "--hi", "5", "--n", "-1", "--bc", "navier"],
    ["sweep", "--lambdas", ",", "--bc", "navier"],
], ids=["range-n-negative", "lambdas-empty"])
def test_usage_error_empty_sweep(tmp_path, argv):
    code, out = run(tmp_path, *argv)
    assert code == 1
    assert not os.path.exists(out) or not os.listdir(out)


def test_precondition_error_bad_bracket(tmp_path):
    code, _ = run(
        tmp_path, "fold", "--bc", "navier", "--lo", "12", "--hi", "13", "--tol", "0.05"
    )
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["certify", "--lambda", "nan", "--bc", "navier"],
    ["certify", "--lambda", "inf", "--bc", "dirichlet"],
    ["sweep", "--lambdas", "100,nan", "--bc", "dirichlet"],
    ["solve", "--tol", "0", "--a", "-16", "--lambda", "100", "--bc", "dirichlet"],
    ["solve", "--tol=-1e-10", "--a", "-16", "--lambda", "100", "--bc", "dirichlet"],
    ["fold", "--bc", "navier", "--tol", "nan"],
    ["solve", "--monotone", "--lambda", "144.000000001", "--bc", "dirichlet"],
    ["solve", "--monotone", "--lambda", "9.000000001", "--bc", "navier"],
], ids=[
    "certify-nan", "certify-inf", "sweep-nan", "solve-tol-0", "solve-tol-neg", "fold-tol-nan",
    "monotone-above-144", "monotone-above-9",
])
def test_precondition_error_bad_number(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("precondition error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not os.path.exists(out) or not os.listdir(out)


def test_numerical_error_unvalidated_solve(tmp_path):
    # a = -5 is not a boundary root at lam = 100: reconstruction refuses
    code, _ = run(
        tmp_path, "solve", "--lambda", "100", "--bc", "dirichlet", "--a", "-5",
        "--grid", "2001",
    )
    assert code == 3


def test_determinism_identical_bytes(tmp_path):
    code1, out1 = run(
        tmp_path, "solve", "--lambda", "9", "--bc", "navier",
        "--a", "-4.742307280271374", "--grid", "2001",
    )
    out2 = os.path.join(tmp_path, "out2")
    code2 = main([
        "solve", "--lambda", "9", "--bc", "navier",
        "--a", "-4.742307280271374", "--grid", "2001", "--out", out2,
    ])
    assert code1 == code2 == 0
    for name in ("trajectory.csv", "profile.csv", "validation.json"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2


def test_config_file_with_flag_override(tmp_path):
    config = os.path.join(tmp_path, "run.json")
    with open(config, "w") as handle:
        json.dump({"lambda": 307.0, "bc": "navier"}, handle)
    out = os.path.join(tmp_path, "out")
    # config supplies lambda; the explicit flag overrides bc
    code = main([
        "certify", "--config", config, "--bc", "dirichlet", "--out", out,
    ])
    assert code == 0
    certs = json.load(open(os.path.join(out, "certificates.json")))
    assert certs[0]["lambda"] == 307.0
    assert any(c["kind"] == "NonexistDirichlet" for c in certs)
