"""CLI subcommands, exit codes, artifact round-trips, and determinism."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epibvp.cli import main


def run(tmp_path, *argv):
    out = os.path.join(tmp_path, "out")
    return main(list(argv) + ["--out", out]), out


def load_csv(path):
    """Numeric columns of a CSV artifact, one row per sample."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_solve_zero_solution(tmp_path):
    code, out = run(tmp_path, "solve", "--lambda", "0", "--bc", "dirichlet", "--a", "0")
    assert code == 0
    report = json.load(open(os.path.join(out, "validation.json")))
    assert report["first_integral_resid"] == 0.0
    assert report["boundary_resid"] == 0.0
    t, u, du = load_csv(os.path.join(out, "trajectory.csv")).T
    assert np.all(u == 0.0)
    r, w, phi = load_csv(os.path.join(out, "profile.csv")).T
    assert np.all(phi == 0.0)


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
    fold = json.load(open(os.path.join(out, "fold.json")))
    assert fold["kind"] == "navier"
    lo, hi = fold["lo"], fold["hi"]
    assert hi - lo <= 0.05
    assert abs(0.5 * (lo + hi) - 11.3) <= 0.1


def test_sweep_csv(tmp_path):
    code, out = run(tmp_path, "sweep", "--lambdas", "0,5", "--bc", "navier")
    assert code == 0
    path = os.path.join(out, "diagram.csv")
    assert open(path).readline() == "lambda,a,branch\n"
    lams = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0, ndmin=1)
    assert set(lams) == {0.0, 5.0}


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
    report = json.load(open(os.path.join(out, "validation.json")))
    assert abs(report["boundary_resid"]) < 1e-8


@pytest.mark.parametrize("argv", [
    ["solve", "--no-such-flag"],
    ["sweep", "--lo", "0", "--hi", "5", "--n", "-1", "--bc", "navier"],
    ["certify", "--lambda", "5", "--bc", "navier", "--grid", "2"],
    ["fold", "--bc", "navier", "--format", "json"],
    ["solve", "--lambda", "100", "--bc", "dirichlet", "--a", "-5", "--monotone"],
], ids=["no-such-flag", "range-n-negative", "certify-grid", "fold-format", "a-with-monotone"])
def test_usage_error_unknown_flag(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert not os.path.exists(out) or not os.listdir(out)


def test_usage_error_missing_lambda(tmp_path):
    code, _ = run(tmp_path, "solve", "--bc", "dirichlet")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--lambdas", ",", "--bc", "navier"],
], ids=["lambdas-empty"])
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
    ["fold", "--bc", "navier", "--lo", "11.3", "--hi", "11.4", "--tol", "1e-4"],
    ["solve", "--lambda", "1", "--bc", "navier", "--a-min=-inf"],
    ["solve", "--lambda", "1", "--bc", "dirichlet", "--a=-1", "--eps", "1e-300"],
    ["solve", "--monotone", "--lambda", "100", "--bc", "dirichlet", "--grid", "2"],
], ids=[
    "certify-nan", "certify-inf", "sweep-nan", "solve-tol-0", "solve-tol-neg", "fold-tol-nan",
    "monotone-above-144", "monotone-above-9", "fold-tol-below-floor", "slope-min-inf",
    "eps-underflow", "monotone-grid-2",
])
def test_precondition_error_bad_number(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("precondition error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not os.path.exists(out) or not os.listdir(out)


@pytest.mark.parametrize("argv", [
    ["solve", "--lambda", "1", "--bc", "navier", "--a-min=-1e308", "--a-max=-1e307"],
    ["sweep", "--lambdas", "1", "--bc", "navier", "--a-min=-1e308", "--a-max=-1e307",
     "--grid", "10"],
], ids=["solve", "sweep"])
def test_overflowing_scan_window_is_silent(tmp_path, capsys, argv):
    # every slope here overflows at launch and is masked to +inf by the scan;
    # a successful run still writes nothing to stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, *argv)
    assert code == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


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


def test_config_matches_flags(tmp_path):
    config = os.path.join(tmp_path, "run.json")
    with open(config, "w") as handle:
        json.dump({"lambda": 307, "bc": "dirichlet"}, handle)
    code, out = run(tmp_path, "certify", "--config", config)
    assert code == 0
    flags = os.path.join(tmp_path, "flags")
    assert main(["certify", "--lambda", "307", "--bc", "dirichlet", "--out", flags]) == 0
    name = "certificates.json"
    assert open(os.path.join(out, name), "rb").read() == open(os.path.join(flags, name), "rb").read()


def test_config_sets_format(tmp_path):
    config = os.path.join(tmp_path, "run.json")
    with open(config, "w") as handle:
        json.dump({"format": "json", "lambda": 0, "bc": "dirichlet", "a": 0}, handle)
    code, out = run(tmp_path, "solve", "--config", config)
    assert code == 0
    assert sorted(os.listdir(out)) == ["profile.json", "trajectory.json", "validation.json"]


@pytest.mark.parametrize("command, config", [
    ("certify", {"lambda": "abc", "bc": "navier"}),
    ("solve", {"lambda": 5, "bc": "navier", "a": -1, "grid": 2.5}),
    ("sweep", {"lambdas": [1, 2], "bc": "navier"}),
    ("certify", [1, 2]),
    ("certify", {"lambda": 5, "bc": "navier", "tolerance": 1}),
], ids=["lambda-not-a-number", "grid-not-an-int", "list-value", "not-an-object", "unknown-key"])
def test_config_usage_error(tmp_path, capsys, command, config):
    path = os.path.join(tmp_path, "run.json")
    with open(path, "w") as handle:
        json.dump(config, handle)
    code, out = run(tmp_path, command, "--config", path)
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert not os.path.exists(out) or not os.listdir(out)


# flag values around and beyond every domain edge; argparse takes a leading
# "-" as a value only in the --flag=value form
_NUMBER = st.one_of(
    st.floats(-2.0, 400.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1e-10", "1e300", "-1e300"]),
)
# integer grids stay small: a huge one would allocate its samples
_GRID = st.one_of(st.integers(-2, 400).map(str), st.sampled_from(["nan", "inf", "1e300", "2.5"]))
_EPS = st.sampled_from(["1e-8", "1e-3", "0", "0.5", "-1e-8", "1e-300", "nan"])
_TOL = st.sampled_from(["1e-10", "1e-6", "0", "-1e-10", "inf", "nan"])


@st.composite
def _argv(draw):
    variant = draw(st.sampled_from(["certify", "solve --a", "solve --monotone"]))
    argv = [
        variant.split()[0],
        f"--lambda={draw(_NUMBER)}",
        f"--bc={draw(st.sampled_from(['dirichlet', 'navier']))}",
    ]
    if variant == "certify":
        return argv
    argv.append(f"--a={draw(_NUMBER)}" if variant == "solve --a" else "--monotone")
    argv.append(f"--grid={draw(_GRID)}")
    for flag, values in (("--eps", _EPS), ("--tol", _TOL)):
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(argv=_argv())
def test_fuzz_main_exit_contract(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", out])
        artifacts = os.listdir(out) if os.path.exists(out) else []
        for name in artifacts:
            if name.endswith(".json"):
                with open(os.path.join(out, name)) as handle:
                    json.load(handle, parse_constant=_reject_constant)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        last = err.getvalue().splitlines()[-1]
        assert last.startswith(("error: ", "precondition error: ", "numerical failure: "))
        assert artifacts == []
