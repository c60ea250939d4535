"""CLI subcommands, exit codes, artifact round-trips, and determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epibvp import certificates, cli, continuation, integrator, shooting
from epibvp.cli import main


def run(tmp_path, *argv):
    out = os.path.join(tmp_path, "out")
    return main(list(argv) + ["--out", out]), out


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


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


@pytest.mark.parametrize("bc, lam, eps", [
    ("dirichlet", "100", "0.26"), ("dirichlet", "100", "0.3"), ("navier", "5", "0.3"),
    ("navier", "5", "0.49"),
])
def test_solve_with_eps_past_one_quarter(tmp_path, bc, lam, eps):
    """From eps = 1/4 on, the scan steps from eps straight to 1/2 and sees
    one extremum: the Dirichlet residual stays above 0 and both Navier
    candidates fail the validation gate, so the root set is empty and the
    solve succeeds."""
    code, out = run(tmp_path, "solve", "--bc", bc, "--lambda", lam, "--eps", eps,
                    "--grid", "2001")
    assert code == 0
    assert json.load(open(os.path.join(out, "roots.json")))["roots"] == []


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


def test_fold_navier(tmp_path, capsys):
    code, out = run(
        tmp_path, "fold", "--bc", "navier",
        "--lo", "9", "--hi", "11.6363", "--tol", "0.05",
    )
    assert code == 0
    text = open(os.path.join(out, "fold.json")).read()
    assert capsys.readouterr().out == text
    fold = json.loads(text)
    assert list(fold) == ["lo", "hi", "kind", "lam0", "a_star"]
    assert fold["kind"] == "navier"
    lo, hi = fold["lo"], fold["hi"]
    assert hi - lo <= 0.05
    assert abs(0.5 * (lo + hi) - 11.3) <= 0.1
    assert lo < fold["lam0"] < hi
    assert fold["a_star"] < 0.0


def test_fold_tol_1e_4_certifies(tmp_path):
    # any positive --tol is accepted; the Navier fold certifies a bracket
    # far narrower than 1e-4
    code, out = run(
        tmp_path, "fold", "--bc", "navier", "--lo", "11.3", "--hi", "11.4", "--tol", "1e-4",
    )
    assert code == 0
    with open(os.path.join(out, "fold.json")) as handle:
        fold = json.load(handle)
    assert fold["hi"] - fold["lo"] <= 1e-4


def test_fold_without_a_sign_change_is_numerical_failure(tmp_path, capsys, monkeypatch):
    """No shot at lam_ref may keep its launch sign up to t = 1/2, as no
    solution exists there; one that does is a numerical failure."""
    monkeypatch.setattr(continuation, "shoot_event", lambda spec, a: None)
    code, out = run(tmp_path, "fold", "--bc", "navier")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: ") and "keeps the launch sign" in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not os.path.exists(out) or not os.listdir(out)


@pytest.mark.parametrize("residual", [
    lambda real, spec, a: math.inf,
    lambda real, spec, a: -real(spec, a),
], ids=["diverged", "wrong-sign"])
def test_fold_newton_step_without_a_usable_r_aa_is_numerical_failure(
        tmp_path, capsys, monkeypatch, residual):
    """The fold's Newton step needs a finite R_aa of the residual
    extremum's sign; diverged shots, or a residual of the wrong curvature,
    end the run with one line and no artifact."""
    real = continuation._residual_at
    monkeypatch.setattr(continuation, "_residual_at",
                        lambda spec, a: residual(real, spec, a))
    code, out = run(tmp_path, "fold", "--bc", "dirichlet")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: the fold's Newton step at lam = ")
    assert "R_aa = " in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not os.path.exists(out) or not os.listdir(out)


def test_two_extrema_in_the_scan_is_numerical_failure(tmp_path, capsys, monkeypatch):
    """A scan row whose residual dips twice is refused, not guessed around."""

    def two_dips(spec, lams):
        a = np.linspace(spec.slope_min, spec.slope_max, spec.scan_n)
        return np.tile(np.cos(2.0 * np.pi * a / 250.0), (len(lams), 1))

    monkeypatch.setattr(shooting, "_scan_residuals", two_dips)
    code, out = run(tmp_path, "solve", "--lambda", "100", "--bc", "dirichlet")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: ") and "second extremum" in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not os.path.exists(out) or not os.listdir(out)


@pytest.mark.parametrize("bc", ["dirichlet", "navier"])
def test_certify_largest_double_is_strict_json(tmp_path, bc):
    code, out = run(tmp_path, "certify", "--lambda", "1.7976931348623157e308", "--bc", bc)
    assert code == 0
    with open(os.path.join(out, "certificates.json")) as handle:
        certs = json.load(handle, parse_constant=_reject_constant)
    assert all(c["lambda"] == 1.7976931348623157e308 for c in certs)


def test_sweep_csv(tmp_path):
    code, out = run(tmp_path, "sweep", "--lambdas", "0,5", "--bc", "navier")
    assert code == 0
    path = os.path.join(out, "diagram.csv")
    assert open(path).readline() == "lambda,a,branch\n"
    lams = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0, ndmin=1)
    assert set(lams) == {0.0, 5.0}


def test_sweep_json_rows_equal_csv(tmp_path):
    argv = ["sweep", "--lambdas", "0,5,11.3", "--bc", "navier"]
    assert main(argv + ["--out", os.path.join(tmp_path, "csv")]) == 0
    assert main(argv + ["--format", "json", "--out", os.path.join(tmp_path, "json")]) == 0
    with open(os.path.join(tmp_path, "csv", "diagram.csv")) as handle:
        csv_rows = [line.split(",") for line in handle.read().splitlines()[1:]]
    with open(os.path.join(tmp_path, "json", "diagram.json")) as handle:
        json_rows = json.load(handle, parse_constant=_reject_constant)
    assert len(csv_rows) == 6
    assert [(float(lam), float(a), branch) for lam, a, branch in csv_rows] == [
        (row["lambda"], row["a"], row["branch"]) for row in json_rows
    ]


def test_import_loads_no_scipy_solvers(tmp_path):
    """``import epibvp.cli`` loads no scipy at all, and neither does a
    monotone solve of either kind: scipy.linalg alone would add about 0.3 s
    to every start-up and about 26 MB of memory."""
    code = (
        "import sys, epibvp.cli\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "for kind, lam in [('dirichlet', '144'), ('navier', '9')]:\n"
        "    argv = ['solve', '--monotone', '--bc', kind, '--lambda', lam, '--out', sys.argv[1] + kind]\n"
        "    assert epibvp.cli.main(argv) == 0\n"
        "print(loaded())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "mono_")], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert done.stdout.split("\n")[:2] == ["[]", "[]"]
    assert sorted(os.listdir(tmp_path)) == ["mono_dirichlet", "mono_navier"]


def test_import_loads_no_numpy_polynomial():
    """``import epibvp.cli`` loads no numpy.polynomial: the Gauss-Legendre
    rule of the validator is literal constants, and numpy.polynomial would
    add about 4 ms and 1.7 MB to every start-up."""
    code = ("import sys, epibvp.cli\n"
            "print(sorted(m for m in sys.modules if 'numpy.polynomial' in m))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert done.stdout == "[]\n"


def test_start_builds_no_csv_table():
    """``main([])``, the start-up that the benchmark times as ``setup_s``,
    builds none of the CSV kernel's tables; a process's first CSV does."""
    code = (
        "import numpy as np\n"
        "from epibvp import serialize\n"
        "from epibvp.cli import main\n"
        "print(main([]), serialize._tables.cache_info().currsize)\n"
        "serialize._cells(np.ones(2))\n"
        "print(serialize._tables.cache_info().currsize)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert done.stdout.split("\n")[:2] == ["1 0", "1"]


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


@pytest.mark.parametrize("grid", ["2", "101", "2001"])
@pytest.mark.parametrize("bc, lam", [("dirichlet", "144"), ("navier", "9")],
                         ids=["dirichlet-144", "navier-9"])
def test_monotone_solve_is_judged_like_the_default_grid(tmp_path, bc, lam, grid):
    """A monotone solve on any output grid succeeds, and its validation.json
    is the default grid's: the polynomial is validated on its own panels."""
    argv = ["solve", "--bc", bc, "--lambda", lam, "--monotone"]
    code, out = run(tmp_path / "coarse", *argv, "--grid", grid)
    assert code == 0
    assert load_csv(os.path.join(out, "trajectory.csv")).shape[0] == int(grid)
    code, default = run(tmp_path / "default", *argv)
    assert code == 0
    with open(os.path.join(out, "validation.json"), "rb") as coarse, \
            open(os.path.join(default, "validation.json"), "rb") as calibrated:
        assert coarse.read() == calibrated.read()


@pytest.mark.parametrize("bc, lam, a", [
    ("navier", "9", "-4.742307280271374"), ("dirichlet", "100", "-108.52567289833944"),
], ids=["navier-9", "dirichlet-100-lower"])
def test_single_slope_report_does_not_depend_on_the_grid(tmp_path, bc, lam, a):
    """``solve --a`` writes byte-equal validation.json at --grid 2, 2001 and
    64001: the shot is validated on its own steps, not on the samples."""
    reports = set()
    for grid in ("2", "2001", "64001"):
        code, out = run(tmp_path / grid, "solve", "--bc", bc, "--lambda", lam, "--a", a,
                        "--grid", grid)
        assert code == 0
        with open(os.path.join(out, "validation.json"), "rb") as handle:
            reports.add(handle.read())
    assert len(reports) == 1


def test_monotone_solve_runs_the_picard_iteration_once(tmp_path, monkeypatch):
    """A monotone solve on a coarse grid samples and validates one Picard
    solution."""
    calls = []
    real = certificates._picard_solve
    monkeypatch.setattr(certificates, "_picard_solve",
                        lambda lam, kind: calls.append(lam) or real(lam, kind))
    code, _ = run(tmp_path, "solve", "--bc", "dirichlet", "--lambda", "144", "--monotone",
                  "--grid", "101")
    assert code == 0
    assert calls == [144.0]


def test_out_of_memory_is_a_precondition_error(tmp_path, capsys, monkeypatch):
    """A MemoryError, e.g. from a --grid the host cannot hold, exits 2 with
    one line and writes no file, for one slope and for all roots (whose
    roots.json waits for every root's samples); the stand-in sampler
    allocates nothing."""
    def no_memory(shot, grid_n):
        raise MemoryError(f"Unable to allocate {8 * grid_n} bytes")

    monkeypatch.setattr(integrator.Shot, "trajectory", no_memory)
    for i, slope in enumerate([["--a", "0"], []]):
        code, out = run(tmp_path / str(i), "solve", "--lambda", "0", "--bc", "dirichlet",
                        *slope, "--grid", "100000000000")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("precondition error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not os.path.exists(out) or not os.listdir(out)


@pytest.mark.parametrize("argv", [
    ["solve", "--no-such-flag"],
    ["sweep", "--lo", "0", "--hi", "5", "--n", "-1", "--bc", "navier"],
    ["certify", "--lambda", "5", "--bc", "navier", "--grid", "2"],
    ["fold", "--bc", "navier", "--format", "json"],
    ["solve", "--lambda", "100", "--bc", "dirichlet", "--a", "-5", "--monotone"],
    ["sweep", "--lambdas", "0,5", "--bc", "navier", "--grid", "2001"],
    ["fold", "--bc", "navier", "--grid", "2001"],
], ids=["no-such-flag", "range-n-negative", "certify-grid", "fold-format", "a-with-monotone",
        "sweep-grid", "fold-grid"])
def test_usage_error_unknown_flag(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert not os.path.exists(out) or not os.listdir(out)


_CERTIFY = ["certify", "--lambda", "1", "--bc", "navier"]


@pytest.mark.parametrize("argv, name, below", [
    (_CERTIFY, "certificates.json", False),
    (_CERTIFY, "certificates.json", True),
    (["solve", "--bc", "navier", "--lambda", "9", "--a", "-4.742307280271374", "--grid", "101"],
     "trajectory.csv", True),
], ids=["file", "below-a-file", "solve-a"])
def test_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, argv, name, below):
    """An --out naming a regular file, or a path below one, exits 1 with
    one line, not with the OSError's traceback; a solution's CSV pair names
    its trajectory file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(blocker / "sub") if below else str(blocker)
    code = main(argv + ["--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [
        f"error: cannot write {os.path.join(out, name)}: "
        + ("Not a directory" if below else "File exists")
    ]
    assert captured.out == ""
    assert blocker.read_text() == ""


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


@pytest.mark.parametrize("bc, eps", [
    ("dirichlet", "0.01"), ("dirichlet", "0.1"), ("dirichlet", "0.3"),
    ("navier", "0.01"), ("navier", "0.1"), ("navier", "0.3"),
], ids=["0.01", "0.1", "0.3", "navier-0.01", "navier-0.1", "navier-0.3"])
def test_coarse_eps_fold_is_numerical_failure(tmp_path, capsys, bc, eps):
    """At a coarse eps the shot at lam_ref from the window's golden-section
    slope changes sign before its launch at eps and keeps its launch sign up
    to t = 1/2 (0.1, 0.3), or the bracket does not certify, as the root at
    lam0 - d fails validation (0.01): exit 3.  A certificate that fails at
    the gate names the rejected root's report on the same line."""
    code, out = run(tmp_path, "fold", "--bc", bc, "--eps", eps)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert (" does not certify: the gate rejected the lower root a = " in err) == (eps == "0.01")
    assert ("first_integral_resid = " in err) == (eps == "0.01")
    assert not os.path.exists(out) or not os.listdir(out)


@pytest.fixture(scope="module")
def default_fold_widths():
    """hi - lo of each kind's default fold."""
    widths = {}
    for bc in ("dirichlet", "navier"):
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            assert main(["fold", "--bc", bc, "--out", out]) == 0
            fold = json.load(open(os.path.join(out, "fold.json")))
        widths[bc] = fold["hi"] - fold["lo"]
    return widths


@pytest.mark.parametrize("bc, eps", [
    ("dirichlet", "1e-3"), ("navier", "5e-3"), ("dirichlet", "1.5e-154"), ("navier", "1.5e-154"),
], ids=["dirichlet-1e-3", "navier-5e-3", "dirichlet-1.5e-154", "navier-1.5e-154"])
def test_coarse_and_fine_eps_fold_certifies_at_the_default_width(
        tmp_path, capsys, default_fold_widths, bc, eps):
    """The fold is that of the problem the certificate shoots, launched at
    --eps, so a coarse eps certifies at the first d, as wide as the
    default's to 1%, and so does the finest eps whose square is normal."""
    code, out = run(tmp_path, "fold", "--bc", bc, "--eps", eps)
    assert code == 0, capsys.readouterr().err
    fold = json.load(open(os.path.join(out, "fold.json")))
    assert fold["hi"] - fold["lo"] == pytest.approx(default_fold_widths[bc], rel=1e-2)
    assert fold["lo"] < fold["lam0"] < fold["hi"]


@pytest.mark.parametrize("argv", [
    ["certify", "--lambda", "nan", "--bc", "navier"],
    ["certify", "--lambda", "inf", "--bc", "dirichlet"],
    ["sweep", "--lambdas", "100,nan", "--bc", "dirichlet"],
    ["solve", "--tol", "0", "--a", "-16", "--lambda", "100", "--bc", "dirichlet"],
    ["solve", "--tol=-1e-10", "--a", "-16", "--lambda", "100", "--bc", "dirichlet"],
    ["fold", "--bc", "navier", "--tol", "nan"],
    ["solve", "--monotone", "--lambda", "144.000000001", "--bc", "dirichlet"],
    ["solve", "--monotone", "--lambda", "9.000000001", "--bc", "navier"],
    ["solve", "--lambda", "1", "--bc", "navier", "--a-min=-inf"],
    ["solve", "--lambda", "1", "--bc", "dirichlet", "--a=-1", "--eps", "1e-300"],
    ["solve", "--lambda", "100", "--bc", "dirichlet", "--eps", "5.6e-163"],
    ["solve", "--lambda", "100", "--bc", "dirichlet", "--eps", "1e-161"],
    ["fold", "--bc", "navier", "--a-min", "-8", "--a-max", "-1"],
    ["fold", "--bc", "dirichlet", "--a-max", "-60"],
    ["fold", "--bc", "navier", "--lo", "11.3408094", "--hi", "11.5"],
    ["fold", "--bc", "dirichlet", "--a-min", "-1e308", "--a-max", "-1e307"],
    ["solve", "--lambda", "0", "--bc", "dirichlet", "--a", "0", "--grid", "9223372036854775807"],
    ["solve", "--lambda", "0", "--bc", "dirichlet", "--a", "0", "--grid", "1152921504606846976"],
], ids=[
    "certify-nan", "certify-inf", "sweep-nan", "solve-tol-0", "solve-tol-neg", "fold-tol-nan",
    "monotone-above-144", "monotone-above-9", "slope-min-inf",
    "eps-underflow", "eps-square-5.6e-163", "eps-square-1e-161",
    "fold-slope-below-window", "fold-slope-above-window", "fold-within-d-of-lo",
    "fold-scan-not-finite", "grid-intp-max", "grid-2-to-60",
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
    ["sweep", "--lambdas", "1", "--bc", "navier", "--a-min=-1e308", "--a-max=-1e307"],
    ["solve", "--lambda", "5", "--bc", "navier", "--tol", "1e300"],
    ["sweep", "--lambdas", "5", "--bc", "navier", "--tol", "1e300"],
], ids=["solve", "sweep", "solve-tol-1e300", "sweep-tol-1e300"])
def test_overflowing_scan_window_is_silent(tmp_path, capsys, argv):
    # in the window cases every slope overflows at launch and is masked to
    # +inf by the scan; at --tol 1e300 the error norm of a refinement shot
    # underflows, so its step factor 1/err overflows to inf; a successful
    # run still writes nothing to stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, *argv)
    assert code == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def test_negative_values_in_exponent_form(tmp_path, capsys):
    """A value with a leading "-" in any float spelling is read as a value,
    not as a flag: the window in exponent form finds both roots, each root
    spelled so solves, -1e-3 reaches the solver, and -inf is refused as a
    non-finite window."""
    code, out = run(tmp_path, "solve", "--bc", "dirichlet", "--lambda", "100",
                    "--a-min", "-3e2", "--a-max", "-1e1", "--grid", "2001")
    assert code == 0
    slopes = [r["a"] for r in json.load(open(os.path.join(out, "roots.json")))["roots"]]
    assert len(slopes) == 2
    for a in slopes:
        code, _ = run(tmp_path / repr(a), "solve", "--bc", "dirichlet", "--lambda", "100",
                      "--a", f"{a:.16e}", "--grid", "2001")
        assert code == 0, a
    capsys.readouterr()
    # -1e-3 is no root at lam = 100: a numerical failure, not a usage error
    code, _ = run(tmp_path / "a", "solve", "--bc", "dirichlet", "--lambda", "100",
                  "--a", "-1e-3", "--grid", "2001")
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    code, _ = run(tmp_path / "inf", "solve", "--bc", "dirichlet", "--lambda", "100",
                  "--a-max", "-inf")
    assert code == 2
    assert capsys.readouterr().err.startswith("precondition error: ")


@pytest.mark.parametrize("a", ["nan", "inf", "-inf"])
def test_solve_non_finite_slope_is_a_precondition_error(tmp_path, capsys, a):
    """A non-finite --a is refused before any shot, in one line that names
    the slope, and writes no artifact."""
    code, out = run(tmp_path, "solve", "--bc", "dirichlet", "--lambda", "100", "--a", a)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"precondition error: the shooting slope --a must be finite, got {a}\n"
    assert not os.path.exists(out)


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
    ("certify", None),
    ("certify", '{"lambda": 5, "bc": '),
], ids=["lambda-not-a-number", "grid-not-an-int", "list-value", "not-an-object", "unknown-key",
        "missing-file", "not-json"])
def test_config_usage_error(tmp_path, capsys, command, config):
    """A config that is not a flat object of flag values, and one that
    cannot be read (None: no file; a string: that text), is a usage error."""
    path = os.path.join(tmp_path, "run.json")
    if config is not None:
        with open(path, "w") as handle:
            handle.write(config if isinstance(config, str) else json.dumps(config))
    code, out = run(tmp_path, command, "--config", path)
    assert code == 1
    unreadable = config is None or isinstance(config, str)
    prefix = "error: cannot read config" if unreadable else "error: "
    assert capsys.readouterr().err.splitlines()[-1].startswith(prefix)
    assert not os.path.exists(out) or not os.listdir(out)


def _outcome(argv, out):
    """Exit code, stdout, stderr and artifact bytes of one in-process main() call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", out])
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    files = {name: open(os.path.join(out, name), "rb").read() for name in names}
    return code, stdout.getvalue(), stderr.getvalue(), files


_NAVIER_ROOT = ["--a", "-4.742307280271374"]


@pytest.mark.parametrize("value, extra, flags", [
    (True, [], ["--monotone"]),
    (False, _NAVIER_ROOT, _NAVIER_ROOT),
], ids=["true-is-the-flag", "false-leaves-it-out"])
def test_config_boolean_key_matches_flags(tmp_path, value, extra, flags):
    """A true config key gives the bare flag, and a false one gives nothing:
    with --a beside it, a --monotone would be a usage error."""
    path = os.path.join(tmp_path, "run.json")
    with open(path, "w") as handle:
        json.dump({"monotone": value}, handle)
    solve = ["solve", "--bc", "navier", "--lambda", "9", "--grid", "101"]
    got = _outcome(solve + ["--config", path] + extra, os.path.join(tmp_path, "config"))
    assert got[0] == 0 and got == _outcome(solve + flags, os.path.join(tmp_path, "flags"))


def test_cached_parser_leaks_nothing_between_calls(tmp_path):
    """One process runs a mixed sequence of commands on the parser built once;
    each call's exit code, output and artifacts equal those of the same call
    on freshly built parsers, so no flag or value leaks into the next call."""
    config = os.path.join(tmp_path, "run.json")
    with open(config, "w") as handle:
        json.dump({"format": "json", "lambda": 0, "bc": "dirichlet", "a": 0}, handle)
    navier = ["--bc", "navier", "--lambda", "9", "--grid", "2001"]
    sequence = [
        ["solve", *navier, "--monotone"],
        ["solve", *navier, "--a", "-4.742307280271374", "--format", "json"],
        ["solve", *navier, "--a", "-1", "--monotone"],  # usage error: exclusive flags
        ["solve", *navier, "--a", "-4.742307280271374"],
        ["solve", "--config", config, "--grid", "101"],
        ["solve", "--bc", "dirichlet", "--lambda", "0", "--grid", "101", "--a", "0"],
        ["certify", "--bc", "navier", "--lambda", "9"],
        ["solve", *navier, "--monotone", "--format", "json"],
    ]
    cli._build_parser.cache_clear()
    cli._config_parser.cache_clear()
    warm = [_outcome(argv, os.path.join(tmp_path, "warm", str(i)))
            for i, argv in enumerate(sequence)]
    assert cli._build_parser.cache_info().misses == 1
    assert [w[0] for w in warm] == [0, 0, 1, 0, 0, 0, 0, 0]
    assert sorted(warm[1][3]) == ["profile.json", "trajectory.json", "validation.json"]
    assert sorted(warm[3][3]) == ["profile.csv", "trajectory.csv", "validation.json"]
    assert sorted(warm[5][3]) == ["profile.csv", "trajectory.csv", "validation.json"]
    for i, argv in enumerate(sequence):
        cli._build_parser.cache_clear()
        cli._config_parser.cache_clear()
        assert _outcome(argv, os.path.join(tmp_path, "cold", str(i))) == warm[i], argv


# flag values around and beyond every domain edge; argparse takes a leading
# "-" as a value only in the --flag=value form
_NUMBER = st.one_of(
    st.floats(-2.0, 400.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1e-10", "1e300", "-1e300", "1e308"]),
)
# integer grids stay small: a huge one would allocate its samples
_GRID = st.one_of(st.integers(-2, 400).map(str), st.sampled_from(["nan", "inf", "1e300", "2.5"]))
_EPS = st.sampled_from(["1e-8", "1e-3", "0", "0.5", "-1e-8", "1e-161", "1e-300", "nan"])
_TOL = st.sampled_from(["1e-10", "1e-6", "0", "-1e-10", "inf", "nan"])


@st.composite
def _fold_argv(draw):
    """fold argv that its bracket or tolerance check rejects before any root set."""
    argv = ["fold", f"--bc={draw(st.sampled_from(['dirichlet', 'navier']))}"]
    flaw = draw(st.sampled_from(["reversed", "lo", "hi", "tol"]))
    if flaw == "reversed":
        hi, lo = sorted(draw(st.lists(st.floats(0.0, 400.0), min_size=2, max_size=2)))
        argv += [f"--lo={lo!r}", f"--hi={hi!r}"]
    elif flaw == "lo":
        argv.append(f"--lo={draw(st.sampled_from(['nan', 'inf', '-inf', '-1e-10']))}")
    elif flaw == "hi":
        argv.append(f"--hi={draw(st.sampled_from(['nan', 'inf', '-inf']))}")
    else:
        argv.append(f"--tol={draw(st.sampled_from(['nan', 'inf', '0', '-1']))}")
    return argv


@st.composite
def _sweep_argv(draw):
    """sweep argv that its lam or tolerance check rejects before any root set."""
    lams = sorted(draw(st.lists(st.floats(0.0, 400.0), min_size=1, max_size=4)))
    text = [repr(lam) for lam in lams]
    flaw = draw(st.sampled_from(["lam", "unsorted", "empty", "tol"]))
    tol = []
    if flaw == "lam":
        bad = draw(st.sampled_from(["nan", "inf", "-inf", "-1e-10", "-1"]))
        text.insert(draw(st.integers(0, len(text))), bad)
    elif flaw == "unsorted":
        lo, hi = sorted(draw(st.lists(st.floats(0.0, 400.0), min_size=2, max_size=2, unique=True)))
        text.append(repr(lo))
        text.insert(0, repr(hi))
    elif flaw == "empty":
        text = ["", ""]
    else:
        tol = [f"--tol={draw(st.sampled_from(['0', '-0.0', '-1e-10', '-inf']))}"]
    bc = draw(st.sampled_from(["dirichlet", "navier"]))
    return ["sweep", f"--lambdas={','.join(text)}", f"--bc={bc}", *tol]


@st.composite
def _argv(draw):
    variant = draw(st.sampled_from(["certify", "solve --a", "solve --monotone", "fold", "sweep"]))
    if variant == "fold":
        return draw(_fold_argv())
    if variant == "sweep":
        return draw(_sweep_argv())
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
    if argv[0] == "fold":
        assert code == 2
    if argv[0] == "sweep":
        assert code == (1 if argv[1] == "--lambdas=," else 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        last = err.getvalue().splitlines()[-1]
        assert last.startswith(("error: ", "precondition error: ", "numerical failure: "))
        assert artifacts == []
