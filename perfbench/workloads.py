"""Seeded workloads, one pass over their command lists, and output checks.

Every command goes through ``epibvp.cli.main`` in this process, one after
the other (a closed loop with a single client): the re-solves of the
``solve`` workload take their slopes from the ``roots.json`` that the
preceding command just wrote.  The program sees only the generated argv.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field

from epibvp import cli

WORKLOADS = ("fold", "sweep", "solve")

# acceptance thresholds of a validation report at the default tolerances,
# fixed here so that a change loosening the program's defaults still fails
FI_TOL = 1e-6
REP_TOL = 1e-5
SIGN_TOL = 1e-8
BOUNDARY_TOL = 1e-8

FOLD_TOL = {"dirichlet": 0.5, "navier": 0.05}
# the certificate-backed brackets: existence at or below, none at or above
CERT_BRACKET = {"dirichlet": (144.0, 307.0), "navier": (9.0, 128.0 / 11.0)}
# the published fold ranges (acceptance criteria 1 and 2)
FOLD_RANGE = {"dirichlet": (160.0, 178.0), "navier": (11.2, 11.5)}
UNIVERSAL_BOUND = 64.0 * math.pi ** 2
# per kind: fold value (to about 1e-6), halvings of the default bracket at the
# default tolerance, the dyadic cell of the fold in the default bracket, and
# the range of seeded bracket widths that keeps both and stays inside the
# certificate bracket
FOLD_PATH = {
    "dirichlet": (168.76943, 9, 77, (130.0, 162.5)),
    "navier": (11.3408094, 6, 56, (1.7, 2.4)),
}
FOLD_SMOKE_TOL = {"dirichlet": 8.0, "navier": 0.12}
# largest lam a sweep visits: about 1% below the fold, where both branches
# still return two roots
SWEEP_TOP = {"dirichlet": 167.0, "navier": 11.23}
CERTIFY_TOP = {"dirichlet": 700.0, "navier": 20.0}
RESOLVE_GRIDS = (2001, 64001)
DEFAULT_GRID = 16001


def family_of(argv: list[str]) -> str:
    """Command family of one CLI invocation, the unit of the per-family times."""
    command = argv[0] if argv else ""
    if command != "solve":
        return command
    if "--monotone" in argv:
        return "monotone"
    if "--a" in argv:
        return "resolve"
    return "solve_roots"


def _num(x: float) -> str:
    return format(x, ".6f")


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n ascending values, one uniform draw in each of n equal cells of [lo, hi]."""
    width = (hi - lo) / n
    return [lo + width * (i + rng.random()) for i in range(n)]


def _fold_bracket(rng: random.Random, kind: str) -> tuple[str, str]:
    """Seeded bracket inside the certificate bracket, on the default's bisection path.

    Bisection cost depends on how many midpoints fall below the fold (each
    of those finds and validates two roots).  The bracket width is drawn so
    the default tolerance needs the default bracket's number of halvings,
    and the fold's relative position is drawn from the middle half of the
    dyadic cell that holds it in the default bracket, so every seed takes
    the default bracket's path of above/below decisions.
    """
    lam0, halvings, cell, (w_lo, w_hi) = FOLD_PATH[kind]
    width = rng.uniform(w_lo, w_hi)
    rel = (cell + rng.uniform(0.25, 0.75)) / 2 ** halvings
    lo = lam0 - rel * width
    return _num(lo), _num(lo + width)


def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """Inputs of one workload, a pure function of the seed.

    ``smoke`` shrinks every list (and coarsens the fold tolerance) for a
    quick pass that exercises the same commands and checks.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fold":
        return {kind: _fold_bracket(rng, kind) + ((FOLD_SMOKE_TOL[kind],) if smoke else (None,))
                for kind in FOLD_PATH}
    if workload == "sweep":
        n = 2 if smoke else 8
        return {
            kind: ["0"] + [_num(x) for x in _strata(rng, 0.0, top, n)]
            for kind, top in SWEEP_TOP.items()
        }
    if workload == "solve":
        roots_lams = {"dirichlet": (2.0, 160.0), "navier": (0.2, 11.0)}
        mono_lams = {"dirichlet": CERT_BRACKET["dirichlet"][0],
                     "navier": CERT_BRACKET["navier"][0]}
        n = 1 if smoke else 2
        return {
            "roots": {k: [_num(x) for x in _strata(rng, lo, hi, n)]
                      for k, (lo, hi) in roots_lams.items()},
            "monotone": {k: [_num(x) for x in _strata(rng, 0.0, top, n)]
                         for k, top in mono_lams.items()},
            "certify": {k: [_num(x) for x in _strata(rng, 0.0, top, 10 if smoke else 100)]
                        for k, top in CERTIFY_TOP.items()},
            "grids": (RESOLVE_GRIDS[0], DEFAULT_GRID) if smoke else RESOLVE_GRIDS,
        }
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Command:
    argv: list[str]
    out: str
    code: int
    seconds: float
    error: str = ""

    @property
    def family(self) -> str:
        return family_of(self.argv)


@dataclass
class PassResult:
    wall_s: float
    commands: list[Command]
    digest: str = ""
    failures: list[str] = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)


class _Runner:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.commands: list[Command] = []

    def __call__(self, *argv: str) -> Command:
        out = os.path.join(self.workdir, f"c{len(self.commands):04d}")
        sink = io.StringIO()
        error = ""
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli.main([*argv, "--out", out])
            except Exception as exc:  # a traceback is a failed command, not a dead benchmark
                code = -1
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        if code != 0 and not error:
            lines = sink.getvalue().strip().splitlines()
            error = lines[-1] if lines else "no message"
        cmd = Command(list(argv), out, code, seconds, error)
        self.commands.append(cmd)
        return cmd


def _send(workload: str, inputs: dict, run: _Runner) -> None:
    if workload == "fold":
        for kind, (lo, hi, tol) in inputs.items():
            extra = ["--tol", str(tol)] if tol is not None else []
            run("fold", "--bc", kind, "--lo", lo, "--hi", hi, *extra)
    elif workload == "sweep":
        for kind, lams in inputs.items():
            run("sweep", "--bc", kind, "--lambdas", ",".join(lams))
    elif workload == "solve":
        for kind, lams in inputs["roots"].items():
            for lam in lams:
                cmd = run("solve", "--bc", kind, "--lambda", lam)
                try:
                    with open(os.path.join(cmd.out, "roots.json"), encoding="utf-8") as fh:
                        slopes = [r["a"] for r in json.load(fh)["roots"]]
                except (OSError, ValueError, KeyError, TypeError):
                    continue  # the command's own check reports the missing or bad file
                for a in slopes:
                    for grid in inputs["grids"]:
                        run("solve", "--bc", kind, "--lambda", lam, "--a", repr(a),
                            "--grid", str(grid))
        for kind, lams in inputs["monotone"].items():
            for lam in lams:
                run("solve", "--bc", kind, "--lambda", lam, "--monotone")
        for kind, lams in inputs["certify"].items():
            for lam in lams:
                run("certify", "--bc", kind, "--lambda", lam)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, inputs: dict, workdir: str) -> PassResult:
    """One timed pass, then (untimed) the digest and the output checks."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = _Runner(workdir)
    start = time.perf_counter()
    _send(workload, inputs, run)
    result = PassResult(time.perf_counter() - start, run.commands)
    result.digest = artifact_digest(workdir)
    for cmd in run.commands:
        problem = cmd.error if cmd.code != 0 else check_command(cmd, result.accuracy)
        if problem:
            result.failures.append(f"{' '.join(cmd.argv)}: exit {cmd.code}: {problem}")
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def artifact_digest(workdir: str) -> str:
    """SHA-256 over every artifact's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(workdir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, workdir).encode() + b"\0")
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks: each returns "" when the command's artifacts are correct
# ---------------------------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=_reject_constant)


def _arg(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_command(cmd: Command, accuracy: dict) -> str:
    try:
        for name in sorted(os.listdir(cmd.out)):
            if name.endswith(".json"):
                _load_json(os.path.join(cmd.out, name))
        return _CHECKS[cmd.family](cmd, accuracy)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _worst(accuracy: dict, key: str, value: float) -> None:
    accuracy[key] = max(accuracy.get(key, 0.0), value)


def _check_fold(cmd: Command, accuracy: dict) -> str:
    kind = _arg(cmd.argv, "--bc")
    d = _load_json(os.path.join(cmd.out, "fold.json"))
    lo, hi = d["lo"], d["hi"]
    tol = float(_arg(cmd.argv, "--tol") or FOLD_TOL[kind])
    given = (float(_arg(cmd.argv, "--lo")), float(_arg(cmd.argv, "--hi")))
    cert = CERT_BRACKET[kind]
    published = FOLD_RANGE[kind]
    _worst(accuracy, "fold_rel_width", (hi - lo) / hi)
    if d["kind"] != kind:
        return f"kind {d['kind']} != {kind}"
    if not 0.0 < hi - lo <= tol:
        return f"bracket width {hi - lo} not in (0, {tol}]"
    if not (published[0] <= lo and hi <= published[1]):
        return f"bracket [{lo}, {hi}] outside {list(published)}"
    if not (cert[0] <= lo and hi <= cert[1] and given[0] <= lo and hi <= given[1]):
        return f"bracket [{lo}, {hi}] outside the certificate or given bracket"
    return ""


def _check_sweep(cmd: Command, accuracy: dict) -> str:
    lams = [float(x) for x in _arg(cmd.argv, "--lambdas").split(",")]
    with open(os.path.join(cmd.out, "diagram.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "lambda,a,branch":
        return f"bad header {lines[0]!r}"
    rows: dict[float, list[tuple[float, str]]] = {}
    for line in lines[1:]:
        lam, a, branch = line.split(",")
        rows.setdefault(float(lam), []).append((float(a), branch))
    if sorted(rows) != lams:
        return f"diagram lams {sorted(rows)} != requested {lams}"
    for lam, points in rows.items():
        nontrivial = sorted(p for p in points if p[0] != 0.0)
        if not 1 <= len(nontrivial) <= 2:
            return f"{len(nontrivial)} nontrivial roots at lam {lam}"
        if any(b not in ("lower", "upper") for _, b in points):
            return f"unknown branch label at lam {lam}"
        if len(nontrivial) == 2 and [b for _, b in nontrivial] != ["lower", "upper"]:
            return f"branches mislabelled at lam {lam}: {nontrivial}"
    return ""


def _check_solution(out: str, suffix: str, grid: int, accuracy: dict) -> str:
    report = _load_json(os.path.join(out, f"validation{suffix}.json"))
    fi = report["first_integral_resid"]
    rep = report["representation_resid"]
    _worst(accuracy, "max_fi_resid", fi)
    _worst(accuracy, "max_rep_resid", rep)
    if not (fi < FI_TOL and rep < REP_TOL and report["sign_violation"] <= SIGN_TOL
            and abs(report["boundary_resid"]) < BOUNDARY_TOL):
        return f"validation{suffix}.json not accepted: {report}"
    for stem, header in (("trajectory", "t,u,du"), ("profile", "r,w,phi")):
        with open(os.path.join(out, f"{stem}{suffix}.csv"), encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
            rows = sum(1 for _ in fh)
        if first != header or rows != grid:
            return f"{stem}{suffix}.csv: header {first!r}, {rows} rows, want {grid}"
    return ""


def _check_solve_roots(cmd: Command, accuracy: dict) -> str:
    d = _load_json(os.path.join(cmd.out, "roots.json"))
    slopes = [r["a"] for r in d["roots"]]
    if len(slopes) != 2 or not -500.0 < slopes[0] < slopes[1] < 0.0:
        return f"want two ascending negative slopes, got {slopes}"
    for i in range(len(slopes)):
        problem = _check_solution(cmd.out, f"_root{i}", DEFAULT_GRID, accuracy)
        if problem:
            return problem
    return ""


def _check_single(cmd: Command, accuracy: dict) -> str:
    return _check_solution(cmd.out, "", int(_arg(cmd.argv, "--grid") or DEFAULT_GRID), accuracy)


def _expected_verdicts(kind: str, lam: float) -> dict[str, set[str]]:
    """Verdicts each certificate may return at lam (the truth table by region)."""
    exist, none, inc = "Existence", "Nonexistence", "Inconclusive"
    lower_top, nonexist_from = CERT_BRACKET[kind]
    fold_low = FOLD_RANGE[kind][0]
    if kind == "dirichlet":
        lower, nonexist = "LowerDirichlet", "NonexistDirichlet"
        nonexist_ok = {none} if lam >= nonexist_from else ({inc} if lam < fold_low else {inc, none})
    else:
        lower, nonexist = "LowerNavier", "NonexistNavier"
        nonexist_ok = {none} if lam > nonexist_from else {inc}
    return {
        lower: {exist} if lam <= lower_top else {inc},
        nonexist: nonexist_ok,
        "Universal": {none} if lam > UNIVERSAL_BOUND else {inc},
    }


def _check_certify(cmd: Command, accuracy: dict) -> str:
    kind = _arg(cmd.argv, "--bc")
    lam = float(_arg(cmd.argv, "--lambda"))
    certs = _load_json(os.path.join(cmd.out, "certificates.json"))
    got = {c["kind"]: c["verdict"] for c in certs}
    want = _expected_verdicts(kind, lam)
    if set(got) != set(want):
        return f"certificate kinds {sorted(got)} != {sorted(want)}"
    for name, verdict in got.items():
        if verdict not in want[name]:
            return f"{name} says {verdict} at lam {lam}, want one of {sorted(want[name])}"
    return ""


_CHECKS = {
    "fold": _check_fold,
    "sweep": _check_sweep,
    "solve_roots": _check_solve_roots,
    "resolve": _check_single,
    "monotone": _check_single,
    "certify": _check_certify,
}
