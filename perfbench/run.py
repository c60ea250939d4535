#!/usr/bin/env python3
"""Benchmark of epibvp: seeded fold, sweep and solve workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload in turn
    python3 perfbench/run.py --selfcheck                # harness self-check and smoke passes

A run makes passes over the workload's command list, sent one at a time
to ``epibvp.cli.main`` in this process, until ``--seconds`` have passed and
at least a few passes are done.  A pass's time is the sum over its commands
of each command's fastest time across the passes.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, plus the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run are written to
``.perfbench_out/spans-<workload>-<seed>.json``.

The benchmark imports epibvp from ``src/`` of the checkout it sits in and
exits with status 1, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3  # untraced passes; a traced run makes at least two of each kind
SETUP_REPS = 7

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def _setup_env() -> None:
    """One BLAS/OpenMP thread, and epibvp importable from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "epibvp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no epibvp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import epibvp

    if SRC.resolve() not in Path(epibvp.__file__).resolve().parents:
        raise SystemExit(f"perfbench: epibvp imported from {epibvp.__file__}, not {SRC}")


def measure_setup(reps: int = SETUP_REPS) -> float:
    """Median seconds from spawning a fresh interpreter to a built CLI parser.

    The child imports epibvp and calls ``main([])``, which builds the parser
    and returns the usage-error code 1.  The first spawn fills the bytecode
    cache and is not counted.
    """
    code = "import sys; from epibvp.cli import main; print(main([]), flush=True)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(reps + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, env=env, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        if line.strip() != "1":
            raise RuntimeError(f"setup probe printed {line!r}, exit {proc.returncode}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def host_probe() -> float:
    """Seconds for a fixed mix of float loop, small-array numpy and formatting.

    The probe does not touch epibvp, so its time moves only with the speed
    the machine gives this process; it is reported beside the timings, not
    used to adjust them.
    """
    import numpy as np

    start = time.perf_counter()
    u, du, t, h = 0.0, -1.0, 1e-3, 1e-5
    for _ in range(20000):
        u, du, t = u + h * du, du + h * (u * u / (8.0 * t * t) + 0.5), t + h
    a = np.linspace(-500.0, 0.0, 2000)
    for _ in range(600):
        a = a + 1e-9 * (a * a / 8.0 + 0.5)
    ",".join(format(x, ".17g") for x in np.tile(a, 3))
    return time.perf_counter() - start


def metadata() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = 0
    for path in sorted((SRC / "epibvp").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def family_seconds(passes: list) -> dict[str, float]:
    """Per-family sums of each command's fastest time across passes.

    On a shared machine the noise only ever adds time, in bursts of a few
    seconds that come and go over minutes.  The fastest of a command's
    repetitions is the estimate of its own cost that such bursts disturb
    least; taking it per command, not per pass, keeps a burst that slows
    part of one pass out of every figure.
    """
    out: dict[str, float] = {}
    for cmds in zip(*(p.commands for p in passes)):
        key = f"{cmds[0].family}_s"
        out[key] = out.get(key, 0.0) + min(c.seconds for c in cmds)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; returns the result object plus report fields."""
    import tracer
    import workloads

    inputs = workloads.make_inputs(name, seed, smoke)
    setup_s = measure_setup(1 if smoke else SETUP_REPS)
    workdir = str(OUT / f"work-{name}-{seed}")
    plain, traced, layers, spans, unwrapped = [], [], [], [], set()
    start = time.perf_counter()
    min_passes = 2 if trace or smoke else MIN_PASSES
    probes = []
    while True:
        probes += [host_probe() for _ in range(3)]
        if trace and len(plain) > len(traced):
            with tracer.Tracer() as tr:
                result = workloads.run_pass(name, inputs, workdir)
            traced.append(result)
            layers.append(tracer.layer_metrics(tr.spans, workloads.family_of))
            spans.append(tr.spans)
            unwrapped.update(tr.missing)
        else:
            plain.append(workloads.run_pass(name, inputs, workdir))
        done = len(plain) >= min_passes and (not trace or len(traced) >= min_passes)
        if done and time.perf_counter() - start >= seconds:
            break

    passes = plain + traced
    attempted = sum(len(p.commands) for p in passes)
    failures = [f for p in passes for f in p.failures]
    digests = sorted({p.digest for p in passes})
    deterministic = len(digests) == 1
    families = family_seconds(plain)
    wall_s = sum(families.values())
    accuracy = {k: max(p.accuracy.get(k, 0.0) for p in passes)
                for k in ("fold_rel_width", "max_fi_resid", "max_rep_resid")
                if any(k in p.accuracy for p in passes)}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the per-workload figures: pass time, per-family times, failures, accuracy
    table = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        **{k: (v, "s") for k, v in families.items()},
        "fail_frac": (len(failures) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        **{k: (v, "ratio" if k == "fold_rel_width" else "1") for k, v in accuracy.items()},
    }

    if trace:
        values = tracer.fastest_metrics(layers)
        values["trace.overhead_s"] = sum(family_seconds(traced).values()) - wall_s
        units = tracer.LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{name}-{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "passes": [
                [[s.name, s.cmd, s.parent, s.start, s.end, s.attrs] for s in pass_spans]
                for pass_spans in spans]}, fh)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - len(failures) / attempted,
        }
        units = E2E_UNITS
    return {
        "result": {
            "correct": not failures and deterministic,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        },
        "table": table,
        "report": {
            "workload": name, "seed": seed, "trace": int(trace),
            "passes": len(plain), "traced_passes": len(traced),
            "commands_per_pass": len(plain[0].commands),
            "pass_wall_s": [round(p.wall_s, 4) for p in plain],
            "traced_pass_wall_s": [round(p.wall_s, 4) for p in traced],
            "deterministic": deterministic, "digest": digests[0] if deterministic else digests,
            "failures": failures[:5],
            "unwrapped_entry_points": sorted(unwrapped),
            "host_probe_ms": 1e3 * statistics.median(probes),
        },
    }


def print_result(out: dict) -> None:
    result, report, table = out["result"], out["report"], out["table"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"passes {report['passes']} untraced, {report['traced_passes']} traced  "
          f"commands/pass {report['commands_per_pass']}")
    rows = dict(table)
    rows.update({k: (m["value"], m["unit"]) for k, m in result["metrics"].items()})
    for key, (value, unit) in rows.items():
        print(f"  {key:30s} {value:14.6g} {unit}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print("meta " + json.dumps({**metadata(), **report}, sort_keys=True))
    print(json.dumps(result), flush=True)


def selfcheck() -> int:
    """Fold counts under tracing, wrapper removal, and a smoke pass per workload."""
    import tracer
    import workloads
    from epibvp import cli

    ok = True

    def verdict(passed: bool, what: str) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {what}")

    for kind, want in (("dirichlet", (11, 331)), ("navier", (8, 376))):
        with tracer.Tracer() as tr:
            code = cli.main(["fold", "--bc", kind, "--out", str(OUT / "selfcheck")])
        shutil.rmtree(OUT / "selfcheck", ignore_errors=True)
        m = tracer.layer_metrics(tr.spans, workloads.family_of)
        got = (int(m["continuation.root_sets"]), int(m["integrator.endpoint_shots"]))
        verdict(code == 0 and got == want and not tr.missing,
                f"default {kind} fold: {got[0]} root sets, {got[1]} endpoint shots "
                f"(want {want[0]}, {want[1]}); unwrapped entry points {tr.missing}")
    left = tracer.wrappers_left()
    verdict(not left, f"wrappers removed after tracing (left: {left})")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            out = run_workload(name, 0, 0.0, trace, smoke=True)
            print_result(out)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in out["result"]["metrics"].items()}
            verdict(out["result"]["correct"] and got == want,
                    f"smoke {name} trace {int(trace)}: every {key} metric printed with its unit")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["fold", "sweep", "solve", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the tracing harness and smoke-test every workload")
    args = parser.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        parser.error("--workload or --selfcheck is required")
    _setup_env()
    if args.selfcheck:
        return selfcheck()
    names = ("fold", "sweep", "solve") if args.workload == "all" else (args.workload,)
    for name in names:
        print_result(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
