"""Command-line front end: solve, sweep, fold, and certify subcommands.

Every run is fully determined by its flags (or a flat JSON config file
keyed by flag name; flags win), contains no randomness, and writes its artifacts atomically,
so identical configurations produce identical output bytes.

Exit codes: 0 success, 1 usage error, 2 precondition error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .certificates import certificates_for, truncated_monotone_solve
from .continuation import (
    default_fold_bracket,
    default_fold_tol,
    locate_fold,
    sweep,
)
from .errors import BracketError, DomainError, EpibvpError, WindowTooSmallError
from .integrator import integrate, validate
from .model import BoundaryKind, ProblemSpec, reconstruct_phi
from . import serialize, shooting

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


# every float spelling with a leading "-"; argparse's own matcher misses
# exponents and -inf, and so read "--a -1e-3" as a flag without its value
_NEGATIVE_FLOAT = re.compile(
    r"-(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)(e[-+]?\d[\d_]*)?$|-(inf|infinity|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract says 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_FLOAT

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _command(sub, name: str, summary: str) -> _Parser:
    """A subcommand parser with the flags every command reads."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--bc", choices=[k.value for k in BoundaryKind], required=True,
                   help="boundary condition kind")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--config", help="flat JSON config file of flag names and values; flags win")
    return p


def _add_numerics(p, tol_dest: str, tol_help: str) -> None:
    """The ProblemSpec flags, named after the fields they set."""
    p.add_argument("--eps", type=float, help="series launch point")
    p.add_argument("--tol", dest=tol_dest, type=float, help=tol_help)
    p.add_argument("--grid", dest="grid_n", type=int, help="output sample count")
    p.add_argument("--a-min", dest="slope_min", type=float, help="scan window lower slope")
    p.add_argument("--a-max", dest="slope_max", type=float, help="scan window upper slope")


def float_list(text: str) -> list[float]:
    """Comma-separated floats; empty fields are skipped."""
    return [float(v) for v in text.split(",") if v.strip()]


@functools.cache
def _build_parser() -> _Parser:
    """The full parser, built once per process: parsing keeps no state in it."""
    parser = _Parser(prog="epibvp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = _command(sub, "solve", "integrate one problem and emit artifacts")
    p_solve.add_argument("--lambda", dest="lam", type=float, required=True)
    method = p_solve.add_mutually_exclusive_group()
    method.add_argument("--a", type=float,
                        help="shooting slope; all roots are solved when omitted")
    method.add_argument("--monotone", action="store_true",
                        help="use the monotone iteration instead of shooting")
    _add_numerics(p_solve, "step_tol", "integrator step tolerance")
    p_solve.add_argument("--format", choices=["csv", "json"], default="csv",
                         help="tabular output format")

    p_sweep = _command(sub, "sweep", "root sets across a list of lambda values")
    p_sweep.add_argument("--lambdas", type=float_list, required=True,
                         help="comma-separated lambda values, ascending")
    _add_numerics(p_sweep, "step_tol", "integrator step tolerance")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv",
                         help="tabular output format")

    p_fold = _command(sub, "fold", "solve for the fold by Newton, certify a bracket by root counts")
    p_fold.add_argument("--lo", type=float, help="bracket start")
    p_fold.add_argument("--hi", type=float, help="bracket end")
    _add_numerics(p_fold, "fold_tol", "largest certified fold bracket width")

    p_cert = _command(sub, "certify", "run all applicable certificates")
    p_cert.add_argument("--lambda", dest="lam", type=float, required=True)

    return parser


@functools.cache
def _config_parser() -> _Parser:
    """The pre-parser that reads only ``--config``, built once per process."""
    pre = _Parser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    return pre


def _with_config(argv: list[str]) -> list[str]:
    """Splice the ``--config`` file into argv as flags right after the command name.

    Each key is a flag name without its dashes: ``true`` gives the bare
    flag, ``false`` gives nothing, a string or number ``v`` gives
    ``--key=v``.  The flags go before the command line's own, so argparse's
    last-one-wins lets explicit flags win, and every value meets the same
    checks as on the command line.
    """
    try:
        path = _config_parser().parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return argv  # a --config without a value: the full parser reports it
    if path is None:
        return argv
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    flags = []
    for key, value in config.items():
        if value is False:
            continue
        if value is True:
            flags.append(f"--{key}")
        elif isinstance(value, (str, int, float)):
            flags.append(f"--{key}={value}")
        else:
            raise UsageError(f"config key {key!r} needs a string, number or boolean")
    return argv[:1] + flags + argv[1:]


_SPEC_FLAGS = ("eps", "step_tol", "grid_n", "slope_min", "slope_max")


def _spec_from_args(args, lam: float) -> ProblemSpec:
    overrides = {
        name: getattr(args, name)
        for name in _SPEC_FLAGS
        if getattr(args, name, None) is not None
    }
    return ProblemSpec(lam=lam, kind=BoundaryKind(args.bc), **overrides)


def _write(args, name: str, text: str) -> str:
    path = os.path.join(args.out, name)
    serialize.atomic_write_text(path, text)
    return path


def _emit_solution(args, traj, report, suffix: str = "") -> None:
    profile = reconstruct_phi(traj, report)
    if args.format == "csv":
        _write(args, f"trajectory{suffix}.csv", serialize.trajectory_to_csv(traj))
        _write(args, f"profile{suffix}.csv", serialize.profile_to_csv(profile))
    else:
        _write(args, f"trajectory{suffix}.json", serialize.trajectory_to_json(traj))
        _write(args, f"profile{suffix}.json", serialize.profile_to_json(profile))
    _write(args, f"validation{suffix}.json", serialize.validation_to_json(report))


def _cmd_solve(args) -> int:
    spec = _spec_from_args(args, args.lam)
    if args.monotone:
        traj = truncated_monotone_solve(spec)
        _emit_solution(args, traj, validate(traj))
        return EXIT_OK
    if args.a is not None:
        traj = integrate(spec, args.a)
        _emit_solution(args, traj, shooting.calibrated_report(spec, traj))
        return EXIT_OK
    roots = shooting.find_shooting_roots(spec)
    _write(args, "roots.json", serialize.rootset_to_json(roots))
    for i, root in enumerate(roots.roots):
        _emit_solution(args, root.traj, root.report, suffix=f"_root{i}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if not args.lambdas:
        raise UsageError("sweep needs at least one lambda value")
    spec = _spec_from_args(args, args.lambdas[0])
    points = sweep(spec.kind, args.lambdas, spec)
    if args.format == "csv":
        _write(args, "diagram.csv", serialize.diagram_to_csv(points))
    else:
        _write(args, "diagram.json", serialize.diagram_to_json(points))
    return EXIT_OK


def _cmd_fold(args) -> int:
    spec = _spec_from_args(args, 0.0)
    kind = spec.kind
    bracket = default_fold_bracket(kind)
    lo = args.lo if args.lo is not None else bracket[0]
    hi = args.hi if args.hi is not None else bracket[1]
    fold_tol = args.fold_tol if args.fold_tol is not None else default_fold_tol(kind)
    text = serialize.fold_to_json(kind, *locate_fold(kind, (lo, hi), fold_tol, spec))
    _write(args, "fold.json", text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_certify(args) -> int:
    certs = certificates_for(args.lam, BoundaryKind(args.bc))
    text = serialize.certificates_to_json(certs)
    _write(args, "certificates.json", text)
    sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "fold": _cmd_fold,
    "certify": _cmd_certify,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_with_config(list(argv)))
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, BracketError, WindowTooSmallError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except EpibvpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
