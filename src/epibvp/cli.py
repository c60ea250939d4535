"""Command-line front end: solve, sweep, fold, and certify subcommands.

Every run is fully determined by its flags (or a flat JSON config file;
flags win), contains no randomness, and writes its artifacts atomically,
so identical configurations produce identical output bytes.

Exit codes: 0 success, 1 usage error, 2 precondition error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .certificates import certificates_for, truncated_monotone_solve
from .continuation import (
    default_fold_bracket,
    default_fold_tol,
    locate_fold,
    sweep,
)
from .errors import (
    BracketError,
    DomainError,
    EpibvpError,
    IntegrationError,
    RelaxationError,
    UnvalidatedTrajectoryError,
    WindowTooSmallError,
)
from .integrator import VALIDATION_GRID_MIN, integrate, validate
from .model import BoundaryKind, ProblemSpec, reconstruct_phi
from . import serialize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="epibvp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--bc", choices=["dirichlet", "navier"], required=False,
                       help="boundary condition kind")
        p.add_argument("--eps", type=float, default=None, help="series launch point")
        p.add_argument("--tol", type=float, default=None,
                       help="step tolerance (solve/sweep) or fold bracket tolerance (fold)")
        p.add_argument("--grid", type=int, default=None, help="output sample count")
        p.add_argument("--a-min", type=float, default=None, help="scan window lower slope")
        p.add_argument("--a-max", type=float, default=None, help="scan window upper slope")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=["csv", "json"], default="csv",
                       help="tabular output format")
        p.add_argument("--config", default=None, help="flat JSON config file; flags win")

    p_solve = sub.add_parser("solve", help="integrate one problem and emit artifacts")
    p_solve.add_argument("--lambda", dest="lam", type=float, default=None)
    p_solve.add_argument("--a", type=float, default=None,
                         help="shooting slope; all roots are solved when omitted")
    p_solve.add_argument("--monotone", action="store_true",
                         help="use the truncated-domain monotone solver instead of shooting")
    add_common(p_solve)

    p_sweep = sub.add_parser("sweep", help="root sets across a list of lambda values")
    p_sweep.add_argument("--lambdas", default=None,
                         help="comma-separated lambda values, ascending")
    p_sweep.add_argument("--lo", type=float, default=None, help="range start (with --hi/--n)")
    p_sweep.add_argument("--hi", type=float, default=None, help="range end")
    p_sweep.add_argument("--n", type=int, default=None, help="range point count")
    add_common(p_sweep)

    p_fold = sub.add_parser("fold", help="bracket the fold value by count bisection")
    p_fold.add_argument("--lo", type=float, default=None, help="bracket start")
    p_fold.add_argument("--hi", type=float, default=None, help="bracket end")
    add_common(p_fold)

    p_cert = sub.add_parser("certify", help="run all applicable certificates")
    p_cert.add_argument("--lambda", dest="lam", type=float, default=None)
    add_common(p_cert)

    return parser


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset attributes from the flat JSON config file, flags winning."""
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    aliases = {"lambda": "lam", "a-min": "a_min", "a-max": "a_max"}
    for key, value in config.items():
        attr = aliases.get(key, key.replace("-", "_"))
        if hasattr(args, attr) and getattr(args, attr) in (None, False):
            setattr(args, attr, value)
    return args


def _spec_from_args(args, lam: float) -> ProblemSpec:
    if args.bc is None:
        raise UsageError("--bc is required")
    kind = BoundaryKind(args.bc)
    overrides = {}
    if args.eps is not None:
        overrides["eps"] = args.eps
    if getattr(args, "tol", None) is not None and args.command != "fold":
        overrides["step_tol"] = args.tol
    if args.grid is not None:
        overrides["grid_n"] = args.grid
    if args.a_min is not None:
        overrides["slope_min"] = args.a_min
    if args.a_max is not None:
        overrides["slope_max"] = args.a_max
    return ProblemSpec(lam=lam, kind=kind, **overrides)


def _write(args, name: str, text: str) -> str:
    path = os.path.join(args.out, name)
    serialize.atomic_write_text(path, text)
    return path


def _shooting_report(spec: ProblemSpec, traj):
    """Validation report at the calibrated resolution.

    A coarse output grid raises the trapezoid error of the residual
    validators past their thresholds, so shooting runs are re-validated on
    the calibration grid when the caller sampled more coarsely.
    """
    if spec.grid_n < VALIDATION_GRID_MIN and not traj.diverged:
        vspec = replace(spec, grid_n=VALIDATION_GRID_MIN)
        return validate(integrate(vspec, traj.launch.a))
    return validate(traj)


def _emit_solution(args, spec: ProblemSpec, traj, report, suffix: str = "") -> None:
    profile = reconstruct_phi(traj, report)
    if args.format == "csv":
        _write(args, f"trajectory{suffix}.csv", serialize.trajectory_to_csv(traj))
        _write(args, f"profile{suffix}.csv", serialize.profile_to_csv(profile))
    else:
        _write(args, f"trajectory{suffix}.json", serialize.trajectory_to_json(traj))
        _write(args, f"profile{suffix}.json", serialize.profile_to_json(profile))
    _write(args, f"validation{suffix}.json", serialize.validation_to_json(report))


def _cmd_solve(args) -> int:
    if args.lam is None:
        raise UsageError("--lambda is required for solve")
    spec = _spec_from_args(args, args.lam)
    if args.monotone:
        traj = truncated_monotone_solve(spec)
        _emit_solution(args, spec, traj, validate(traj))
        return EXIT_OK
    if args.a is not None:
        traj = integrate(spec, args.a)
        _emit_solution(args, spec, traj, _shooting_report(spec, traj))
        return EXIT_OK
    from .shooting import find_shooting_roots

    roots = find_shooting_roots(spec)
    _write(args, "roots.json", serialize.rootset_to_json(roots))
    for i, root in enumerate(roots.roots):
        traj = integrate(spec, root.a)
        _emit_solution(args, spec, traj, _shooting_report(spec, traj), suffix=f"_root{i}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.lambdas is not None:
        lams = [float(v) for v in args.lambdas.split(",") if v.strip()]
    elif args.lo is not None and args.hi is not None and args.n:
        step = (args.hi - args.lo) / (args.n - 1) if args.n > 1 else 0.0
        lams = [args.lo + i * step for i in range(args.n)]
    else:
        raise UsageError("sweep needs --lambdas or --lo/--hi/--n")
    if not lams:
        raise UsageError("sweep needs at least one lambda value")
    spec = _spec_from_args(args, lams[0])
    diagram = sweep(spec.kind, lams, spec)
    if args.format == "csv":
        _write(args, "diagram.csv", serialize.diagram_to_csv(diagram))
    else:
        _write(args, "diagram.json", serialize.diagram_to_json(diagram))
    return EXIT_OK


def _cmd_fold(args) -> int:
    if args.bc is None:
        raise UsageError("--bc is required")
    kind = BoundaryKind(args.bc)
    bracket = default_fold_bracket(kind)
    lo = args.lo if args.lo is not None else bracket[0]
    hi = args.hi if args.hi is not None else bracket[1]
    fold_tol = args.tol if args.tol is not None else default_fold_tol(kind)
    spec = _spec_from_args(args, 0.0)
    lam_lo, lam_hi = locate_fold(kind, (lo, hi), fold_tol, spec)
    _write(args, "fold.json", serialize.fold_to_json(kind, lam_lo, lam_hi))
    sys.stdout.write(serialize.fold_to_json(kind, lam_lo, lam_hi))
    return EXIT_OK


def _cmd_certify(args) -> int:
    if args.lam is None:
        raise UsageError("--lambda is required for certify")
    if args.bc is None:
        raise UsageError("--bc is required")
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, BracketError, WindowTooSmallError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (IntegrationError, RelaxationError, UnvalidatedTrajectoryError, EpibvpError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
