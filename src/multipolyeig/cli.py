"""Command line front end.

Subcommands::

    multipolyeig solve <problem.json> [-o out.json] [--hide K] [--residual-tol T]
    multipolyeig verify <problem.json> <solutions.json> [--residual-tol T]
    multipolyeig oracle <problem.json> [-o out.json] [--starts N] [--seed S]
                 [--residual-tol T]

Results go to standard output (or the -o file); progress and diagnostics go
to standard error.  Exit codes: 0 success, 1 solver or input error, 2 usage
error.  `solve` takes no seed: the same input and BLAS thread count produce
byte-identical output documents.  It works in the document's own basis,
and cuts every rank decision at the one relative tolerance
`pep.RANK_TOL`.  `oracle --seed` (default 0) seeds the oracle's start
points.
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .errors import MultiPolyEigError
from .extract import RESIDUAL_TOL, check_tolerances, residual
from .io import parse_pmep, parse_solutions, serialize_solutions
from .oracle import newton_oracle
from .solver import solve

__all__ = ["run_cli", "main"]


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def _emit(text, output):
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _cmd_solve(args):
    p = parse_pmep(_read(args.problem))
    out = solve(p, hide_variable=args.hide, residual_tol=args.residual_tol)
    _emit(serialize_solutions(out), args.output)
    d = out.diagnostics
    print(
        f"solve: {len(out)} solutions; resultant size {d['resultant_size']}, "
        f"normal rank {d['normal_rank']}, projected {d['projected']}, "
        f"dropped eigenpairs {d['dropped_eigenpairs']}",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args):
    check_tolerances(residual_tol=args.residual_tol)
    p = parse_pmep(_read(args.problem))
    sols = parse_solutions(_read(args.solutions))
    for i, s in enumerate(sols):
        if s.x.size != p.d:
            raise ValueError(
                f"solutions[{i}].x has {s.x.size} coordinates, problem has d={p.d}"
            )
    res = residual(p, np.array([s.x for s in sols]).reshape(-1, p.d))
    failures = 0
    worst = 0.0
    for i, r in enumerate(res):
        worst = max(worst, r)
        ok = r <= args.residual_tol
        failures += 0 if ok else 1
        print(f"{i:4d}  residual {r:.6e}  {'ok' if ok else 'FAIL'}")
    print(
        f"verify: {len(sols)} points, {failures} over tolerance "
        f"{args.residual_tol:g}, max residual {worst:.6e}",
        file=sys.stderr,
    )
    return 0 if failures == 0 else 1


def _cmd_oracle(args):
    p = parse_pmep(_read(args.problem))
    out = newton_oracle(
        p,
        starts=args.starts,
        seed=args.seed,
        residual_tol=args.residual_tol,
    )
    info = out.diagnostics
    _emit(serialize_solutions(out), args.output)
    print(
        f"oracle: {len(out)} roots from {info['starts']} starts "
        f"({info['nonconverged']} nonconverged)",
        file=sys.stderr,
    )
    return 0


def _add_common_tolerances(sub):
    sub.add_argument(
        "--residual-tol",
        type=float,
        default=RESIDUAL_TOL,
        help="accept solutions with normalized residual at most T (default %(default)g)",
    )


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on first use and reused by every later
    call in the process (each parse starts from a fresh namespace)."""
    parser = argparse.ArgumentParser(
        prog="multipolyeig",
        description="Global solver for polynomial multiparameter eigenvalue problems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("solve", help="solve a problem document")
    sub.add_argument("problem", help="problem JSON file")
    sub.add_argument("-o", "--output", default=None, help="write solutions here instead of stdout")
    sub.add_argument("--hide", type=int, default=None, metavar="K",
                     help="1-based index of the variable to hide (default: automatic)")
    # accepted and ignored, so command lines that still pass it keep working
    sub.add_argument("--no-rotate", action="store_true", help=argparse.SUPPRESS)
    _add_common_tolerances(sub)
    sub.set_defaults(func=_cmd_solve)

    sub = commands.add_parser("verify", help="recompute residuals for stored solutions")
    sub.add_argument("problem", help="problem JSON file")
    sub.add_argument("solutions", help="solution JSON file")
    _add_common_tolerances(sub)
    sub.set_defaults(func=_cmd_verify)

    sub = commands.add_parser("oracle", help="independent multistart Newton cross-check")
    sub.add_argument("problem", help="problem JSON file")
    sub.add_argument("-o", "--output", default=None, help="write roots here instead of stdout")
    sub.add_argument("--starts", type=int, default=200, help="number of Newton starts (default 200)")
    sub.add_argument("--seed", type=int, default=0, help="start-point seed (default 0)")
    _add_common_tolerances(sub)
    sub.set_defaults(func=_cmd_oracle)

    return parser


def run_cli(argv=None):
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MultiPolyEigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
