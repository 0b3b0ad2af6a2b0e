"""Command-line interface.

Commands: solve, dimension, ranks, verify, solve2x2.  All input and output
is UTF-8 JSON; exit codes are 0 (success), 1 (verification failed),
2 (input or usage error), 3 (internal invariant violation).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import block2x2, files, overlap
from .block2x2 import analyze, complete, enumerate_solutions
from .oracle import DEFAULT_BUDGET, certify, require_enumerable
from .overlap import (
    analyze_overlap,
    build_chains,
    complete_overlap,
    dimension_and_ranks,
    hankel_ranks,
)
from .ucl import InternalInvariantError


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise files.ProblemFormatError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise files.ProblemFormatError(f"{path}: JSON nested too deeply") from None


def _emit(doc, solutions=None) -> None:
    files.write_json(doc, sys.stdout, solutions)


def _cmd_solve(args) -> int:
    p = files.problem_from_json(_load_json(args.problem), args.problem)
    sol = analyze_overlap(p)
    chains = sol.chains
    if args.free is not None:
        f = files.overlap_free_choice_from_json(_load_json(args.free), p, chains, args.free)
        completion = complete_overlap(p, chains, f)
    else:
        completion = sol.base_solution
    solutions = None
    if args.enumerate:
        require_enumerable(p.field, sol.dimension, args.budget)
        solutions = enumerate_solutions(p.field, overlap.free_shapes(chains),
                                        functools.partial(complete_overlap, p, chains),
                                        sol.base_solution)
    _emit(files.solution_to_json(p, sol, completion), solutions)
    return 0


def _cmd_dimension(args) -> int:
    p = files.problem_from_json(_load_json(args.problem), args.problem)
    print(dimension_and_ranks(p, build_chains(p)).dimension)
    return 0


def _cmd_ranks(args) -> int:
    p = files.problem_from_json(_load_json(args.problem), args.problem)
    X = files.matrix_from_json(p.field, _load_json(args.completion), args.completion)
    print(json.dumps(list(hankel_ranks(p, X))))
    return 0


def _cmd_verify(args) -> int:
    p = files.problem_from_json(_load_json(args.problem), args.problem)
    result = certify(p, args.budget)
    _emit({"ok": result.ok, "dimension": result.dimension,
           "minimizer_count": result.minimizer_count, "diagnostic": result.diagnostic})
    return 0 if result.ok else 1


def _cmd_solve2x2(args) -> int:
    p = files.two_by_two_from_json(_load_json(args.problem), args.problem)
    s = analyze(p)
    if args.free is not None:
        f = files.two_by_two_free_choice_from_json(_load_json(args.free), p.field, s,
                                                   args.free)
        completion = complete(p, s, f)
    else:
        completion = s.base_solution
    solutions = None
    if args.enumerate:
        require_enumerable(p.field, s.dimension, args.budget)
        solutions = enumerate_solutions(p.field, block2x2.free_shapes(s),
                                        functools.partial(complete, p, s), s.base_solution)
    _emit(files.two_by_two_solution_to_json(p, s, completion), solutions)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="minrank",
        description="Exact simultaneous minimal rank completion of block "
                    "lower triangular arrays.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, free=False, enumerate_flag=False, budget=False,
            completion=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("problem", help="problem file (JSON)")
        if completion:
            cmd.add_argument("completion", help="corner matrix file (JSON literal)")
        if free:
            cmd.add_argument("--free", metavar="PATH",
                             help="free-choice file (JSON); omitted blocks are zero")
        if enumerate_flag:
            cmd.add_argument("--enumerate", action="store_true",
                             help="list every solution (finite fields only)")
        if budget:
            cmd.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                             metavar="N", help="enumeration cap (default %(default)s)")
        cmd.set_defaults(func=func)

    add("solve", _cmd_solve,
        "complete the array, reporting the solution set and one completion",
        free=True, enumerate_flag=True, budget=True)
    add("dimension", _cmd_dimension, "print the solution-set dimension")
    add("ranks", _cmd_ranks, "print the overlapping block ranks of a completion",
        completion=True)
    add("verify", _cmd_verify, "certify the construction against brute force",
        budget=True)
    add("solve2x2", _cmd_solve2x2, "solve a single block 2x2 completion problem",
        free=True, enumerate_flag=True, budget=True)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:   # every input error here is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
