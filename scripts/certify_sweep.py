#!/usr/bin/env python3
"""Certify the construction against brute force on a seeded random sweep.

Each trial draws a small finite-field problem, enumerates every candidate
corner exhaustively, and checks that the construction produces exactly the
simultaneous-minimizer set with cardinality p^dimension.  Exits nonzero if
any trial fails.

    python3 scripts/certify_sweep.py --trials 500 --field "gf(3)"
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from minrank import BudgetExceededError, PrimeField, certify, field_from_name
from random_problem import rand_problem


def run(args: argparse.Namespace) -> int:
    field = field_from_name(args.field)
    if not isinstance(field, PrimeField):
        print("certification needs a finite field", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    failures = 0
    skipped = 0
    started = time.perf_counter()
    for trial in range(args.trials):
        p = rand_problem(rng, field, rng.choice((2, 3, 4)), args.max_size)
        try:
            result = certify(p, args.budget)
        except BudgetExceededError as exc:
            skipped += 1
            print(f"trial {trial}: skipped, needs {exc.required} candidates")
            continue
        if not result.ok:
            failures += 1
            print(f"trial {trial}: FAIL  n={p.n} row_sizes={p.row_sizes} "
                  f"col_sizes={p.col_sizes}")
            print(f"  {result.diagnostic}")
    elapsed = time.perf_counter() - started
    print(f"{args.trials - failures - skipped} ok, {failures} failed, "
          f"{skipped} skipped over {field} in {elapsed:.2f}s "
          f"(seed {args.seed})")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--field", default="gf(2)",
                        help='a prime field such as "gf(5)" (default %(default)s)')
    parser.add_argument("--max-size", type=int, default=2,
                        help="largest block side length (default %(default)s)")
    parser.add_argument("--budget", type=int, default=10**6,
                        help="enumeration cap per trial (default %(default)s)")
    args = parser.parse_args(argv)
    if args.trials < 1 or args.max_size < 1 or args.budget < 1:
        parser.error("--trials, --max-size, and --budget must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
