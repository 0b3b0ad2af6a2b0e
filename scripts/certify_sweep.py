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
from dataclasses import dataclass

from minrank import BudgetExceededError, PrimeField, certify, field_from_name
from random_problem import rand_problem


@dataclass
class SweepConfig:
    trials: int = 200
    seed: int = 0
    field_name: str = "gf(2)"
    n_choices: tuple[int, ...] = (2, 3, 4)
    max_size: int = 2
    budget: int = 10**6


def run(cfg: SweepConfig) -> int:
    field = field_from_name(cfg.field_name)
    if not isinstance(field, PrimeField):
        print("certification needs a finite field", file=sys.stderr)
        return 2

    rng = random.Random(cfg.seed)
    failures = 0
    skipped = 0
    started = time.perf_counter()
    for trial in range(cfg.trials):
        p = rand_problem(rng, field, rng.choice(cfg.n_choices), cfg.max_size)
        try:
            result = certify(p, cfg.budget)
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
    print(f"{cfg.trials - failures - skipped} ok, {failures} failed, "
          f"{skipped} skipped over {field} in {elapsed:.2f}s "
          f"(seed {cfg.seed})")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    defaults = SweepConfig()
    parser.add_argument("--trials", type=int, default=defaults.trials)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--field", default=defaults.field_name,
                        help='a prime field such as "gf(5)" (default %(default)s)')
    parser.add_argument("--max-size", type=int, default=defaults.max_size,
                        help="largest block side length (default %(default)s)")
    parser.add_argument("--budget", type=int, default=defaults.budget,
                        help="enumeration cap per trial (default %(default)s)")
    args = parser.parse_args(argv)
    if args.trials < 1 or args.max_size < 1 or args.budget < 1:
        parser.error("--trials, --max-size, and --budget must be positive")
    cfg = SweepConfig(trials=args.trials, seed=args.seed, field_name=args.field,
                      max_size=args.max_size, budget=args.budget)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
