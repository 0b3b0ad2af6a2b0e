#!/usr/bin/env python3
"""Emit a random block lower triangular completion problem as JSON.

Handy for exercising the CLI:

    python3 scripts/random_problem.py --field "gf(2)" --seed 7 > p.json
    minrank solve p.json --enumerate
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from minrank import BlockProblem, Matrix, PrimeField, field_from_name
from minrank.files import problem_to_json


def rand_scalar(rng, field):
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def rand_matrix(rng, field, rows, cols):
    return Matrix.from_flat(field, rows, cols,
                            [rand_scalar(rng, field) for _ in range(rows * cols)])


def rand_blocks(rng, field, row_sizes, col_sizes):
    """Random known blocks, keyed (i, j), of a problem on the given block grid."""
    n = len(row_sizes)
    return {
        (i, j): rand_matrix(rng, field, row_sizes[i - 1], col_sizes[j - 1])
        for i in range(1, n + 1)
        for j in range(1, i + 1)
        if (i, j) != (n, 1)
    }


def rand_problem(rng, field, n, max_size):
    row_sizes = tuple(rng.randint(1, max_size) for _ in range(n))
    col_sizes = tuple(rng.randint(1, max_size) for _ in range(n))
    return BlockProblem(field=field, row_sizes=row_sizes, col_sizes=col_sizes,
                        blocks=rand_blocks(rng, field, row_sizes, col_sizes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--field", default="gf(2)",
                        help='"rational" or "gf(p)" (default %(default)s)')
    parser.add_argument("--n", type=int, default=3, help="number of block rows")
    parser.add_argument("--max-size", type=int, default=2,
                        help="largest block side length (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.n < 2 or args.max_size < 1:
        parser.error("need --n >= 2 and --max-size >= 1")
    try:
        field = field_from_name(args.field)
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))

    rng = random.Random(args.seed)
    p = rand_problem(rng, field, args.n, args.max_size)
    json.dump(problem_to_json(p), sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
