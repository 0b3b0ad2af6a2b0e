"""Seeded problem generators and the workload table.

A problem is a plain dict ``{"field", "n", "row_sizes", "col_sizes",
"blocks"}`` whose blocks map ``(i, j)`` (1-based, ``j <= i``, corner
``(n, 1)`` absent) to row lists of scalars; :func:`to_json` gives the file
form ``minrank`` reads.  Problem ``i`` of a workload depends only on the
workload name and ``i``, so a master pool is fixed and its reference digests
can be committed; ``--seed`` picks which master problems a run uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from exact import dimension, matmul, modulus


def _scalar(rng: random.Random, p: Optional[int]):
    return rng.randrange(p) if p else rng.randint(-1, 1)


def _matrix(rng: random.Random, p: Optional[int], rows: int, cols: int):
    return [[_scalar(rng, p) for _ in range(cols)] for _ in range(rows)]


def _problem(field: str, row_sizes, col_sizes, blocks) -> dict:
    return {"field": field, "n": len(row_sizes), "row_sizes": list(row_sizes),
            "col_sizes": list(col_sizes), "blocks": blocks}


def structured_problem(rng: random.Random, field: str, n: int, side: int,
                       state: int) -> dict:
    """Quasiseparable-style array: every block below the diagonal is
    ``L_i A_{i-1} ... A_{j+1} R_j`` with ``state x state`` transitions, so each
    strictly lower strip has rank at most ``state``; diagonal blocks are
    generic.  Every block side is ``side``."""
    p = modulus(field)
    left = {i: _matrix(rng, p, side, state) for i in range(2, n + 1)}
    right = {j: _matrix(rng, p, state, side) for j in range(1, n)}
    trans = {k: _matrix(rng, p, state, state) for k in range(2, n)}
    blocks = {(i, i): _matrix(rng, p, side, side) for i in range(1, n + 1)}
    for j in range(1, n):
        carry = right[j]                      # A_{i-1} ... A_{j+1} R_j
        for i in range(j + 1, n + 1):
            if (i, j) != (n, 1):
                blocks[(i, j)] = matmul(left[i], carry, p)
            if i < n:
                carry = matmul(trans[i], carry, p)
    return _problem(field, [side] * n, [side] * n, blocks)


def generic_problem(rng: random.Random, field: str, row_sizes, col_sizes,
                    dim: int) -> dict:
    """Every known block uniformly random, redrawn until the solution set has
    dimension ``dim``.  Over a small field rank drops are common, so without
    the condition the enumeration size, and with it the cost of one
    operation, would vary by orders of magnitude between problems."""
    p = modulus(field)
    n = len(row_sizes)
    while True:
        blocks = {(i, j): _matrix(rng, p, row_sizes[i - 1], col_sizes[j - 1])
                  for i in range(1, n + 1) for j in range(1, i + 1) if (i, j) != (n, 1)}
        problem = _problem(field, row_sizes, col_sizes, blocks)
        if dimension(problem) == dim:
            return problem


def to_json(problem: dict) -> dict:
    return {**problem,
            "blocks": {f"{i},{j}": [[str(v) for v in row] for row in m]
                       for (i, j), m in sorted(problem["blocks"].items())}}


MASTER_SIZE = 320    # problems per workload with committed reference digests
POOL_SIZE = 160      # problems one run draws from the master pool
TRACE_SIZE = 6       # problems in one traced pass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]           # CLI arguments before the problem path
    check: str                      # key of check.CHECKS
    make: Callable[[random.Random], dict]

    def problem(self, index: int) -> dict:
        return self.make(random.Random(f"{self.name}:{index}"))

    def pool(self, seed: int) -> list[int]:
        """Master indices of the run's pool, in the order they run."""
        return random.Random(seed).sample(range(MASTER_SIZE), POOL_SIZE)


# Each workload is sized to about 0.2 s per operation on a 2-core Xeon, so a
# 25 s run measures over 100 operations.
WORKLOADS = {w.name: w for w in (
    # Elimination-, chain- and UCL-heavy; every X entry is determined.
    Workload("solve-gf101", ("solve",), "solve",
             lambda rng: structured_problem(rng, "gf(101)", n=12, side=4, state=3)),
    # The same path with Fraction arithmetic.
    Workload("solve-qq", ("solve",), "solve",
             lambda rng: structured_problem(rng, "rational", n=6, side=4, state=3)),
    # Brute force over all 2^9 corners dominates.
    Workload("verify-gf2", ("verify",), "verify",
             lambda rng: generic_problem(rng, "gf(2)", (1, 1, 3), (3, 1, 1), dim=1)),
    # One analysis, 3^4 fills, large JSON.
    Workload("enumerate-gf3", ("solve", "--enumerate"), "enumerate",
             lambda rng: generic_problem(rng, "gf(3)", (2, 2, 3), (3, 2, 2), dim=4)),
)}
