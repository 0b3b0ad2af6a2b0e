"""Brute-force finite-field ground truth for the completion machinery.

``exhaust`` enumerates every candidate corner X over GF(p) and measures all
overlapping block ranks directly; ``certify`` compares the construction's
full output set against that ground truth.  The enumeration side assembles
blocks with nothing but stacking and rank, deliberately avoiding every code
path of the construction it is checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .block2x2 import enumerate_free_choices
from .fields import Field, PrimeField
from .matrix import Matrix, enumerate_matrices, hstack, rank, vstack
from .overlap import (
    BlockProblem,
    build_chains,
    complete_overlap,
    dimension_and_ranks,
    free_shapes,
)
from .ucl import InternalInvariantError


class UnsupportedFieldError(ValueError):
    """Exhaustive enumeration needs a finite field."""


class BudgetExceededError(ValueError):
    """An enumeration of ``base ** exponent`` items would exceed the budget."""

    def __init__(self, message: str, base: int, exponent: int):
        super().__init__(message)
        self.base = base
        self.exponent = exponent

    @property
    def required(self) -> int:
        return self.base ** self.exponent


DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class ExhaustiveReport:
    min_rank_vector: tuple[int, ...]
    simultaneous_minimizers: tuple[Matrix, ...]
    per_block_minimizer_counts: tuple[int, ...]


def require_enumerable(field: Field, exponent: int, budget: int) -> int:
    """The count ``p ** exponent`` of a finite-field enumeration within ``budget``.

    Rejects an enumeration over an infinite field, or one that would exceed
    the budget.  Since p >= 2, an exponent beyond the budget's bit length
    is rejected without forming the (possibly huge) power.
    """
    if not isinstance(field, PrimeField):
        raise UnsupportedFieldError(f"enumeration needs a finite field, not {field}")
    if exponent <= budget.bit_length():
        count = field.p ** exponent
        if count <= budget:
            return count
    raise BudgetExceededError(
        f"enumerating {field.p}^{exponent} items exceeds the budget of {budget}",
        base=field.p, exponent=exponent)


def exhaust(p: BlockProblem, budget: int = DEFAULT_BUDGET) -> ExhaustiveReport:
    """All simultaneous minimizers of a small finite-field problem.

    One sweep over the p^(entries of X) candidates in lexicographic
    row-major order keeps the running componentwise minimum rank vector.
    When a candidate lowers some entries, no earlier candidate can attain
    the new minimum, so the minimizer list and the tallies of those entries
    start again.
    """
    require_enumerable(p.field, p.x_rows * p.x_cols, budget)
    n = p.n
    # Local assembly, on purpose: cut each overlapping block's known rows
    # (block rows k..n-1) and its part of block row n beside X from raw
    # problem data, once; no shared code with the construction.
    cuts = []
    for k in range(1, n + 1):
        strips = [hstack([p.block(i, j) for j in range(1, k + 1)]) for i in range(k, n)]
        cuts.append(([vstack(strips)] if strips else [],
                     [p.block(n, j) for j in range(2, k + 1)]))

    minimum = [math.inf] * n
    counts = [0] * n
    minimizers = []
    for (X,) in enumerate_matrices(p.field, [(p.x_rows, p.x_cols)]):
        vec = [rank(vstack(known + [hstack([X] + beside)])) for known, beside in cuts]
        for k, r in enumerate(vec):
            if r < minimum[k]:
                minimum[k], counts[k] = r, 0
                minimizers = []
            if r == minimum[k]:
                counts[k] += 1
        if vec == minimum:
            minimizers.append(X)
    if not minimizers:
        raise InternalInvariantError(
            "no candidate attains every per-block minimum simultaneously")
    return ExhaustiveReport(min_rank_vector=tuple(minimum),
                            simultaneous_minimizers=tuple(minimizers),
                            per_block_minimizer_counts=tuple(counts))


@dataclass(frozen=True)
class CertificationResult:
    ok: bool
    diagnostic: str
    dimension: int
    minimizer_count: int

    def __bool__(self) -> bool:
        return self.ok


def _compact(m: Matrix) -> str:
    f = m.field
    return "[" + ", ".join(
        "[" + ", ".join(f.format(v) for v in row) + "]" for row in m.data) + "]"


def certify(p: BlockProblem, budget: int = DEFAULT_BUDGET) -> CertificationResult:
    """Check the construction against exhaustive enumeration.

    Passes iff the block optima are the enumerated minimum ranks and the
    completions over all free choices are exactly the p^dimension
    simultaneous minimizers.  The diagnostic pinpoints the first discrepancy.
    """
    report = exhaust(p, budget)
    ground_truth = set(report.simultaneous_minimizers)

    chains = build_chains(p)
    sol = dimension_and_ranks(p, chains)
    predicted = require_enumerable(p.field, sol.dimension, budget)

    def done(ok: bool, diagnostic: str = "") -> CertificationResult:
        return CertificationResult(ok=ok, diagnostic=diagnostic,
                                   dimension=sol.dimension,
                                   minimizer_count=len(ground_truth))

    for k, (opt, seen) in enumerate(zip(sol.block_opt_ranks, report.min_rank_vector), 1):
        if opt != seen:
            return done(False, f"block {k}: predicted optimum rank {opt}, "
                        f"but the enumerated minimum is {seen}")
    produced = {complete_overlap(p, chains, f)
                for f in enumerate_free_choices(p.field, free_shapes(chains))}
    bogus = sorted(produced - ground_truth, key=lambda m: m.entries())
    if bogus:
        return done(False, "construction output is not a simultaneous minimizer: "
                    + _compact(bogus[0]))
    missed = sorted(ground_truth - produced, key=lambda m: m.entries())
    if missed:
        return done(False, "simultaneous minimizer never produced: " + _compact(missed[0]))
    if len(produced) != predicted:
        return done(False, f"{predicted} free choices produced only "
                    f"{len(produced)} distinct completions")
    return done(True)
