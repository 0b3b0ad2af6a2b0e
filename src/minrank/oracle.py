"""Brute-force finite-field ground truth for the completion machinery.

``exhaust`` enumerates every candidate corner X over GF(p) and measures all
overlapping block ranks directly; ``certify`` compares the construction's
full output set against that ground truth.  The enumeration side assembles
blocks with nothing but stacking and rank, deliberately avoiding every code
path of the construction it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field, PrimeField
from .matrix import Matrix, enumerate_matrices, hstack, rank, vstack
from .overlap import (
    BlockProblem,
    build_chains,
    complete_overlap,
    dimension_and_ranks,
    enumerate_free_choices,
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


def _rank_vector(p: BlockProblem, X: Matrix) -> tuple[int, ...]:
    # Local assembly, on purpose: stack the k-th overlapping block from raw
    # problem data and take ranks; no shared code with the construction.
    n = p.n
    out = []
    for k in range(1, n + 1):
        strips = []
        for i in range(k, n):
            strips.append(hstack([p.block(i, j) for j in range(1, k + 1)]))
        strips.append(hstack([X] + [p.block(n, j) for j in range(2, k + 1)]))
        out.append(rank(vstack(strips)))
    return tuple(out)


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


def _candidates(p: BlockProblem):
    for (X,) in enumerate_matrices(p.field, [(p.x_rows, p.x_cols)]):
        yield X


def exhaust(p: BlockProblem, budget: int = DEFAULT_BUDGET) -> ExhaustiveReport:
    """All simultaneous minimizers of a small finite-field problem.

    Two sweeps over the p^(entries of X) candidates in lexicographic
    row-major order: one to find the componentwise minimum rank vector, one
    to collect statistics and the minimizer set.
    """
    require_enumerable(p.field, p.x_rows * p.x_cols, budget)
    n = p.n

    minimum = None
    for X in _candidates(p):
        vec = _rank_vector(p, X)
        minimum = vec if minimum is None else tuple(map(min, minimum, vec))

    counts = [0] * n
    minimizers = []
    for X in _candidates(p):
        vec = _rank_vector(p, X)
        for k in range(n):
            if vec[k] == minimum[k]:
                counts[k] += 1
        if vec == minimum:
            minimizers.append(X)
    if not minimizers:
        raise InternalInvariantError(
            "no candidate attains every per-block minimum simultaneously")
    return ExhaustiveReport(min_rank_vector=minimum,
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

    Passes iff the set of completions over all free choices equals the
    exhaustive simultaneous-minimizer set and its size is p^dimension.  The
    diagnostic pinpoints the first discrepancy.
    """
    report = exhaust(p, budget)
    ground_truth = set(report.simultaneous_minimizers)

    chains = build_chains(p)
    sol = dimension_and_ranks(p, chains)
    predicted = require_enumerable(p.field, sol.dimension, budget)

    produced = set()
    for f in enumerate_free_choices(p.field, chains):
        produced.add(complete_overlap(p, chains, f))

    def done(ok: bool, diagnostic: str = "") -> CertificationResult:
        return CertificationResult(ok=ok, diagnostic=diagnostic,
                                   dimension=sol.dimension,
                                   minimizer_count=len(ground_truth))

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
    if predicted != len(ground_truth):
        return done(False, f"dimension {sol.dimension} predicts {predicted} solutions "
                    f"but enumeration found {len(ground_truth)}")
    return done(True)
