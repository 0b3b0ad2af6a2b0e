"""Simultaneous minimal rank completion of a block lower triangular array.

The data is an n x n block lower triangular array with every block known
except the bottom-left corner X.  For each k the k-th overlapping (Hankel)
block is the submatrix of block rows k..n and block columns 1..k; X sits in
the bottom-left of every one of them.  The goal is a single X minimizing all
n block ranks at once; such X always exist and form an affine space.

The construction builds two nested index chains, a decreasing column chain
over the columns of X and an increasing row chain over its rows.  Their
successive differences partition X into a grid of blocks: the strictly upper
ones (row group i, column group j with i < j) are free, and block row i's
lower portion is filled in order i = 1..n by one unique-corner-completion
solve against the known data and the rows fixed so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from typing import Iterator, Mapping, Optional

from .fields import Field, require_same_field
from .matrix import (
    DimensionError,
    IndexSet,
    Matrix,
    enumerate_matrices,
    hstack,
    minimal_spanning_columns,
    minimal_spanning_rows,
    rank,
    vstack,
)
from .ucl import HypothesisError, InternalInvariantError, UclInstance, solve_ucl
from .block2x2 import TwoByTwoProblem, analyze, r_opt


@dataclass(frozen=True)
class BlockProblem:
    """The known blocks {(i, j) : i >= j, (i, j) != (n, 1)}, keyed 1-based.

    ``row_sizes`` and ``col_sizes`` give the block grid; the unknown X is
    ``row_sizes[n-1] x col_sizes[0]``, i.e. block position (n, 1).
    """

    field: Field
    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]
    blocks: Mapping[tuple[int, int], Matrix]

    def __post_init__(self):
        n = len(self.row_sizes)
        if n < 2:
            raise DimensionError("at least two block rows and columns are required")
        if len(self.col_sizes) != n:
            raise DimensionError("row_sizes and col_sizes must have equal length")
        if any(s < 0 for s in self.row_sizes + self.col_sizes):
            raise DimensionError("block sizes must be nonnegative")
        required = {(i, j) for i in range(1, n + 1) for j in range(1, i + 1)} - {(n, 1)}
        present = set(self.blocks)
        if present != required:
            missing = sorted(required - present)
            extra = sorted(present - required)
            parts = []
            if missing:
                parts.append("missing blocks " + ", ".join(f"\"{i},{j}\"" for i, j in missing))
            if extra:
                parts.append("unexpected blocks " + ", ".join(f"\"{i},{j}\"" for i, j in extra))
            raise DimensionError("; ".join(parts))
        for (i, j), m in self.blocks.items():
            require_same_field(self.field, m.field)
            want = (self.row_size(i), self.col_size(j))
            if (m.rows, m.cols) != want:
                raise DimensionError(
                    f"block \"{i},{j}\" must be {want[0]}x{want[1]}, got {m.rows}x{m.cols}")

    @property
    def n(self) -> int:
        return len(self.row_sizes)

    def row_size(self, i: int) -> int:
        return self.row_sizes[i - 1]

    def col_size(self, j: int) -> int:
        return self.col_sizes[j - 1]

    @property
    def x_rows(self) -> int:
        return self.row_size(self.n)

    @property
    def x_cols(self) -> int:
        return self.col_size(1)

    def block(self, i: int, j: int) -> Matrix:
        return self.blocks[(i, j)]

    def known_stack(self, i_lo: int, i_hi: int, j_lo: int, j_hi: int) -> Matrix:
        """The grid of known blocks over the inclusive 1-based ranges.

        Empty ranges yield matrices with zero rows or columns of the correct
        complementary size.
        """
        width = sum(self.col_size(j) for j in range(j_lo, j_hi + 1))
        strips = []
        for i in range(i_lo, i_hi + 1):
            row = [self.block(i, j) for j in range(j_lo, j_hi + 1)]
            strips.append(hstack(row) if row else Matrix.zeros(self.field, self.row_size(i), 0))
        return vstack(strips) if strips else Matrix.zeros(self.field, 0, width)


def hankel_subproblem(p: BlockProblem, k: int) -> TwoByTwoProblem:
    """The k-th overlapping block as a 2x2 completion problem in X."""
    if not 1 <= k <= p.n:
        raise ValueError(f"block index {k} outside 1..{p.n}")
    return TwoByTwoProblem(
        B=p.known_stack(k, p.n - 1, 1, 1),
        C=p.known_stack(k, p.n - 1, 2, k),
        D=p.known_stack(p.n, p.n, 2, k),
    )


def hankel_ranks(p: BlockProblem, X: Matrix) -> tuple[int, ...]:
    """Rank of each of the n overlapping blocks with X in place."""
    return tuple(rank(hankel_subproblem(p, k).completed(X)) for k in range(1, p.n + 1))


@dataclass(frozen=True)
class IndexChains:
    """Nested column chain (decreasing) and row chain (increasing) over X.

    ``col_chain[i]`` for i = 0..n shrinks from all columns to none;
    ``row_chain[i]`` grows from no rows to all rows.  Row group i is
    ``row_chain[i] - row_chain[i-1]``; column group j is
    ``col_chain[j-1] - col_chain[j]``.
    """

    col_chain: tuple[IndexSet, ...]
    row_chain: tuple[IndexSet, ...]

    def __post_init__(self):
        if len(self.col_chain) != len(self.row_chain) or len(self.col_chain) < 3:
            raise DimensionError("chains must both have n + 1 entries with n >= 2")
        n = self.n
        if len(self.col_chain[0]) != self.col_chain[0].universe_size or len(self.col_chain[n]) != 0:
            raise ValueError("column chain must start full and end empty")
        if len(self.row_chain[0]) != 0 or len(self.row_chain[n]) != self.row_chain[n].universe_size:
            raise ValueError("row chain must start empty and end full")
        for i in range(n):
            if set(self.col_chain[i + 1].indices) - set(self.col_chain[i].indices):
                raise ValueError("column chain is not nested")
            if set(self.row_chain[i].indices) - set(self.row_chain[i + 1].indices):
                raise ValueError("row chain is not nested")

    @property
    def n(self) -> int:
        return len(self.col_chain) - 1

    def row_group(self, i: int) -> IndexSet:
        return self.row_chain[i].difference(self.row_chain[i - 1])

    def col_group(self, j: int) -> IndexSet:
        return self.col_chain[j - 1].difference(self.col_chain[j])

    def determined_cols(self, i: int) -> IndexSet:
        """Columns outside ``col_chain[i]``: the span of column groups 1..i."""
        return self.col_chain[i].complement()


def build_chains(p: BlockProblem) -> IndexChains:
    """Greedy deterministic chains satisfying the two span conditions.

    Column chain, from i = n-1 down to 1: the columns ``col_chain[i]`` of the
    stacked first-column blocks of block rows i..n-1, together with the full
    blocks of block columns 2..i over those rows, must span all columns of
    the stack; each step extends ``col_chain[i+1]`` minimally.  The row chain
    is dual, over the rows of the bottom strip (block row n, columns 2..i+1)
    against the known rows below block row i.
    """
    n = p.n
    col_chain: list[Optional[IndexSet]] = [None] * (n + 1)
    col_chain[n] = IndexSet.empty(p.x_cols)
    col_chain[0] = IndexSet.full(p.x_cols)
    for i in range(n - 1, 0, -1):
        extra = p.known_stack(i, n - 1, 1, 1)
        anchor = hstack([extra.submatrix(cols=col_chain[i + 1]),
                         p.known_stack(i, n - 1, 2, i)])
        selected = minimal_spanning_columns(extra, anchor)
        col_chain[i] = col_chain[i + 1].union(selected)

    row_chain: list[Optional[IndexSet]] = [None] * (n + 1)
    row_chain[0] = IndexSet.empty(p.x_rows)
    row_chain[n] = IndexSet.full(p.x_rows)
    for i in range(1, n):
        extra = p.known_stack(n, n, 2, i + 1)
        anchor = vstack([p.known_stack(i + 1, n - 1, 2, i + 1),
                         extra.submatrix(rows=row_chain[i - 1])])
        selected = minimal_spanning_rows(extra, anchor)
        row_chain[i] = row_chain[i - 1].union(selected)

    return IndexChains(tuple(col_chain), tuple(row_chain))


@dataclass(frozen=True)
class FreeChoiceOverlap:
    """Values for the free blocks X(row group i, column group j), i < j.

    Missing entries default to zero blocks.
    """

    blocks: Mapping[tuple[int, int], Matrix] = dataclass_field(default_factory=dict)

    def validate_for(self, p: BlockProblem, chains: IndexChains) -> None:
        for (i, j), m in self.blocks.items():
            if not (1 <= i < j <= chains.n):
                raise DimensionError(f"free block ({i},{j}) is not strictly upper triangular")
            require_same_field(p.field, m.field)
            want = (len(chains.row_group(i)), len(chains.col_group(j)))
            if (m.rows, m.cols) != want:
                raise DimensionError(
                    f"free block ({i},{j}) must be {want[0]}x{want[1]}, got {m.rows}x{m.cols}")

    def block(self, field: Field, chains: IndexChains, i: int, j: int) -> Matrix:
        stored = self.blocks.get((i, j))
        if stored is not None:
            return stored
        return Matrix.zeros(field, len(chains.row_group(i)), len(chains.col_group(j)))

    def __add__(self, other: "FreeChoiceOverlap") -> "FreeChoiceOverlap":
        merged = dict(self.blocks)
        for key, m in other.blocks.items():
            merged[key] = merged[key] + m if key in merged else m
        return FreeChoiceOverlap(merged)


def complete_overlap(p: BlockProblem, chains: IndexChains,
                     f: Optional[FreeChoiceOverlap] = None) -> Matrix:
    """The simultaneous rank-minimizing X determined by a free choice.

    Affine in ``f`` and surjective onto the solution set.  Block row groups
    are filled in increasing order; each step is one admissible
    unique-corner-completion solve, so a hypothesis failure here means the
    chain construction is broken, not the input.
    """
    if f is None:
        f = FreeChoiceOverlap()
    f.validate_for(p, chains)
    n = p.n
    X = Matrix.zeros(p.field, p.x_rows, p.x_cols)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            X = X.assign_submatrix(chains.row_group(i), chains.col_group(j),
                                   f.block(p.field, chains, i, j))
    for i in range(1, n + 1):
        kept = chains.col_chain[i]
        filled = chains.determined_cols(i)
        fixed_rows = chains.row_chain[i - 1]
        group = chains.row_group(i)
        first_col = p.known_stack(i, n - 1, 1, 1)
        bottom = p.known_stack(n, n, 2, i)
        inst = UclInstance(
            B1=first_col.submatrix(cols=filled),
            B2=X.submatrix(rows=fixed_rows, cols=filled),
            C11=first_col.submatrix(cols=kept),
            C12=p.known_stack(i, n - 1, 2, i),
            C21=X.submatrix(rows=fixed_rows, cols=kept),
            C22=bottom.submatrix(rows=fixed_rows),
            D1=X.submatrix(rows=group, cols=kept),
            D2=bottom.submatrix(rows=group),
        )
        try:
            solved = solve_ucl(inst)
        except HypothesisError as exc:
            raise InternalInvariantError(
                f"completion step {i} must be admissible by construction: {exc}") from exc
        X = X.assign_submatrix(group, filled, solved)
    return X


@dataclass(frozen=True)
class OverlapSolutionSet:
    """Dimension data of the affine solution set.

    ``alphas`` has entries 0..n (row-chain cardinalities), ``betas`` entries
    1..n (column-chain cardinalities), ``block_opt_ranks`` the attainable
    minimum rank of each overlapping block.
    """

    chains: IndexChains
    alphas: tuple[int, ...]
    betas: tuple[int, ...]
    dimension: int
    block_opt_ranks: tuple[int, ...]
    base_solution: Optional[Matrix] = None


def dimension_and_ranks(p: BlockProblem, chains: IndexChains) -> OverlapSolutionSet:
    """Solution-set dimension from rank differences, plus per-block optima.

    The boundary values are fixed by the cardinality bookkeeping: alpha_0 = 0,
    alpha_n = rows(X), beta_1 = rank of the stacked first-column blocks, and
    beta_n subtracts the rank of an empty stack.
    """
    n = p.n
    alphas = [0] * (n + 1)
    alphas[n] = p.x_rows
    for i in range(1, n):
        known = p.known_stack(i + 1, n - 1, 2, i + 1)
        with_bottom = vstack([known, p.known_stack(n, n, 2, i + 1)])
        alphas[i] = rank(with_bottom) - rank(known)

    betas = [0] * (n + 1)
    betas[1] = rank(p.known_stack(1, n - 1, 1, 1))
    for j in range(2, n + 1):
        betas[j] = (rank(p.known_stack(j, n - 1, 1, j))
                    - rank(p.known_stack(j, n - 1, 2, j)))

    dimension = sum((alphas[i] - alphas[i - 1]) * (betas[j - 1] - betas[j])
                    for i in range(1, n + 1) for j in range(i + 1, n + 1))
    opt = tuple(r_opt(hankel_subproblem(p, k)) for k in range(1, n + 1))
    return OverlapSolutionSet(chains=chains, alphas=tuple(alphas),
                              betas=tuple(betas[1:]), dimension=dimension,
                              block_opt_ranks=opt)


def analyze_overlap(p: BlockProblem) -> OverlapSolutionSet:
    """Chains, dimension data, and the all-zero-free-choice base solution."""
    chains = build_chains(p)
    sol = dimension_and_ranks(p, chains)
    return replace(sol, base_solution=complete_overlap(p, chains))


def uniqueness_shortcut(p: BlockProblem, k: int) -> Optional[Matrix]:
    """The unique X when block k alone already pins the completion.

    If the k-th block's own 2x2 solution set has dimension zero, its single
    minimizer is guaranteed to minimize every other block too, and is
    returned; otherwise returns None.
    """
    s = analyze(hankel_subproblem(p, k))
    return s.base_solution if s.dimension == 0 else None


def enumerate_free_choices(field: Field, chains: IndexChains) -> Iterator[FreeChoiceOverlap]:
    """All free choices over a finite field, lexicographic in block-then-entry order."""
    n = chains.n
    keys = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    shapes = [(len(chains.row_group(i)), len(chains.col_group(j))) for i, j in keys]
    for blocks in enumerate_matrices(field, shapes):
        yield FreeChoiceOverlap(dict(zip(keys, blocks)))


def transpose_problem(p: BlockProblem) -> BlockProblem:
    """The reflected problem whose completion is the transpose of X.

    Block (i, j) of the result is the transpose of block (n+1-j, n+1-i), and
    the size vectors swap and reverse accordingly.
    """
    n = p.n
    return BlockProblem(
        field=p.field,
        row_sizes=tuple(p.col_size(n + 1 - i) for i in range(1, n + 1)),
        col_sizes=tuple(p.row_size(n + 1 - j) for j in range(1, n + 1)),
        blocks={(i, j): p.block(n + 1 - j, n + 1 - i).transpose()
                for i in range(1, n + 1) for j in range(1, i + 1)
                if (i, j) != (n, 1)},
    )


def transpose_chains(chains: IndexChains) -> IndexChains:
    """Chains of the transposed problem: the two chains swap roles and reverse."""
    n = chains.n
    return IndexChains(
        col_chain=tuple(chains.row_chain[n - j] for j in range(n + 1)),
        row_chain=tuple(chains.col_chain[n - i] for i in range(n + 1)),
    )


def transpose_free_choice(f: FreeChoiceOverlap, n: int) -> FreeChoiceOverlap:
    return FreeChoiceOverlap({(n + 1 - j, n + 1 - i): m.transpose()
                              for (i, j), m in f.blocks.items()})


def complete_overlap_columnwise(p: BlockProblem, chains: IndexChains,
                                f: Optional[FreeChoiceOverlap] = None) -> Matrix:
    """Alternative fill order: determine X column group by column group.

    Runs the standard row-wise fill on the transposed problem and transposes
    back, which fills the original column groups in decreasing index order.
    Always equal to :func:`complete_overlap` for the same free choice.
    """
    if f is None:
        f = FreeChoiceOverlap()
    result = complete_overlap(transpose_problem(p), transpose_chains(chains),
                              transpose_free_choice(f, p.n))
    return result.transpose()
