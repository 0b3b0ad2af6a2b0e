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

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from typing import Mapping, Optional

from .fields import Field, require_same_field
from .matrix import (
    DimensionError,
    Matrix,
    hstack,
    minimal_spanning_columns,
    minimal_spanning_rows,
    rank,
    vstack,
    without,
)
from .block2x2 import FreeChoice, TwoByTwoProblem, analyze, complete_rows


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
        # The n(n+1)/2 - 1 required keys are counted, not built; a message
        # names at most five of each kind.
        extra = sorted(key for key in self.blocks if not (
            isinstance(key, tuple) and len(key) == 2
            and 1 <= key[1] <= key[0] <= n and key != (n, 1)))
        missing = ((i, j) for i in range(1, n + 1) for j in range(1, i + 1)
                   if (i, j) not in self.blocks and (i, j) != (n, 1))
        parts = []
        for label, keys, count in (
                ("missing", missing, n * (n + 1) // 2 - 1 - len(self.blocks) + len(extra)),
                ("unexpected", extra, len(extra))):
            if count:
                named = ", ".join(f"\"{i},{j}\"" for i, j in islice(keys, 5))
                parts.append(f"{label} blocks {named}"
                             + (f" and {count - 5} more" if count > 5 else ""))
        if parts:
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

    @cached_property
    def hankel(self) -> tuple[TwoByTwoProblem, ...]:
        """The n overlapping blocks as 2x2 problems in X, block k at index k-1.

        B is block column 1 and C block columns 2..k over block rows k..n-1;
        D is block columns 2..k of block row n.  Cut once per problem.
        """
        n = self.n
        return tuple(TwoByTwoProblem(B=self.known_stack(k, n - 1, 1, 1),
                                     C=self.known_stack(k, n - 1, 2, k),
                                     D=self.known_stack(n, n, 2, k))
                     for k in range(1, n + 1))


def hankel_subproblem(p: BlockProblem, k: int) -> TwoByTwoProblem:
    """The k-th overlapping block as a 2x2 completion problem in X."""
    if not 1 <= k <= p.n:
        raise ValueError(f"block index {k} outside 1..{p.n}")
    return p.hankel[k - 1]


def hankel_ranks(p: BlockProblem, X: Matrix) -> tuple[int, ...]:
    """Rank of each of the n overlapping blocks with X in place."""
    return tuple(rank(h.completed(X)) for h in p.hankel)


@dataclass(frozen=True)
class IndexChains:
    """Nested column chain (decreasing) and row chain (increasing) over X.

    ``col_chain[i]`` for i = 0..n shrinks from all columns to none;
    ``row_chain[i]`` grows from no rows to all rows.  Row group i is
    ``row_chain[i] - row_chain[i-1]``; column group j is
    ``col_chain[j-1] - col_chain[j]``.
    """

    col_chain: tuple[tuple[int, ...], ...]
    row_chain: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cols, rows = self.col_chain, self.row_chain
        if len(cols) != len(rows) or len(cols) < 3:
            raise DimensionError("chains must both have n + 1 entries with n >= 2")
        n = self.n
        if cols[0] != tuple(range(len(cols[0]))) or cols[n]:
            raise ValueError("column chain must start full and end empty")
        if rows[0] or rows[n] != tuple(range(len(rows[n]))):
            raise ValueError("row chain must start empty and end full")
        for i in range(n):
            if not set(cols[i + 1]) <= set(cols[i]):
                raise ValueError("column chain is not nested")
            if not set(rows[i]) <= set(rows[i + 1]):
                raise ValueError("row chain is not nested")

    @property
    def n(self) -> int:
        return len(self.col_chain) - 1

    def row_group(self, i: int) -> tuple[int, ...]:
        return without(self.row_chain[i], self.row_chain[i - 1])

    def col_group(self, j: int) -> tuple[int, ...]:
        return without(self.col_chain[j - 1], self.col_chain[j])

    def determined_cols(self, i: int) -> tuple[int, ...]:
        """Columns outside ``col_chain[i]``: the span of column groups 1..i."""
        return without(self.col_chain[0], self.col_chain[i])


def build_chains(p: BlockProblem) -> IndexChains:
    """Greedy deterministic chains satisfying the two span conditions.

    Column chain, from i = n-1 down to 1: the columns ``col_chain[i]`` of the
    stacked first-column blocks of block rows i..n-1, together with the full
    blocks of block columns 2..i over those rows, must span all columns of
    the stack; each step extends ``col_chain[i+1]`` minimally.  The row chain
    is dual, over the rows of the bottom strip (block row n, columns 2..i+1)
    against the known rows below block row i.
    """
    n, hankel = p.n, p.hankel
    col_chain: list[tuple[int, ...]] = [()] * (n + 1)
    col_chain[0] = tuple(range(p.x_cols))
    for i in range(n - 1, 0, -1):
        extra = hankel[i - 1].B
        anchor = hstack([extra.submatrix(cols=col_chain[i + 1]), hankel[i - 1].C])
        selected = minimal_spanning_columns(extra, anchor)
        col_chain[i] = tuple(sorted(col_chain[i + 1] + selected))

    row_chain: list[tuple[int, ...]] = [()] * (n + 1)
    row_chain[n] = tuple(range(p.x_rows))
    for i in range(1, n):
        extra = hankel[i].D
        anchor = vstack([hankel[i].C, extra.submatrix(rows=row_chain[i - 1])])
        selected = minimal_spanning_rows(extra, anchor)
        row_chain[i] = tuple(sorted(row_chain[i - 1] + selected))

    return IndexChains(tuple(col_chain), tuple(row_chain))


def free_shapes(chains: IndexChains) -> dict[tuple[int, int], tuple[int, int]]:
    """The shape of each free block X(row group i, column group j), i < j,
    keyed (i, j) in lexicographic order."""
    n = chains.n
    rows = [len(chains.row_group(i)) for i in range(1, n + 1)]
    cols = [len(chains.col_group(j)) for j in range(1, n + 1)]
    return {(i, j): (rows[i - 1], cols[j - 1])
            for i in range(1, n + 1) for j in range(i + 1, n + 1)}


def complete_overlap(p: BlockProblem, chains: IndexChains,
                     f: Optional[FreeChoice] = None) -> Matrix:
    """The simultaneous rank-minimizing X determined by a free choice.

    Affine in ``f`` and surjective onto the solution set.  Block row groups
    are filled in increasing order; each step is one admissible
    unique-corner-completion solve, so a hypothesis failure here means the
    chain construction is broken, not the input.
    """
    if f is None:
        f = FreeChoice()
    f.validate(p.field, free_shapes(chains))
    n = p.n
    X = Matrix.zeros(p.field, p.x_rows, p.x_cols)
    for (i, j), m in f.items():
        X = X.assign_submatrix(chains.row_group(i), chains.col_group(j), m)
    for i in range(1, n + 1):
        group, filled = chains.row_group(i), chains.determined_cols(i)
        solved = complete_rows(p.hankel[i - 1], X, chains.row_chain[i - 1],
                               chains.col_chain[i], group, filled)
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
    """Solution-set dimension read from the chain sizes, plus per-block optima.

    Chain step k keeps the rows of block k's D (columns of its B) independent
    modulo its C, and the earlier ones stay so, since C_k cut to C_{k-1}'s
    columns is rows of C_{k-1} (dually for columns).  So alpha_{k-1} =
    |row_chain[k-1]| = rank[C;D] - rank C and beta_k = |col_chain[k]| =
    rank[B C] - rank C of block k, and its optimum rank[B C] + rank[C;D] -
    rank C is beta_k + alpha_{k-1} + rank C: one rank per block.
    """
    alphas = tuple(len(s) for s in chains.row_chain)
    betas = tuple(len(s) for s in chains.col_chain[1:])
    dimension = sum((alphas[i] - alphas[i - 1]) * (betas[j - 2] - betas[j - 1])
                    for i in range(1, p.n + 1) for j in range(i + 1, p.n + 1))
    opt = tuple(betas[k] + alphas[k] + rank(h.C) for k, h in enumerate(p.hankel))
    return OverlapSolutionSet(chains=chains, alphas=alphas, betas=betas,
                              dimension=dimension, block_opt_ranks=opt)


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


def transpose_free_choice(f: FreeChoice, n: int) -> FreeChoice:
    return FreeChoice({(n + 1 - j, n + 1 - i): m.transpose() for (i, j), m in f.items()})


def complete_overlap_columnwise(p: BlockProblem, chains: IndexChains,
                                f: Optional[FreeChoice] = None) -> Matrix:
    """Alternative fill order: determine X column group by column group.

    Runs the standard row-wise fill on the transposed problem and transposes
    back, which fills the original column groups in decreasing index order.
    Always equal to :func:`complete_overlap` for the same free choice.
    """
    result = complete_overlap(transpose_problem(p), transpose_chains(chains),
                              transpose_free_choice(f or FreeChoice(), p.n))
    return result.transpose()
