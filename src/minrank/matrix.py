"""Dense exact matrices with rank machinery and distinguished one-sided inverses.

Everything is built for correctness over an exact :class:`~minrank.fields.Field`
and for total support of zero-row / zero-column matrices, which occur
constantly as degenerate blocks.  All selection rules (pivots, maximal
independent subsets, minimal spanning subsets) are greedy lowest-index-first,
so every derived object is deterministic and reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .fields import Field, Scalar, require_same_field


class DimensionError(ValueError):
    """Operands or index sets do not conform."""


class RankDeficiencyError(ValueError):
    """A full-rank precondition does not hold."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is not."""


class InconsistentSystemError(ValueError):
    """A linear system required to be solvable has no solution."""


@dataclass(frozen=True)
class IndexSet:
    """A strictly increasing tuple of indices inside a fixed universe."""

    indices: tuple[int, ...]
    universe_size: int

    def __post_init__(self):
        last = -1
        for i in self.indices:
            if not isinstance(i, int) or i <= last:
                raise ValueError(f"indices must be strictly increasing, got {self.indices}")
            last = i
        if last >= self.universe_size:
            raise ValueError(f"index {last} outside universe of size {self.universe_size}")

    @classmethod
    def from_iterable(cls, items: Iterable[int], universe_size: int) -> "IndexSet":
        return cls(tuple(sorted(set(items))), universe_size)

    @classmethod
    def empty(cls, universe_size: int) -> "IndexSet":
        return cls((), universe_size)

    @classmethod
    def full(cls, universe_size: int) -> "IndexSet":
        return cls(tuple(range(universe_size)), universe_size)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, index: int) -> bool:
        return index in self.indices

    def _check_same_universe(self, other: "IndexSet") -> None:
        if self.universe_size != other.universe_size:
            raise DimensionError("index sets live in different universes")

    def union(self, other: "IndexSet") -> "IndexSet":
        self._check_same_universe(other)
        return IndexSet.from_iterable(set(self.indices) | set(other.indices), self.universe_size)

    def difference(self, other: "IndexSet") -> "IndexSet":
        self._check_same_universe(other)
        return IndexSet.from_iterable(set(self.indices) - set(other.indices), self.universe_size)

    def complement(self) -> "IndexSet":
        present = set(self.indices)
        return IndexSet(tuple(i for i in range(self.universe_size) if i not in present),
                        self.universe_size)


Indexish = Union[IndexSet, Sequence[int], None]


def _as_indices(sel: Indexish, size: int) -> tuple[int, ...]:
    if sel is None:
        return tuple(range(size))
    if isinstance(sel, IndexSet):
        if sel.universe_size != size:
            raise DimensionError(f"index universe {sel.universe_size} does not match axis size {size}")
        return sel.indices
    out = tuple(sel)
    for i in out:
        if not 0 <= i < size:
            raise DimensionError(f"index {i} outside axis of size {size}")
    return out


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over an exact field.

    ``data`` is a tuple of row tuples of canonical scalars; ``rows`` and
    ``cols`` are stored explicitly so zero-dimension shapes stay intact.
    """

    field: Field
    rows: int
    cols: int
    data: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative dimensions")
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise DimensionError("data does not match declared shape")

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Iterable[object]],
                  cols: Optional[int] = None) -> "Matrix":
        data = tuple(tuple(field.canon(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if cols is not None and cols != width:
                raise DimensionError(f"declared {cols} columns but rows have {width}")
            cols = width
        elif cols is None:
            raise DimensionError("column count required for a matrix with no rows")
        return cls(field, len(data), cols, data)

    @classmethod
    def from_flat(cls, field: Field, rows: int, cols: int,
                  entries: Sequence[object]) -> "Matrix":
        if len(entries) != rows * cols:
            raise DimensionError(f"expected {rows * cols} entries, got {len(entries)}")
        it = iter(entries)
        data = tuple(tuple(field.canon(next(it)) for _ in range(cols)) for _ in range(rows))
        return cls(field, rows, cols, data)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, n, n,
                   tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(r[j] for r in self.data)

    def entries(self) -> tuple[Scalar, ...]:
        """Row-major flattening."""
        return tuple(itertools.chain.from_iterable(self.data))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(tuple(self.data[i][j] for i in range(self.rows))
                            for j in range(self.cols)))

    def _check_same_shape(self, other: "Matrix") -> None:
        require_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError(f"shape {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        F = self.field
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(F.add(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        F = self.field
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(F.sub(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.data, other.data)))

    def __neg__(self) -> "Matrix":
        F = self.field
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(F.neg(a) for a in r) for r in self.data))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        require_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        F = self.field
        zero = F.zero
        bt = other.transpose().data
        out = []
        for ra in self.data:
            out_row = []
            for cb in bt:
                acc = zero
                for a, b in zip(ra, cb):
                    acc = F.add(acc, F.mul(a, b))
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix(self.field, self.rows, other.cols, tuple(out))

    def scale(self, scalar: object) -> "Matrix":
        F = self.field
        s = F.canon(scalar)
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(F.mul(s, a) for a in r) for r in self.data))

    def is_zero(self) -> bool:
        F = self.field
        return all(F.is_zero(a) for r in self.data for a in r)

    def submatrix(self, rows: Indexish = None, cols: Indexish = None) -> "Matrix":
        ri = _as_indices(rows, self.rows)
        ci = _as_indices(cols, self.cols)
        return Matrix(self.field, len(ri), len(ci),
                      tuple(tuple(self.data[i][j] for j in ci) for i in ri))

    def assign_submatrix(self, rows: Indexish, cols: Indexish, block: "Matrix") -> "Matrix":
        """A copy with ``block`` written at the given row/column indices."""
        require_same_field(self.field, block.field)
        ri = _as_indices(rows, self.rows)
        ci = _as_indices(cols, self.cols)
        if (len(ri), len(ci)) != (block.rows, block.cols):
            raise DimensionError(f"block {block.rows}x{block.cols} does not fit {len(ri)}x{len(ci)} slot")
        data = [list(r) for r in self.data]
        for bi, i in enumerate(ri):
            for bj, j in enumerate(ci):
                data[i][j] = block.data[bi][bj]
        return Matrix(self.field, self.rows, self.cols, tuple(tuple(r) for r in data))

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<{self.rows}x{self.cols} over {self.field}>"
        F = self.field
        return "\n".join("[" + "  ".join(F.format(a) for a in r) + "]" for r in self.data)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise DimensionError("hstack needs at least one operand")
    field = require_same_field(*(m.field for m in mats))
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack operands disagree on row count")
    data = tuple(tuple(itertools.chain.from_iterable(m.data[i] for m in mats))
                 for i in range(rows))
    return Matrix(field, rows, sum(m.cols for m in mats), data)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise DimensionError("vstack needs at least one operand")
    field = require_same_field(*(m.field for m in mats))
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack operands disagree on column count")
    data = tuple(itertools.chain.from_iterable(m.data for m in mats))
    return Matrix(field, sum(m.rows for m in mats), cols, data)


def enumerate_matrices(field: Field,
                       shapes: Sequence[tuple[int, int]]) -> Iterator[tuple[Matrix, ...]]:
    """Every tuple of matrices of the given shapes over a finite field.

    Lexicographic in the concatenated row-major entries, first shape first.
    """
    sizes = [r * c for r, c in shapes]
    for combo in itertools.product(field.elements(), repeat=sum(sizes)):
        out = []
        pos = 0
        for (r, c), size in zip(shapes, sizes):
            out.append(Matrix.from_flat(field, r, c, combo[pos:pos + size]))
            pos += size
        yield tuple(out)


class RrefResult(NamedTuple):
    reduced: Matrix
    pivots: IndexSet
    transform: Matrix


def _eliminate(m: Matrix, reduce: bool = False) -> tuple[
        tuple[int, ...], Optional[list[list[Scalar]]], Optional[list[list[Scalar]]]]:
    """Greedy left-to-right Gaussian elimination on the rows of ``m``.

    The pivot columns are the column rank profile of ``m``: the
    lowest-index maximal independent set of columns, whatever row swaps the
    elimination makes.  Every rank and greedy selection is read from them.
    Without ``reduce`` only the rows below each pivot are eliminated, and
    only the pivots are returned.  With ``reduce`` the rows also come back
    in reduced row echelon form, with the invertible transform that
    produces them.  A pivot row is zero left of its pivot, so no column
    before the pivot is ever recomputed.
    """
    F = m.field
    # Scalars are canonical, so a zero test is a plain comparison.
    zero, sub, mul = F.zero, F.sub, F.mul
    a = [list(r) for r in m.data]
    t = ([[F.one if i == j else zero for j in range(m.rows)] for i in range(m.rows)]
         if reduce else None)
    pivots = []
    for col in range(m.cols):
        r = len(pivots)
        if r == m.rows:
            break
        pr = next((i for i in range(r, m.rows) if a[i][col] != zero), None)
        if pr is None:
            continue
        pivots.append(col)
        a[r], a[pr] = a[pr], a[r]
        inv = F.inverse(a[r][col])
        if reduce:
            t[r], t[pr] = t[pr], t[r]
            a[r][col:] = [F.one] + [mul(inv, x) for x in a[r][col + 1:]]
            t[r] = [mul(inv, x) for x in t[r]]
            targets = [i for i in range(m.rows) if i != r]
        else:
            targets = range(r + 1, m.rows)
        tail = a[r][col + 1:]
        for i in targets:
            c = a[i][col]
            if c == zero:
                continue
            if reduce:
                a[i][col] = zero
                t[i] = [sub(x, mul(c, y)) for x, y in zip(t[i], t[r])]
            else:
                c = mul(c, inv)
            a[i][col + 1:] = [sub(x, mul(c, y)) for x, y in zip(a[i][col + 1:], tail)]
    return (tuple(pivots), a, t) if reduce else (tuple(pivots), None, None)


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form with the invertible transform that produces it.

    ``transform @ m == reduced`` exactly; pivot columns are chosen greedily
    left to right.
    """
    pivots, a, t = _eliminate(m, reduce=True)
    return RrefResult(Matrix(m.field, m.rows, m.cols, tuple(map(tuple, a))),
                      IndexSet(pivots, m.cols),
                      Matrix(m.field, m.rows, m.rows, tuple(map(tuple, t))))


def rank(m: Matrix) -> int:
    """Rank, the length of the column rank profile; no back substitution."""
    return len(_eliminate(m)[0])


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise DimensionError(f"cannot invert {m.rows}x{m.cols} matrix")
    result = rref(m)
    if len(result.pivots) != m.rows:
        raise SingularMatrixError(f"matrix has rank {len(result.pivots)} < {m.rows}")
    return result.transform


def max_independent_rows(m: Matrix) -> IndexSet:
    """Greedy lowest-index maximal linearly independent subset of rows."""
    return IndexSet(_eliminate(m.transpose())[0], m.rows)


def max_independent_cols(m: Matrix) -> IndexSet:
    """Greedy lowest-index maximal linearly independent subset of columns."""
    return IndexSet(_eliminate(m)[0], m.cols)


def minimal_spanning_columns(extra: Matrix, anchor: Matrix) -> IndexSet:
    """Greedy minimal column set of ``extra`` spanning it modulo ``anchor``.

    Selected set S is the lexicographically first minimal one with
    Col[extra(:,S), anchor] = Col[extra, anchor]: the column rank profile of
    ``[anchor | extra]`` restricted to ``extra``.
    """
    field = require_same_field(extra.field, anchor.field)
    if extra.rows != anchor.rows:
        raise DimensionError("operands disagree on row count")
    joined = Matrix(field, extra.rows, anchor.cols + extra.cols,
                    tuple(a + e for a, e in zip(anchor.data, extra.data)))
    pivots = _eliminate(joined)[0]
    return IndexSet(tuple(j - anchor.cols for j in pivots if j >= anchor.cols), extra.cols)


def minimal_spanning_rows(extra: Matrix, anchor: Matrix) -> IndexSet:
    """Transpose-dual of :func:`minimal_spanning_columns`."""
    return minimal_spanning_columns(extra.transpose(), anchor.transpose())


def left_inverse(m: Matrix) -> Matrix:
    """The distinguished left inverse: greedy pivot rows, inverted, zero-padded."""
    pivot_rows = max_independent_rows(m)
    if len(pivot_rows) != m.cols:
        raise RankDeficiencyError(f"{m.rows}x{m.cols} matrix of rank {len(pivot_rows)} has no left inverse")
    inv = inverse(m.submatrix(rows=pivot_rows))
    out = Matrix.zeros(m.field, m.cols, m.rows)
    return out.assign_submatrix(None, pivot_rows, inv)


def right_inverse(m: Matrix) -> Matrix:
    """The distinguished right inverse: greedy pivot columns, inverted, zero-padded."""
    pivot_cols = max_independent_cols(m)
    if len(pivot_cols) != m.rows:
        raise RankDeficiencyError(f"{m.rows}x{m.cols} matrix of rank {len(pivot_cols)} has no right inverse")
    inv = inverse(m.submatrix(cols=pivot_cols))
    out = Matrix.zeros(m.field, m.cols, m.rows)
    return out.assign_submatrix(pivot_cols, None, inv)


def solve_left(a: Matrix, t: Matrix) -> Matrix:
    """Some M with M @ a = t, linear in t; raises if no solution exists.

    The particular solution is t(:,P) @ top-of-transform for the greedy rref
    pivot set P, so it is itself deterministic.
    """
    require_same_field(a.field, t.field)
    if a.cols != t.cols:
        raise DimensionError("target column count does not match")
    result = rref(a)
    k = len(result.pivots)
    phi_top = result.transform.submatrix(rows=range(k))
    m = t.submatrix(cols=result.pivots) @ phi_top
    if m @ a != t:
        raise InconsistentSystemError("rows of target leave the row space")
    return m


def solve_right(a: Matrix, t: Matrix) -> Matrix:
    """Some M with a @ M = t; transpose-dual of :func:`solve_left`."""
    return solve_left(a.transpose(), t.transpose()).transpose()


def row_space_contained(a: Matrix, b: Matrix) -> bool:
    """Row(a) subset of Row(b)."""
    require_same_field(a.field, b.field)
    if a.cols != b.cols:
        raise DimensionError("operands disagree on column count")
    return rank(vstack([a, b])) == rank(b)


def col_space_contained(a: Matrix, b: Matrix) -> bool:
    """Col(a) subset of Col(b)."""
    require_same_field(a.field, b.field)
    if a.rows != b.rows:
        raise DimensionError("operands disagree on row count")
    return rank(hstack([a, b])) == rank(b)


def trivial_col_intersection(a: Matrix, b: Matrix) -> bool:
    """Col(a) meets Col(b) only at zero."""
    require_same_field(a.field, b.field)
    if a.rows != b.rows:
        raise DimensionError("operands disagree on row count")
    return rank(hstack([a, b])) == rank(a) + rank(b)


def trivial_row_intersection(a: Matrix, b: Matrix) -> bool:
    """Row(a) meets Row(b) only at zero."""
    require_same_field(a.field, b.field)
    if a.cols != b.cols:
        raise DimensionError("operands disagree on column count")
    return rank(vstack([a, b])) == rank(a) + rank(b)
