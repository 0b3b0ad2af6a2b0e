"""Dense exact matrices with rank machinery and distinguished one-sided inverses.

Everything is built for correctness over an exact :class:`~minrank.fields.Field`
and for total support of zero-row / zero-column matrices, which occur
constantly as degenerate blocks.  All selection rules (pivots, maximal
independent subsets, minimal spanning subsets) are greedy lowest-index-first,
so every derived object is deterministic and reproducible.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .fields import Field, PrimeField, Scalar, require_same_field


class DimensionError(ValueError):
    """Operands or index sets do not conform."""


class RankDeficiencyError(ValueError):
    """A full-rank precondition does not hold."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is not."""


class InconsistentSystemError(ValueError):
    """A linear system required to be solvable has no solution."""


Indexish = Optional[Sequence[int]]


def _as_indices(sel: Indexish, size: int) -> tuple[int, ...]:
    if sel is None:
        return tuple(range(size))
    out = tuple(sel)
    for i in out:
        if not 0 <= i < size:
            raise DimensionError(f"index {i} outside axis of size {size}")
    return out


def without(items: Iterable[int], drop: Iterable[int]) -> tuple[int, ...]:
    """``items`` in order, less ``drop``."""
    dropped = set(drop)
    return tuple(i for i in items if i not in dropped)


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

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        self._check_same_shape(other)
        F = self.field
        if isinstance(F, PrimeField):
            p = F.p
            data = tuple(tuple(x % p for x in map(op, ra, rb))
                         for ra, rb in zip(self.data, other.data))
        else:
            data = tuple(tuple(map(op, ra, rb)) for ra, rb in zip(self.data, other.data))
        return Matrix(F, self.rows, self.cols, data)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.sub)

    def __neg__(self) -> "Matrix":
        F = self.field
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(F.neg(a) for a in r) for r in self.data))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        require_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        F = self.field
        if isinstance(F, PrimeField):
            # Row i of the product is sum_k self[i, k] * (row k of other), packed.
            w = _slot_width(F.p, self.cols)
            packed = _pack_rows(other.data, w)
            return Matrix(F, self.rows, other.cols, tuple(
                tuple(_unpack(sum(map(operator.mul, ra, packed)), other.cols, w, F.p))
                for ra in self.data))
        # Rationals: row i of self and column j of other, each with its
        # denominators cleared, give entry (i, j) as one integer dot product.
        left, d = _clear_denominators(self.data)
        right, e = _clear_denominators(other.transpose().data)
        return Matrix(F, self.rows, other.cols, tuple(
            tuple(Fraction(sum(map(operator.mul, ra, cb)), di * ej) for cb, ej in zip(right, e))
            for ra, di in zip(left, d)))

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
    pivots: tuple[int, ...]
    transform: Matrix


Eliminated = tuple[tuple[int, ...], Optional[list[list[Scalar]]],
                   Optional[list[list[Scalar]]]]


def _eliminate(m: Matrix, reduce: bool = False) -> Eliminated:
    """Greedy left-to-right Gaussian elimination on the rows of ``m``.

    The pivot columns are the column rank profile of ``m``: the
    lowest-index maximal independent set of columns, whatever row swaps the
    elimination makes.  Every rank and greedy selection is read from them.
    Without ``reduce`` only the rows below each pivot are eliminated, and
    only the pivots are returned.  With ``reduce`` the rows also come back
    in reduced row echelon form, with the invertible transform that
    produces them.  GF(p) runs the packed kernel and the rationals the
    integer one.  Both take as pivot the first nonzero entry at or below
    the next pivot row, so the pivots and swaps, and hence the reduced rows
    and transform, are those of textbook elimination with unit pivots.
    """
    if isinstance(m.field, PrimeField):
        return _eliminate_packed(m, reduce)
    return _eliminate_integer(m, reduce)


def _eliminate_integer(m: Matrix, reduce: bool = False) -> Eliminated:
    """:func:`_eliminate` over the rationals, fraction-free (Bareiss, 1968).

    Each row is multiplied by the lcm of its denominators.  A target row
    then takes ``x <- (piv * x - c * y) // prev``, ``prev`` being the
    previous pivot.  Every entry stays an integer minor, so every division
    is exact, and every row is a nonzero multiple of the row that
    elimination with unit pivots holds, with the same pivots.  With
    ``reduce`` the rows above the pivot are updated too (fraction-free
    Gauss-Jordan), and each row carries its row of the transform of the
    cleared matrix; multiplying column j of that by row j's lcm makes it a
    transform of ``m``.  Then each pivot row is divided by its pivot, and
    each zero row by its transform's entry on its own original row, which
    unit pivots leave at 1.
    """
    rows, cols = m.rows, m.cols
    a, dens = _clear_denominators(m.data)
    if reduce:
        for i, row in enumerate(a):
            row += [0] * rows
            row[cols + i] = 1
        orig = list(range(rows))
    pivots = []
    prev = 1
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if a[i][col]), None)
        if pr is None:
            continue
        pivots.append(col)
        a[r], a[pr] = a[pr], a[r]
        piv = a[r][col]
        if reduce:
            orig[r], orig[pr] = orig[pr], orig[r]
            # Rows above the pivot row are nonzero left of the pivot.
            lo, targets = 0, [i for i in range(rows) if i != r]
        else:
            lo, targets = col + 1, range(r + 1, rows)
        tail = a[r][lo:]
        for i in targets:
            row = a[i]
            c = row[col]
            if c:
                row[lo:] = [(piv * x - c * y) // prev for x, y in zip(row[lo:], tail)]
            elif piv != prev:
                row[lo:] = [piv * x // prev for x in row[lo:]]
        prev = piv
    if not reduce:
        return tuple(pivots), None, None
    k = len(pivots)
    out_a, out_t = [], []
    for i, row in enumerate(a):
        t = [x * d for x, d in zip(row[cols:], dens)]
        div = row[pivots[i]] if i < k else t[orig[i]]
        out_a.append([Fraction(x, div) for x in row[:cols]])
        out_t.append([Fraction(x, div) for x in t])
    return tuple(pivots), out_a, out_t


def _clear_denominators(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, as ints, and those lcms."""
    out, dens = [], []
    for row in rows:
        d = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (d // x.denominator) for x in row])
        dens.append(d)
    return out, dens


def _eliminate_packed(m: Matrix, reduce: bool = False) -> Eliminated:
    """:func:`_eliminate` over GF(p), each row packed into one ``int``.

    Entry j of a row is slot j (see :func:`_pack_rows`); with ``reduce``
    the row of the transform follows in slots ``cols`` onwards, so one
    multiply-add updates both.  A pivot row is reduced mod p (and, with
    ``reduce``, scaled to a unit pivot) before use, and a target row takes
    ``a[i] += (p - c) * pivot``.  A slot so holds one residue plus at most
    ``rows - 1`` products of two residues since its row was last reduced,
    which :func:`_slot_width` leaves room for: no slot ever carries into
    the next, and each is its entry plus a multiple of p.
    """
    p, rows, cols = m.field.p, m.rows, m.cols
    w = _slot_width(p, rows)
    mask = (1 << w) - 1
    width = cols + rows if reduce else cols
    a = _pack_rows(m.data, w)
    if reduce:
        a = [x | 1 << (cols + i) * w for i, x in enumerate(a)]
    pivots = []
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        shift = col * w
        pr = next((i for i in range(r, rows) if (a[i] >> shift & mask) % p), None)
        if pr is None:
            continue
        pivots.append(col)
        a[r], a[pr] = a[pr], a[r]
        # Slots left of the pivot are multiples of p: dropped, they read 0.
        tail = a[r] >> shift
        inv = pow(tail & mask, -1, p)
        scale, factor = (inv, 1) if reduce else (1, inv)
        pivot = 0
        for s in range((width - col - 1) * w, -1, -w):
            pivot = pivot << w | (tail >> s & mask) * scale % p
        a[r] = pivot = pivot << shift
        for i in range(rows) if reduce else range(r + 1, rows):
            c = (a[i] >> shift & mask) % p
            if c and i != r:
                a[i] += (p - c * factor % p) * pivot
    if not reduce:
        return tuple(pivots), None, None
    slots = [_unpack(x, width, w, p) for x in a]
    return tuple(pivots), [s[:cols] for s in slots], [s[cols:] for s in slots]


def _slot_width(p: int, terms: int) -> int:
    """Bits for a slot holding a residue plus ``terms`` products of two residues.

    Such a slot is below ``p + terms * (p - 1)**2 < (terms + 1) * 4**bitlen(p)``.
    """
    return 2 * p.bit_length() + (terms + 1).bit_length()


def _pack_rows(rows: Iterable[Sequence[int]], w: int) -> list[int]:
    """Each row of values below ``2**w`` as one int, entry j in bits [j*w, (j+1)*w)."""
    out = []
    for row in rows:
        x = 0
        for v in reversed(row):
            x = x << w | v
        out.append(x)
    return out


def _unpack(x: int, n: int, w: int, p: int) -> list[int]:
    """The ``n`` lowest ``w``-bit slots of ``x``, reduced mod ``p``."""
    mask = (1 << w) - 1
    return [(x >> s & mask) % p for s in range(0, n * w, w)]


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form with the invertible transform that produces it.

    ``transform @ m == reduced`` exactly; pivot columns are chosen greedily
    left to right.
    """
    pivots, a, t = _eliminate(m, reduce=True)
    return RrefResult(Matrix(m.field, m.rows, m.cols, tuple(map(tuple, a))),
                      pivots,
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


def max_independent_rows(m: Matrix) -> tuple[int, ...]:
    """Greedy lowest-index maximal linearly independent subset of rows."""
    return _eliminate(m.transpose())[0]


def max_independent_cols(m: Matrix) -> tuple[int, ...]:
    """Greedy lowest-index maximal linearly independent subset of columns."""
    return _eliminate(m)[0]


def minimal_spanning_columns(extra: Matrix, anchor: Matrix) -> tuple[int, ...]:
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
    return tuple(j - anchor.cols for j in pivots if j >= anchor.cols)


def minimal_spanning_rows(extra: Matrix, anchor: Matrix) -> tuple[int, ...]:
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

