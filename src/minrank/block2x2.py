"""Complete affine solution set of the block 2x2 minimal rank completion problem.

Given B, C, D, find every X making

    [ B  C ]
    [ X  D ]

of minimal rank.  The minimum is always rank[B C] + rank[C;D] - rank C, and
the solution set is an affine space described by two index partitions:

  columns of X (= columns of B):
    free_cols       columns of B independent modulo Col C; these columns of
                    X can be chosen freely in their entirety
    aux_basis_cols  further columns completing free_cols to a column basis
                    of B; determined once the free region is fixed
    dependent_cols  columns of B inside the span of the basis columns; the
                    corresponding X columns repeat the same dependence

  rows of X (= rows of D): free_rows / aux_basis_rows / dependent_rows,
  defined dually through Row C and a row basis of D.

The free region is a hook: all of X(free_rows, :) plus all of
X(:, free_cols).  Its entry count, the solution-set dimension, is

    |free_rows| * cols(B) + rows(D) * |free_cols| - |free_rows| * |free_cols|.

Everything else is forced: each non-free row of [X D] must equal its unique
combination of the free rows of [X D] plus something from Row[B C], which
pins X(r, j) for every non-free column j.  The aux corner
X(aux_basis_rows, aux_basis_cols) is equivalently the output of the unique
corner completion of :mod:`minrank.ucl`; :func:`complete` computes it both
ways and insists they agree.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Mapping

from .fields import Field, require_same_field
from .matrix import (
    DimensionError,
    InconsistentSystemError,
    Matrix,
    enumerate_matrices,
    hstack,
    minimal_spanning_columns,
    minimal_spanning_rows,
    rank,
    solve_left,
    vstack,
    without,
)
from .ucl import HypothesisError, InternalInvariantError, UclInstance, solve_ucl


@dataclass(frozen=True)
class TwoByTwoProblem:
    """Known blocks B, C, D; the unknown X is rows(D) x cols(B)."""

    B: Matrix
    C: Matrix
    D: Matrix

    def __post_init__(self):
        require_same_field(self.B.field, self.C.field, self.D.field)
        if self.B.rows != self.C.rows:
            raise DimensionError(f"B has {self.B.rows} rows but C has {self.C.rows}")
        if self.C.cols != self.D.cols:
            raise DimensionError(f"C has {self.C.cols} columns but D has {self.D.cols}")

    @property
    def field(self) -> Field:
        return self.B.field

    @property
    def x_rows(self) -> int:
        return self.D.rows

    @property
    def x_cols(self) -> int:
        return self.B.cols

    def completed(self, X: Matrix) -> Matrix:
        if (X.rows, X.cols) != (self.x_rows, self.x_cols):
            raise DimensionError(
                f"X must be {self.x_rows}x{self.x_cols}, got {X.rows}x{X.cols}")
        return vstack([hstack([self.B, self.C]), hstack([X, self.D])])


def r_opt(p: TwoByTwoProblem) -> int:
    """The attainable lower bound rank[B C] + rank[C;D] - rank C."""
    return (rank(hstack([p.B, p.C]))
            + rank(vstack([p.C, p.D]))
            - rank(p.C))


def is_minimal(p: TwoByTwoProblem, X: Matrix) -> bool:
    return rank(p.completed(X)) == r_opt(p)


@dataclass(frozen=True)
class TwoByTwoSolutionSet:
    """Partitions, dimension and base point of the solution set."""

    free_cols: tuple[int, ...]
    aux_basis_cols: tuple[int, ...]
    dependent_cols: tuple[int, ...]
    free_rows: tuple[int, ...]
    aux_basis_rows: tuple[int, ...]
    dependent_rows: tuple[int, ...]
    r_opt: int
    dimension: int
    base_solution: Matrix


class FreeChoice(dict):
    """Values for the free blocks of X, keyed as in the problem's shape table.

    A missing block is zero.  The tables are :func:`free_shapes` here and
    :func:`minrank.overlap.free_shapes` for the overlapping problem.
    """

    def validate(self, field: Field, shapes: Mapping[Hashable, tuple[int, int]]) -> None:
        for key, m in self.items():
            if key not in shapes:
                raise DimensionError(f"unknown free block {key!r}")
            require_same_field(field, m.field)
            r, c = shapes[key]
            if (m.rows, m.cols) != (r, c):
                raise DimensionError(
                    f"free block {key!r} must be {r}x{c}, got {m.rows}x{m.cols}")

    def __add__(self, other: Mapping[Hashable, Matrix]) -> "FreeChoice":
        merged = FreeChoice(self)
        for key, m in other.items():
            merged[key] = merged[key] + m if key in merged else m
        return merged


def enumerate_free_choices(field: Field, shapes: Mapping[Hashable, tuple[int, int]]
                           ) -> Iterator[FreeChoice]:
    """All free choices over a finite field, lexicographic in block-then-entry
    order: the blocks in the table's order, each row-major."""
    for blocks in enumerate_matrices(field, list(shapes.values())):
        yield FreeChoice(zip(shapes, blocks))


def enumerate_solutions(field: Field, shapes: Mapping[Hashable, tuple[int, int]],
                        fill: Callable[[FreeChoice], Matrix], base: Matrix
                        ) -> Iterator[Matrix]:
    """``fill(g)`` for each ``g`` of :func:`enumerate_free_choices`, in order,
    by addition: ``fill`` must be affine with ``fill(FreeChoice()) == base``.

    Each free entry e, in enumeration order, is filled once as the unit
    choice; its direction is that fill minus ``base``.  The member after
    another raises one coordinate by 1 and wraps every later one from p-1 to
    0, which in GF(p) adds their directions once each, so each member costs
    one addition.  The last choice, every entry p-1, is filled directly and
    must equal base - (sum of directions); otherwise InternalInvariantError
    is raised before the first member is returned.
    """
    directions = []
    for key, (r, c) in shapes.items():
        for e in range(r * c):
            entries = [field.zero] * (r * c)
            entries[e] = field.one
            unit = FreeChoice({key: Matrix.from_flat(field, r, c, entries)})
            directions.append(fill(unit) - base)
    # suffix[e], the sum of directions e, e+1, ..., is the step that raises coordinate e.
    suffix = [Matrix.zeros(field, base.rows, base.cols)]
    for delta in reversed(directions):
        suffix.append(suffix[-1] + delta)
    suffix.reverse()
    minus_one = field.neg(field.one)
    last = FreeChoice({key: Matrix.from_flat(field, r, c, [minus_one] * (r * c))
                       for key, (r, c) in shapes.items()})
    if fill(last) != base - suffix[0]:
        raise InternalInvariantError(
            "the fill is not affine in the free choice: the all-(p-1) choice "
            "differs from the sum of the unit directions")
    return _odometer(field.p, base, suffix)


def _odometer(p: int, member: Matrix, suffix: list[Matrix]) -> Iterator[Matrix]:
    digits = [0] * (len(suffix) - 1)
    yield member
    for _ in range(p ** len(digits) - 1):
        e = len(digits) - 1
        while digits[e] == p - 1:
            digits[e] = 0
            e -= 1
        digits[e] += 1
        member = member + suffix[e]
        yield member


def _free_blocks(s: TwoByTwoSolutionSet) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """The five blocks of the hook as (rows, cols) of X, in enumeration order."""
    return {
        "free_rows_dependent_cols": (s.free_rows, s.dependent_cols),
        "free_rows_aux_cols": (s.free_rows, s.aux_basis_cols),
        "free_rows_free_cols": (s.free_rows, s.free_cols),
        "aux_rows_free_cols": (s.aux_basis_rows, s.free_cols),
        "dependent_rows_free_cols": (s.dependent_rows, s.free_cols),
    }


def free_shapes(s: TwoByTwoSolutionSet) -> dict[str, tuple[int, int]]:
    """The shape of each free block of :func:`complete`, by block name."""
    return {name: (len(rows), len(cols)) for name, (rows, cols) in _free_blocks(s).items()}


def analyze(p: TwoByTwoProblem) -> TwoByTwoSolutionSet:
    """Compute the partitions, dimension and base point.

    Deterministic: all index selections use the greedy lowest-index rule.
    :func:`r_opt` is |free_cols| + |free_rows| + rank C: the free columns are
    the rank[B C] - rank C columns of B independent modulo Col C, rows dually.
    """
    B, C, D = p.B, p.C, p.D

    free_cols = minimal_spanning_columns(B, C)
    col_rest = without(range(p.x_cols), free_cols)
    rel_cols = minimal_spanning_columns(B.submatrix(cols=col_rest),
                                        B.submatrix(cols=free_cols))
    aux_basis_cols = tuple(col_rest[k] for k in rel_cols)
    dependent_cols = without(col_rest, aux_basis_cols)

    free_rows = minimal_spanning_rows(D, C)
    row_rest = without(range(p.x_rows), free_rows)
    rel_rows = minimal_spanning_rows(D.submatrix(rows=row_rest),
                                     D.submatrix(rows=free_rows))
    aux_basis_rows = tuple(row_rest[k] for k in rel_rows)
    dependent_rows = without(row_rest, aux_basis_rows)

    dimension = (len(free_rows) * p.x_cols
                 + p.x_rows * len(free_cols)
                 - len(free_rows) * len(free_cols))
    skeleton = TwoByTwoSolutionSet(
        free_cols=free_cols,
        aux_basis_cols=aux_basis_cols,
        dependent_cols=dependent_cols,
        free_rows=free_rows,
        aux_basis_rows=aux_basis_rows,
        dependent_rows=dependent_rows,
        r_opt=len(free_cols) + len(free_rows) + rank(C),
        dimension=dimension,
        base_solution=Matrix.zeros(p.field, p.x_rows, p.x_cols),
    )
    base = complete(p, skeleton, FreeChoice())
    return dataclasses.replace(skeleton, base_solution=base)


def complete(p: TwoByTwoProblem, s: TwoByTwoSolutionSet, f: FreeChoice) -> Matrix:
    """The minimal-rank X determined by a free choice.

    Affine in ``f``; ranges over the entire solution set as ``f`` ranges over
    all values.  Raises :class:`InternalInvariantError` if the two redundant
    routes to the aux corner disagree (they cannot, absent a bug).
    """
    f.validate(p.field, free_shapes(s))
    B, C, D = p.B, p.C, p.D
    X = Matrix.zeros(p.field, p.x_rows, p.x_cols)
    blocks = _free_blocks(s)
    for name, m in f.items():
        X = X.assign_submatrix(*blocks[name], m)

    # Every non-free row of [X D] equals its unique free-row combination plus
    # a row of [B C]; the free-row coefficients depend only on D and C.
    other_rows = without(range(p.x_rows), s.free_rows)
    other_cols = without(range(p.x_cols), s.free_cols)
    d_free = D.submatrix(rows=s.free_rows)
    d_other = D.submatrix(rows=other_rows)
    try:
        lam = solve_left(vstack([d_free, C]), d_other).submatrix(
            cols=range(len(s.free_rows)))
        top_residual = d_other - lam @ d_free
        free_col_residual = (X.submatrix(rows=other_rows, cols=s.free_cols)
                             - lam @ X.submatrix(rows=s.free_rows, cols=s.free_cols))
        u = solve_left(hstack([C, B.submatrix(cols=s.free_cols)]),
                       hstack([top_residual, free_col_residual]))
    except InconsistentSystemError as exc:
        raise InternalInvariantError(
            f"forced rows of the completion are not expressible: {exc}") from exc
    determined = (lam @ X.submatrix(rows=s.free_rows, cols=other_cols)
                  + u @ B.submatrix(cols=other_cols))
    X = X.assign_submatrix(other_rows, other_cols, determined)

    # Independent route to the aux corner through the unique corner completion.
    corner = complete_rows(p, X, s.free_rows, s.free_cols, s.aux_basis_rows, s.aux_basis_cols)
    if corner != X.submatrix(rows=s.aux_basis_rows, cols=s.aux_basis_cols):
        raise InternalInvariantError(
            "unique corner completion disagrees with the row-coefficient fill")
    return X


def complete_rows(p: TwoByTwoProblem, X: Matrix, fixed: tuple[int, ...],
                  kept: tuple[int, ...], rows: tuple[int, ...],
                  cols: tuple[int, ...]) -> Matrix:
    """X(rows, cols) by one unique corner completion, the step of both fills.

    X(fixed, :) and X(rows, kept) are known; the middle block of the corner
    instance is [B(:, kept) C; X(fixed, kept) D(fixed, :)].  A failed condition
    is a bug in the caller's partition and raises InternalInvariantError.
    """
    inst = UclInstance(
        B1=p.B.submatrix(cols=cols),
        B2=X.submatrix(rows=fixed, cols=cols),
        C11=p.B.submatrix(cols=kept),
        C12=p.C,
        C21=X.submatrix(rows=fixed, cols=kept),
        C22=p.D.submatrix(rows=fixed),
        D1=X.submatrix(rows=rows, cols=kept),
        D2=p.D.submatrix(rows=rows),
    )
    try:
        return solve_ucl(inst)
    except HypothesisError as exc:
        raise InternalInvariantError(
            f"completing X rows {list(rows)}, columns {list(cols)} must be admissible: "
            f"{exc}") from exc
