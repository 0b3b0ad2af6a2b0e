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
from typing import Iterator

from .fields import Field, require_same_field
from .matrix import (
    DimensionError,
    IndexSet,
    InconsistentSystemError,
    Matrix,
    enumerate_matrices,
    hstack,
    minimal_spanning_columns,
    minimal_spanning_rows,
    rank,
    solve_left,
    solve_right,
    vstack,
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
    """Partitions, dependence coefficients, and dimension of the solution set.

    ``dependent_col_coeffs`` expresses B's dependent columns in the basis
    columns: B(:, dependent) = B(:, basis) @ coeffs; ``dependent_row_coeffs``
    dually with D(dependent, :) = coeffs @ D(basis, :).  Both are unique.
    """

    free_cols: IndexSet
    aux_basis_cols: IndexSet
    dependent_cols: IndexSet
    free_rows: IndexSet
    aux_basis_rows: IndexSet
    dependent_rows: IndexSet
    dependent_col_coeffs: Matrix
    dependent_row_coeffs: Matrix
    r_opt: int
    dimension: int
    base_solution: Matrix

    @property
    def basis_cols(self) -> IndexSet:
        return self.free_cols.union(self.aux_basis_cols)

    @property
    def basis_rows(self) -> IndexSet:
        return self.free_rows.union(self.aux_basis_rows)

    @property
    def col_partition(self) -> tuple[IndexSet, IndexSet, IndexSet]:
        return (self.dependent_cols, self.aux_basis_cols, self.free_cols)

    @property
    def row_partition(self) -> tuple[IndexSet, IndexSet, IndexSet]:
        return (self.free_rows, self.aux_basis_rows, self.dependent_rows)


@dataclass(frozen=True)
class FreeChoice2x2:
    """Values for the five free blocks of the hook region."""

    free_rows_dependent_cols: Matrix
    free_rows_aux_cols: Matrix
    free_rows_free_cols: Matrix
    aux_rows_free_cols: Matrix
    dependent_rows_free_cols: Matrix

    @staticmethod
    def block_shapes(s: TwoByTwoSolutionSet) -> dict[str, tuple[int, int]]:
        return {
            "free_rows_dependent_cols": (len(s.free_rows), len(s.dependent_cols)),
            "free_rows_aux_cols": (len(s.free_rows), len(s.aux_basis_cols)),
            "free_rows_free_cols": (len(s.free_rows), len(s.free_cols)),
            "aux_rows_free_cols": (len(s.aux_basis_rows), len(s.free_cols)),
            "dependent_rows_free_cols": (len(s.dependent_rows), len(s.free_cols)),
        }

    @classmethod
    def zeros(cls, field: Field, s: TwoByTwoSolutionSet) -> "FreeChoice2x2":
        return cls(**{name: Matrix.zeros(field, r, c)
                      for name, (r, c) in cls.block_shapes(s).items()})

    def validate_for(self, s: TwoByTwoSolutionSet) -> None:
        for name, (r, c) in self.block_shapes(s).items():
            block = getattr(self, name)
            if (block.rows, block.cols) != (r, c):
                raise DimensionError(
                    f"free block {name} must be {r}x{c}, got {block.rows}x{block.cols}")

    def blocks(self) -> tuple[Matrix, ...]:
        return (self.free_rows_dependent_cols, self.free_rows_aux_cols,
                self.free_rows_free_cols, self.aux_rows_free_cols,
                self.dependent_rows_free_cols)

    def __add__(self, other: "FreeChoice2x2") -> "FreeChoice2x2":
        return FreeChoice2x2(*(a + b for a, b in zip(self.blocks(), other.blocks())))


def analyze(p: TwoByTwoProblem) -> TwoByTwoSolutionSet:
    """Compute the partitions, dependence coefficients, dimension and base point.

    Deterministic: all index selections use the greedy lowest-index rule.
    """
    B, C, D = p.B, p.C, p.D

    free_cols = minimal_spanning_columns(B, C)
    col_rest = free_cols.complement()
    rel_cols = minimal_spanning_columns(B.submatrix(cols=col_rest),
                                        B.submatrix(cols=free_cols))
    aux_basis_cols = IndexSet.from_iterable(
        (col_rest.indices[k] for k in rel_cols), p.x_cols)
    dependent_cols = col_rest.difference(aux_basis_cols)

    free_rows = minimal_spanning_rows(D, C)
    row_rest = free_rows.complement()
    rel_rows = minimal_spanning_rows(D.submatrix(rows=row_rest),
                                     D.submatrix(rows=free_rows))
    aux_basis_rows = IndexSet.from_iterable(
        (row_rest.indices[k] for k in rel_rows), p.x_rows)
    dependent_rows = row_rest.difference(aux_basis_rows)

    basis_cols = free_cols.union(aux_basis_cols)
    basis_rows = free_rows.union(aux_basis_rows)
    col_coeffs = solve_right(B.submatrix(cols=basis_cols), B.submatrix(cols=dependent_cols))
    row_coeffs = solve_left(D.submatrix(rows=basis_rows), D.submatrix(rows=dependent_rows))

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
        dependent_col_coeffs=col_coeffs,
        dependent_row_coeffs=row_coeffs,
        r_opt=r_opt(p),
        dimension=dimension,
        base_solution=Matrix.zeros(p.field, p.x_rows, p.x_cols),
    )
    base = complete(p, skeleton, FreeChoice2x2.zeros(p.field, skeleton))
    return dataclasses.replace(skeleton, base_solution=base)


def complete(p: TwoByTwoProblem, s: TwoByTwoSolutionSet, f: FreeChoice2x2) -> Matrix:
    """The minimal-rank X determined by a free choice.

    Affine in ``f``; ranges over the entire solution set as ``f`` ranges over
    all values.  Raises :class:`InternalInvariantError` if the two redundant
    routes to the aux corner disagree (they cannot, absent a bug).
    """
    f.validate_for(s)
    B, C, D = p.B, p.C, p.D
    X = Matrix.zeros(p.field, p.x_rows, p.x_cols)
    X = X.assign_submatrix(s.free_rows, s.dependent_cols, f.free_rows_dependent_cols)
    X = X.assign_submatrix(s.free_rows, s.aux_basis_cols, f.free_rows_aux_cols)
    X = X.assign_submatrix(s.free_rows, s.free_cols, f.free_rows_free_cols)
    X = X.assign_submatrix(s.aux_basis_rows, s.free_cols, f.aux_rows_free_cols)
    X = X.assign_submatrix(s.dependent_rows, s.free_cols, f.dependent_rows_free_cols)

    # Every non-free row of [X D] equals its unique free-row combination plus
    # a row of [B C]; the free-row coefficients depend only on D and C.
    other_rows = s.aux_basis_rows.union(s.dependent_rows)
    other_cols = s.dependent_cols.union(s.aux_basis_cols)
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
    inst = UclInstance(
        B1=B.submatrix(cols=s.aux_basis_cols),
        B2=X.submatrix(rows=s.free_rows, cols=s.aux_basis_cols),
        C11=B.submatrix(cols=s.free_cols),
        C12=C,
        C21=X.submatrix(rows=s.free_rows, cols=s.free_cols),
        C22=d_free,
        D1=X.submatrix(rows=s.aux_basis_rows, cols=s.free_cols),
        D2=D.submatrix(rows=s.aux_basis_rows),
    )
    try:
        corner = solve_ucl(inst)
    except HypothesisError as exc:
        raise InternalInvariantError(
            f"derived corner instance must be admissible: {exc}") from exc
    if corner != X.submatrix(rows=s.aux_basis_rows, cols=s.aux_basis_cols):
        raise InternalInvariantError(
            "unique corner completion disagrees with the row-coefficient fill")
    return X


def enumerate_free_choices(field: Field, s: TwoByTwoSolutionSet) -> Iterator[FreeChoice2x2]:
    """All free choices over a finite field, lexicographic in row-major entry order."""
    shapes = FreeChoice2x2.block_shapes(s)
    for blocks in enumerate_matrices(field, list(shapes.values())):
        yield FreeChoice2x2(**dict(zip(shapes, blocks)))
