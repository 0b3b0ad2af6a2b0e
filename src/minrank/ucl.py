"""Unique rank-minimizing completion of a 3x3-partitioned corner problem.

The data is a block array

    [ B1   C11  C12 ]
    [ B2   C21  C22 ]
    [ D1   D2   X   ]   (X unknown, bottom-left in the original orientation)

written here with B = [B1;B2] on the left, C = [[C11,C12],[C21,C22]] in the
middle, D = [D1 D2] at the bottom, and the unknown corner X completing
[[B,C],[X,D]].  Under six admissibility conditions the rank-minimizing X is
unique and equals D C^-1 B after discarding redundant rows of [B1 C11 C12]
and redundant columns of [C12;C22;D2].  This module checks the conditions,
builds the structured inverse of C, solves for X, and extracts the affine
dependence of X on the corner-adjacent blocks B2, C21, D1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .fields import Field, require_same_field
from .matrix import (
    DimensionError,
    Matrix,
    RankDeficiencyError,
    SingularMatrixError,
    hstack,
    max_independent_cols,
    max_independent_rows,
    rank,
    right_inverse,
    left_inverse,
    vstack,
)


class HypothesisError(ValueError):
    """An admissibility condition fails; ``index`` is 1-based."""

    def __init__(self, index: int, description: str):
        super().__init__(f"admissibility condition ({index}) fails: {description}")
        self.index = index


class InternalInvariantError(RuntimeError):
    """A property the theory guarantees was violated; indicates a bug."""


@dataclass(frozen=True)
class UclInstance:
    """Conformally partitioned problem data; any block may be zero-dimensional."""

    B1: Matrix
    B2: Matrix
    C11: Matrix
    C12: Matrix
    C21: Matrix
    C22: Matrix
    D1: Matrix
    D2: Matrix

    def __post_init__(self):
        require_same_field(*(m.field for m in self.blocks()))
        groups = [
            ("rows", [self.B1, self.C11, self.C12], "B1/C11/C12"),
            ("rows", [self.B2, self.C21, self.C22], "B2/C21/C22"),
            ("rows", [self.D1, self.D2], "D1/D2"),
            ("cols", [self.B1, self.B2], "B1/B2"),
            ("cols", [self.C11, self.C21, self.D1], "C11/C21/D1"),
            ("cols", [self.C12, self.C22, self.D2], "C12/C22/D2"),
        ]
        for axis, mats, label in groups:
            sizes = {getattr(m, axis) for m in mats}
            if len(sizes) > 1:
                raise DimensionError(f"blocks {label} disagree on {axis}: {sorted(sizes)}")

    def blocks(self) -> tuple[Matrix, ...]:
        return (self.B1, self.B2, self.C11, self.C12, self.C21, self.C22, self.D1, self.D2)

    @property
    def field(self) -> Field:
        return self.B1.field

    @property
    def x_rows(self) -> int:
        return self.D1.rows

    @property
    def x_cols(self) -> int:
        return self.B1.cols

    def assemble_b(self) -> Matrix:
        return vstack([self.B1, self.B2])

    def assemble_c(self) -> Matrix:
        return vstack([hstack([self.C11, self.C12]), hstack([self.C21, self.C22])])

    def assemble_d(self) -> Matrix:
        return hstack([self.D1, self.D2])


# Why each admissibility condition fails, in the paper's order (1)..(6).
_FAILURE_TEXT = (
    "column space of B1 not covered by [C11 C12]",
    "row space of D2 not covered by [C12;C22]",
    "column spaces of C11 and C12 intersect nontrivially",
    "row spaces of C22 and C12 intersect nontrivially",
    "C11 lacks full column rank",
    "C22 lacks full row rank",
)


def check_hypotheses(inst: UclInstance) -> tuple[bool, ...]:
    """Whether each admissibility condition (1)..(6) holds; exact, never raises."""
    r11, r12, r22 = rank(inst.C11), rank(inst.C12), rank(inst.C22)
    top = rank(hstack([inst.C11, inst.C12]))
    right = rank(vstack([inst.C12, inst.C22]))
    return (
        rank(hstack([inst.B1, inst.C11, inst.C12])) == top,   # (1) Col[B1 C11 C12] = Col[C11 C12]
        rank(vstack([inst.C12, inst.C22, inst.D2])) == right,  # (2) Row[C12;C22;D2] = Row[C12;C22]
        top == r11 + r12,            # (3) Col C11 and Col C12 meet only at 0
        right == r22 + r12,          # (4) Row C22 and Row C12 meet only at 0
        r11 == inst.C11.cols,        # (5) C11 has full column rank
        r22 == inst.C22.rows,        # (6) C22 has full row rank
    )


def require_hypotheses(inst: UclInstance) -> None:
    """Raise :class:`HypothesisError` for the first condition that fails."""
    holds = check_hypotheses(inst)
    if not all(holds):
        first = holds.index(False)
        raise HypothesisError(first + 1, _FAILURE_TEXT[first])


def block_c_inverse(C11: Matrix, C12: Matrix, C21: Matrix, C22: Matrix) -> Matrix:
    """Inverse of C = [[C11,C12],[C21,C22]] through its block structure.

    Uses the distinguished one-sided inverses of the full-row-rank top strip
    and the full-column-rank right strip:

        Y11 = first rows of [C11 C12]^R     Y12 = 0
        Y21 = ([0 I] - Y22 [C21 C22]) [C11 C12]^R
        Y22 = last columns of [C12;C22]^L

    The assembly is verified by multiplying back; failure means C was not
    invertible (or the admissibility conditions did not hold).
    """
    field = require_same_field(C11.field, C12.field, C21.field, C22.field)
    c1, c2 = C11.cols, C12.cols
    r1, r2 = C11.rows, C21.rows
    if C12.rows != r1 or C22.rows != r2 or C21.cols != c1 or C22.cols != c2:
        raise DimensionError("blocks of C do not conform")
    if r1 + r2 != c1 + c2:
        raise DimensionError(f"C is {r1 + r2}x{c1 + c2}, not square")

    top = hstack([C11, C12])
    right = vstack([C12, C22])
    try:
        top_r = right_inverse(top)
        right_l = left_inverse(right)
    except RankDeficiencyError as exc:
        raise SingularMatrixError(f"C is singular: {exc}") from exc

    Y11 = top_r.submatrix(rows=range(c1))
    Y12 = Matrix.zeros(field, c1, r2)
    Y22 = right_l.submatrix(cols=range(r1, r1 + r2))
    bottom_selector = hstack([Matrix.zeros(field, c2, c1), Matrix.identity(field, c2)])
    Y21 = (bottom_selector - Y22 @ hstack([C21, C22])) @ top_r
    result = vstack([hstack([Y11, Y12]), hstack([Y21, Y22])])

    c = vstack([top, hstack([C21, C22])])
    ident = Matrix.identity(field, c1 + c2)
    if c @ result != ident or result @ c != ident:
        raise SingularMatrixError("block inverse failed verification; C is singular")
    return result


def _reduce_instance(inst: UclInstance) -> UclInstance:
    """Drop dependent rows of [B1 C11 C12], then dependent columns of [C12;C22;D2].

    Greedy lowest-index selection; preserves admissibility and the solution.
    """
    keep_rows = max_independent_rows(hstack([inst.B1, inst.C11, inst.C12]))
    b1 = inst.B1.submatrix(rows=keep_rows)
    c11 = inst.C11.submatrix(rows=keep_rows)
    c12 = inst.C12.submatrix(rows=keep_rows)
    keep_cols = max_independent_cols(vstack([c12, inst.C22, inst.D2]))
    return dataclasses.replace(
        inst,
        B1=b1,
        C11=c11,
        C12=c12.submatrix(cols=keep_cols),
        C22=inst.C22.submatrix(cols=keep_cols),
        D2=inst.D2.submatrix(cols=keep_cols),
    )


def solve_ucl(inst: UclInstance) -> Matrix:
    """The unique rank-minimizing corner X for an admissible instance.

    After the reduction of :func:`_reduce_instance` the middle block C is
    square and invertible and X = D C^-1 B.  Raises
    :class:`HypothesisError` when the instance is not admissible.
    """
    require_hypotheses(inst)
    red = _reduce_instance(inst)
    try:
        c_inv = block_c_inverse(red.C11, red.C12, red.C21, red.C22)
    except (DimensionError, SingularMatrixError) as exc:
        raise InternalInvariantError(
            f"reduced instance should have invertible square C: {exc}") from exc
    return red.assemble_d() @ c_inv @ red.assemble_b()


@dataclass(frozen=True)
class AffineCoefficients:
    """Coefficients of X as an affine function of (B2, C21, D1).

    X = D1 @ E + F @ C21 @ G + H @ B2 + Kconst, with the remaining blocks
    held fixed.
    """

    E: Matrix
    F: Matrix
    G: Matrix
    H: Matrix
    Kconst: Matrix

    def evaluate(self, B2: Matrix, C21: Matrix, D1: Matrix) -> Matrix:
        return D1 @ self.E + self.F @ C21 @ self.G + self.H @ B2 + self.Kconst


def _unit(field: Field, rows: int, cols: int, i: int, j: int) -> Matrix:
    return Matrix.zeros(field, rows, cols).assign_submatrix(
        [i], [j], Matrix.from_rows(field, [[field.one]]))


def affine_coefficients(inst: UclInstance) -> AffineCoefficients:
    """Extract the affine dependence of X on (B2, C21, D1) by probing.

    The admissibility conditions do not mention B2, C21 or D1, so every
    probe instance below is admissible alongside ``inst`` itself.
    """
    field = inst.field
    d, b = inst.x_rows, inst.x_cols
    r2, c1 = inst.B2.rows, inst.C11.cols

    zero_b2 = Matrix.zeros(field, r2, b)
    zero_c21 = Matrix.zeros(field, r2, c1)
    zero_d1 = Matrix.zeros(field, d, c1)

    def probe(B2: Matrix, C21: Matrix, D1: Matrix) -> Matrix:
        return solve_ucl(dataclasses.replace(inst, B2=B2, C21=C21, D1=D1))

    kconst = probe(zero_b2, zero_c21, zero_d1)

    # D1 = unit(0, t) contributes E's row t as row 0 of the output.
    e = Matrix.zeros(field, c1, b)
    if d > 0:
        e_rows = []
        for t in range(c1):
            shifted = probe(zero_b2, zero_c21, _unit(field, d, c1, 0, t)) - kconst
            e_rows.append(shifted.row(0))
        e = Matrix.from_rows(field, e_rows, cols=b)

    # B2 = unit(s, 0) contributes H's column s as column 0 of the output.
    h = Matrix.zeros(field, d, r2)
    if b > 0:
        h_cols = []
        for s in range(r2):
            shifted = probe(_unit(field, r2, b, s, 0), zero_c21, zero_d1) - kconst
            h_cols.append(shifted.column(0))
        h = Matrix.from_rows(field, h_cols, cols=d).transpose()

    # C21 = unit(s, t) contributes the rank-one outer product F[:,s] G[t,:].
    f = Matrix.zeros(field, d, r2)
    g = Matrix.zeros(field, c1, b)
    middle = {(s, t): probe(zero_b2, _unit(field, r2, c1, s, t), zero_d1) - kconst
              for s in range(r2) for t in range(c1)}
    witness = next(((s, t, i, j)
                    for (s, t), m in sorted(middle.items())
                    for i in range(d) for j in range(b)
                    if not field.is_zero(m[i, j])), None)
    if witness is not None:
        s0, t0, i0, j0 = witness
        mu = middle[s0, t0][i0, j0]
        f = Matrix.from_rows(field, [middle[s, t0].column(j0) for s in range(r2)],
                             cols=d).transpose()
        g = Matrix.from_rows(field,
                             [middle[s0, t].row(i0) for t in range(c1)],
                             cols=b).scale(field.inverse(mu))

    coeffs = AffineCoefficients(E=e, F=f, G=g, H=h, Kconst=kconst)
    for (s, t), m in middle.items():
        if coeffs.F.submatrix(cols=[s]) @ coeffs.G.submatrix(rows=[t]) != m:
            raise InternalInvariantError("corner dependence on C21 is not rank-one coherent")
    if coeffs.evaluate(inst.B2, inst.C21, inst.D1) != solve_ucl(inst):
        raise InternalInvariantError("affine reconstruction disagrees with the direct solve")
    return coeffs
