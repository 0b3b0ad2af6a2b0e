"""Exact dense linear algebra: rref, rank, spans, one-sided inverses, solvers."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minrank import (
    GF,
    QQ,
    DimensionError,
    FieldMismatchError,
    InconsistentSystemError,
    Matrix,
    RankDeficiencyError,
    SingularMatrixError,
    hstack,
    inverse,
    left_inverse,
    max_independent_cols,
    max_independent_rows,
    minimal_spanning_columns,
    minimal_spanning_rows,
    rank,
    right_inverse,
    rref,
    solve_left,
    vstack,
)
from minrank import matrix
from minrank.matrix import without

import reference
from gens import rand_matrix
from spans import (
    col_space_contained,
    row_space_contained,
    trivial_col_intersection,
    trivial_row_intersection,
)

FIELDS = (QQ, GF(2), GF(5))


def elements(field):
    if field is QQ:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(min_value=0, max_value=field.p - 1)


@st.composite
def matrices(draw, max_rows=4, max_cols=4, min_rows=0, min_cols=0, fields=FIELDS):
    field = draw(st.sampled_from(fields))
    r = draw(st.integers(min_rows, max_rows))
    c = draw(st.integers(min_cols, max_cols))
    ents = draw(st.lists(elements(field), min_size=r * c, max_size=r * c))
    return Matrix.from_flat(field, r, c, ents)


def q(rows):
    return Matrix.from_rows(QQ, rows)


# ---------------------------------------------------------------- structure


def test_construction_and_accessors():
    m = Matrix.from_rows(GF(5), [[1, 7], [3, -1]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[0, 1] == 2
    assert m.row(1) == (3, 4)
    assert m.column(0) == (1, 3)
    assert m.entries() == (1, 2, 3, 4)
    assert m.transpose().transpose() == m
    assert not m.is_zero()
    assert Matrix.zeros(QQ, 2, 3).is_zero()
    assert Matrix.identity(QQ, 0) == Matrix.zeros(QQ, 0, 0)


def test_from_rows_edge_cases():
    assert Matrix.from_rows(QQ, [], cols=3) == Matrix.zeros(QQ, 0, 3)
    with pytest.raises(DimensionError):
        Matrix.from_rows(QQ, [])
    with pytest.raises(DimensionError):
        Matrix.from_rows(QQ, [[1, 2], [3]])
    with pytest.raises(TypeError):
        Matrix.from_rows(QQ, [[0.5]])


def test_arithmetic():
    a = q([[1, 2], [3, 4]])
    b = q([[0, 1], [1, 0]])
    assert a + b == q([[1, 3], [4, 4]])
    assert a - b == q([[1, 1], [2, 4]])
    assert a.scale(2) == q([[2, 4], [6, 8]])
    assert a @ b == q([[2, 1], [4, 3]])
    assert Matrix.identity(QQ, 2) @ q([[2], [3]]) == q([[2], [3]])
    with pytest.raises(DimensionError):
        a @ q([[1, 2]])
    with pytest.raises(DimensionError):
        a + q([[1, 2]])
    with pytest.raises(FieldMismatchError):
        a @ Matrix.identity(GF(5), 2)


@pytest.mark.parametrize("field", (GF(2), GF(101), QQ), ids=str)
def test_sum_and_difference_match_the_field_operations(field):
    rng = random.Random(7)
    shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(30)]
    for r, c in shapes:
        a, b = rand_matrix(rng, field, r, c), rand_matrix(rng, field, r, c)
        for result, op in ((a + b, field.add), (a - b, field.sub)):
            assert (result.rows, result.cols) == (r, c)
            assert result.data == tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a.data, b.data))


def test_stacking():
    assert vstack([Matrix.zeros(QQ, 0, 2), q([[1, 2]])]) == q([[1, 2]])
    assert hstack([Matrix.zeros(QQ, 2, 0), q([[1], [2]])]) == q([[1], [2]])
    a, b, c = q([[1]]), q([[2]]), q([[3]])
    assert hstack([hstack([a, b]), c]) == hstack([a, hstack([b, c])])
    assert vstack([a, vstack([b, c])]) == vstack([vstack([a, b]), c])
    with pytest.raises(DimensionError):
        hstack([])
    with pytest.raises(DimensionError):
        hstack([q([[1]]), q([[1], [2]])])
    with pytest.raises(DimensionError):
        vstack([q([[1]]), q([[1, 2]])])


def test_submatrix_and_assign():
    eye = Matrix.identity(QQ, 3)
    assert eye.submatrix(rows=(0, 2), cols=range(0, 3, 2)) == Matrix.identity(QQ, 2)
    assert eye.submatrix(rows=[1]) == q([[0, 1, 0]])
    assert eye.submatrix() == eye
    stamped = eye.assign_submatrix([0, 2], [1], q([[7], [8]]))
    assert stamped == q([[1, 7, 0], [0, 1, 0], [0, 8, 1]])
    assert eye[0, 1] == 0  # original untouched
    with pytest.raises(DimensionError):
        eye.assign_submatrix([0], [1], q([[7], [8]]))
    for bad in (3, -1):
        with pytest.raises(DimensionError):
            eye.submatrix(rows=[0, bad])
        with pytest.raises(DimensionError):
            eye.submatrix(cols=(bad,))
        with pytest.raises(DimensionError):
            eye.assign_submatrix([bad], [0], q([[7]]))
        with pytest.raises(DimensionError):
            eye.assign_submatrix([0], [bad], q([[7]]))
    assert without((4, 0, 3, 1), (3, 9)) == (4, 0, 1)
    assert without(range(5), ()) == (0, 1, 2, 3, 4)


# ---------------------------------------------------------------- rref/rank


def assert_is_rref(m):
    """Structural reduced-row-echelon check, independent of the library."""
    field = m.field
    last_pivot = -1
    for i in range(m.rows):
        row = m.row(i)
        nonzero = [j for j, v in enumerate(row) if not field.is_zero(v)]
        if not nonzero:
            for k in range(i, m.rows):
                assert all(field.is_zero(v) for v in m.row(k))
            return
        j = nonzero[0]
        assert j > last_pivot
        last_pivot = j
        assert row[j] == field.one
        for k in range(m.rows):
            if k != i:
                assert field.is_zero(m[k, j])


def test_rref_examples():
    res = rref(q([[2, 4], [1, 2]]))
    assert res.reduced == q([[1, 2], [0, 0]])
    assert tuple(res.pivots) == (0,)
    eye = Matrix.identity(GF(5), 3)
    assert rref(eye).reduced == eye
    assert tuple(rref(eye).pivots) == (0, 1, 2)
    empty = Matrix.zeros(QQ, 0, 3)
    assert rref(empty).reduced == empty
    assert len(rref(empty).pivots) == 0


@given(matrices())
def test_rref_properties(m):
    res = rref(m)
    assert res.transform @ m == res.reduced
    assert rank(res.transform) == m.rows
    assert_is_rref(res.reduced)
    assert len(res.pivots) == rank(m)


def test_rank_examples():
    assert rank(Matrix.identity(QQ, 2)) == 2
    assert rank(q([[1, 2], [2, 4]])) == 1
    assert rank(Matrix.zeros(GF(2), 0, 7)) == 0
    assert rank(Matrix.zeros(GF(2), 3, 0)) == 0


@given(matrices())
def test_rank_transpose(m):
    assert rank(m) == rank(m.transpose())


@given(st.data())
def test_rank_of_product(data):
    field = data.draw(st.sampled_from(FIELDS))
    m, k, n = (data.draw(st.integers(0, 3)) for _ in range(3))
    a = Matrix.from_flat(
        field, m, k, data.draw(st.lists(elements(field), min_size=m * k, max_size=m * k))
    )
    b = Matrix.from_flat(
        field, k, n, data.draw(st.lists(elements(field), min_size=k * n, max_size=k * n))
    )
    assert rank(a @ b) <= min(rank(a), rank(b))
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


# ------------------------------------------------------- span selection


def brute_minimal_spanning_columns(extra, anchor):
    """Reference: first subset in (cardinality, lexicographic) order whose
    columns together with the anchor span Col[anchor extra]."""
    target = rank(hstack([anchor, extra]))
    for size in range(extra.cols + 1):
        for combo in itertools.combinations(range(extra.cols), size):
            sub = extra.submatrix(cols=list(combo))
            if rank(hstack([anchor, sub])) == target:
                return combo
    raise AssertionError("unreachable")


def test_minimal_spanning_columns_examples():
    assert (
        tuple(minimal_spanning_columns(q([[1, 1], [0, 0]]), q([[1], [0]]))) == ()
    )
    assert tuple(
        minimal_spanning_columns(Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 0))
    ) == (0, 1)
    assert tuple(
        minimal_spanning_columns(q([[1, 2], [2, 4]]), Matrix.zeros(QQ, 2, 0))
    ) == (0,)
    with pytest.raises(DimensionError):
        minimal_spanning_columns(q([[1]]), q([[1], [2]]))


def test_minimal_spanning_rows_examples():
    assert tuple(minimal_spanning_rows(q([[1, 0], [1, 0]]), Matrix.zeros(QQ, 0, 2))) == (0,)
    assert tuple(minimal_spanning_rows(Matrix.identity(QQ, 2), q([[1, 0]]))) == (1,)
    assert (
        tuple(minimal_spanning_rows(Matrix.zeros(QQ, 0, 3), q([[1, 1, 1]]))) == ()
    )


@given(matrices(max_rows=3, max_cols=4), st.data())
def test_minimal_spanning_columns_matches_brute_force(extra, data):
    anchor_cols = data.draw(st.integers(0, 2))
    ents = data.draw(
        st.lists(elements(extra.field), min_size=extra.rows * anchor_cols,
                 max_size=extra.rows * anchor_cols)
    )
    anchor = Matrix.from_flat(extra.field, extra.rows, anchor_cols, ents)
    got = tuple(minimal_spanning_columns(extra, anchor))
    assert got == brute_minimal_spanning_columns(extra, anchor)
    # span equality and minimality, asserted directly
    target = rank(hstack([anchor, extra]))
    assert rank(hstack([anchor, extra.submatrix(cols=list(got))])) == target
    assert len(got) == target - rank(anchor)
    for drop in range(len(got)):
        kept = [c for k, c in enumerate(got) if k != drop]
        assert rank(hstack([anchor, extra.submatrix(cols=kept)])) < target
    # with no anchor the same greedy rule picks the independent rows and columns
    no_anchor = Matrix.zeros(extra.field, extra.rows, 0)
    assert tuple(max_independent_cols(extra)) == brute_minimal_spanning_columns(extra, no_anchor)
    dual = extra.transpose()
    assert tuple(max_independent_rows(extra)) == brute_minimal_spanning_columns(
        dual, Matrix.zeros(extra.field, dual.rows, 0))


@given(matrices(max_rows=4, max_cols=3), st.data())
def test_minimal_spanning_rows_is_transpose_dual(extra, data):
    anchor_rows = data.draw(st.integers(0, 2))
    ents = data.draw(
        st.lists(elements(extra.field), min_size=extra.cols * anchor_rows,
                 max_size=extra.cols * anchor_rows)
    )
    anchor = Matrix.from_flat(extra.field, anchor_rows, extra.cols, ents)
    got = minimal_spanning_rows(extra, anchor)
    dual = minimal_spanning_columns(extra.transpose(), anchor.transpose())
    assert tuple(got) == tuple(dual)


@given(matrices())
def test_max_independent_sets(m):
    rows = max_independent_rows(m)
    cols = max_independent_cols(m)
    assert len(rows) == rank(m) == len(cols)
    assert rank(m.submatrix(rows=rows)) == rank(m)
    assert rank(m.submatrix(cols=cols)) == rank(m)
    # greedy lowest-index rule: prefix independence
    picked = list(rows)
    for t in range(len(picked)):
        assert rank(m.submatrix(rows=picked[: t + 1])) == t + 1


# ------------------------------------------------------- one-sided inverses


def test_one_sided_inverse_examples():
    assert left_inverse(q([[1], [1]])) == q([[1, 0]])
    assert left_inverse(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 3)
    assert right_inverse(q([[1, 2]])) == q([[1], [0]])
    with pytest.raises(RankDeficiencyError):
        left_inverse(q([[1, 2], [2, 4]]))
    with pytest.raises(RankDeficiencyError):
        right_inverse(q([[1], [1]]))


@given(matrices())
def test_one_sided_inverse_properties(m):
    if rank(m) == m.cols:
        assert left_inverse(m) @ m == Matrix.identity(m.field, m.cols)
    else:
        with pytest.raises(RankDeficiencyError):
            left_inverse(m)
    if rank(m) == m.rows:
        assert m @ right_inverse(m) == Matrix.identity(m.field, m.rows)
    else:
        with pytest.raises(RankDeficiencyError):
            right_inverse(m)


def test_inverse():
    third = Fraction(1, 3)
    assert inverse(q([[1, 2], [0, 3]])) == q([[1, -2 * third], [0, third]])
    with pytest.raises(SingularMatrixError):
        inverse(q([[1, 2], [2, 4]]))
    with pytest.raises(DimensionError):
        inverse(q([[1, 2]]))
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(10):
            n = rng.randint(0, 4)
            while True:
                m = rand_matrix(rng, field, n, n)
                if rank(m) == n:
                    break
            assert m @ inverse(m) == Matrix.identity(field, n)
            assert inverse(m) @ m == Matrix.identity(field, n)


# ------------------------------------------------------------------ solvers


@given(matrices(max_rows=3, max_cols=3), st.data())
def test_solve_left_right_roundtrip(a, data):
    k = data.draw(st.integers(0, 3))
    ents = data.draw(st.lists(elements(a.field), min_size=k * a.rows, max_size=k * a.rows))
    m0 = Matrix.from_flat(a.field, k, a.rows, ents)
    t = m0 @ a
    m = solve_left(a, t)
    assert m @ a == t


def test_solvers_reject_inconsistent_systems():
    a = q([[1, 2], [2, 4]])
    with pytest.raises(InconsistentSystemError):
        solve_left(a, Matrix.identity(QQ, 2))
    # zero-dimension systems are total
    assert solve_left(Matrix.zeros(QQ, 0, 2), Matrix.zeros(QQ, 3, 2)) == Matrix.zeros(QQ, 3, 0)


# --------------------------------------------------------- subspace tests


def test_subspace_predicate_examples():
    assert trivial_col_intersection(q([[1], [0]]), q([[0], [1]]))
    assert not trivial_row_intersection(q([[1, 0]]), q([[2, 0]]))
    assert row_space_contained(q([[1, 1]]), Matrix.identity(QQ, 2))
    assert not row_space_contained(Matrix.identity(QQ, 2), q([[1, 1]]))
    assert col_space_contained(q([[2], [0]]), q([[1, 5], [0, 0]]))
    with pytest.raises(DimensionError):
        row_space_contained(q([[1, 1]]), q([[1]]))


@given(matrices(max_rows=3, max_cols=3), st.data())
def test_subspace_predicates_match_rank_arithmetic(a, data):
    k = data.draw(st.integers(0, 3))
    ents = data.draw(st.lists(elements(a.field), min_size=k * a.cols, max_size=k * a.cols))
    b = Matrix.from_flat(a.field, k, a.cols, ents)
    assert row_space_contained(a, b) == (rank(vstack([a, b])) == rank(b))
    assert trivial_row_intersection(a, b) == (
        rank(vstack([a, b])) == rank(a) + rank(b)
    )
    at, bt = a.transpose(), b.transpose()
    assert col_space_contained(at, bt) == row_space_contained(a, b)
    assert trivial_col_intersection(at, bt) == trivial_row_intersection(a, b)


# ------------------------------------------------------ packed GF(p) kernel

# 2**63 - 25 is the largest prime PrimeField admits (2**63 - 1 is not prime).
PACKED_FIELDS = (GF(2), GF(3), GF(101), GF(2**61 - 1), GF(2**63 - 25))


def kernel_cases(rng, field):
    """Seeded GF(p) matrices: random, rank-deficient and worst-case slot growth."""
    p = field.p
    for _ in range(40):
        r, c = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.random()
        yield Matrix.from_flat(field, r, c, [rng.randrange(p) if rng.random() < density else 0
                                             for _ in range(r * c)])
        k = rng.randint(0, min(r, c))
        yield rand_matrix(rng, field, r, k) @ rand_matrix(rng, field, k, c)
    for r in range(10):
        yield Matrix.from_rows(field, [[p - 1] * 3] * r, cols=3)
    # Row i < n-1 is u e_i + v e_last, the last row is all u: the last row
    # takes n-1 updates that each add (p-1)**2 to its last slot.
    for n in range(2, 10):
        for u, v in ((1, p - 1), (p - 1, p - 1)):
            rows = [[u if j == i else 0 for j in range(n - 1)] + [v] for i in range(n - 1)]
            yield Matrix.from_rows(field, rows + [[u] * n])


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=str)
def test_packed_elimination_matches_the_generic_loop(field):
    rng = random.Random(field.p % 1000)
    for m in kernel_cases(rng, field):
        for reduce in (False, True):
            assert matrix._eliminate_packed(m, reduce) == reference.eliminate(m, reduce)


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=str)
def test_packed_product_matches_the_scalar_product(field):
    rng = random.Random(field.p % 1000)
    p = field.p
    pairs = []
    for _ in range(60):
        r, k, c = (rng.randint(0, 9) for _ in range(3))
        pairs.append((rand_matrix(rng, field, r, k), rand_matrix(rng, field, k, c)))
    for k in range(10):
        full = Matrix.from_flat(field, 3, k, [p - 1] * 3 * k)
        pairs.append((full, full.transpose()))
    for a, b in pairs:
        assert (a @ b).data == tuple(
            tuple(sum(a[i, l] * b[l, j] for l in range(a.cols)) % p for j in range(b.cols))
            for i in range(a.rows))


# ------------------------------------------------- fraction-free QQ kernel


def rational_kernel_cases(rng):
    """Seeded QQ matrices: integer, fractional, rank-deficient, huge denominators."""
    big = 2**61 - 1

    def scalar(kind):
        if rng.random() < 0.25:
            return 0
        if kind == 1:
            return rng.randint(-9, 9)
        if kind == 2:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        return Fraction(rng.randint(-big, big), rng.choice((big, big - 2, 3 * big)))

    for _ in range(60):
        r, c, kind = rng.randint(0, 9), rng.randint(0, 9), rng.randint(1, 3)
        yield Matrix.from_flat(QQ, r, c, [scalar(kind) for _ in range(r * c)])
        k = rng.randint(0, min(r, c))
        yield (Matrix.from_flat(QQ, r, k, [scalar(kind) for _ in range(r * k)])
               @ Matrix.from_flat(QQ, k, c, [scalar(kind) for _ in range(k * c)]))
    for n in range(10):
        # Negative diagonal pivots with 1/big off the diagonal, and a rank-1 -1/big block.
        yield Matrix.from_rows(QQ, [[-(i + 1) if i == j else Fraction(1, big) for j in range(n)]
                                    for i in range(n)], cols=n)
        yield Matrix.from_rows(QQ, [[Fraction(-1, big)] * 3] * n, cols=3)


def test_integer_elimination_matches_the_reference_loop():
    for m in rational_kernel_cases(random.Random(12)):
        for reduce in (False, True):
            got = matrix._eliminate(m, reduce)
            assert got == reference.eliminate(m, reduce)
            if reduce:
                assert all(type(x) is Fraction for part in got[1:] for row in part for x in row)


def test_rational_product_matches_the_reference_product():
    rng = random.Random(13)
    cases = list(rational_kernel_cases(rng))
    for a in cases:
        b = rng.choice([m for m in cases if m.rows == a.cols] or [Matrix.zeros(QQ, a.cols, 2)])
        product = a @ b
        assert product == reference.matmul(a, b)
        assert all(type(x) is Fraction for x in product.entries())
