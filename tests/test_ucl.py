"""Unique completion of the 3x3-partitioned corner problem."""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from minrank import (
    GF,
    QQ,
    DimensionError,
    HypothesisError,
    Matrix,
    SingularMatrixError,
    TwoByTwoProblem,
    UclInstance,
    affine_coefficients,
    block_c_inverse,
    check_hypotheses,
    hstack,
    inverse,
    left_inverse,
    max_independent_cols,
    max_independent_rows,
    r_opt,
    rank,
    right_inverse,
    solve_ucl,
    vstack,
)
from minrank.ucl import require_hypotheses

from gens import rand_admissible_c_blocks, rand_admissible_ucl, rand_matrix
from spans import (
    col_space_contained,
    row_space_contained,
    trivial_col_intersection,
    trivial_row_intersection,
)

def q(rows, cols=None):
    return Matrix.from_rows(QQ, rows, cols=cols)


def scalar_instance(field, b, c, d):
    """B, C, D all 1x1 with C11 = C."""
    one = lambda v: Matrix.from_rows(field, [[v]])
    return UclInstance(
        B1=one(b),
        B2=Matrix.zeros(field, 0, 1),
        C11=one(c),
        C12=Matrix.zeros(field, 1, 0),
        C21=Matrix.zeros(field, 0, 1),
        C22=Matrix.zeros(field, 0, 0),
        D1=one(d),
        D2=Matrix.zeros(field, 1, 0),
    )


def enumerate_matrices(field, rows, cols):
    for combo in itertools.product(field.elements(), repeat=rows * cols):
        yield Matrix.from_flat(field, rows, cols, combo)


# ------------------------------------------------------------- validation


def test_instance_conformality_checks():
    with pytest.raises(DimensionError):
        UclInstance(
            B1=q([[1]]),
            B2=q([[1, 2]]),  # column count differs from B1
            C11=q([[1]]),
            C12=Matrix.zeros(QQ, 1, 0),
            C21=q([[0]]),
            C22=Matrix.zeros(QQ, 1, 0),
            D1=q([[1]]),
            D2=Matrix.zeros(QQ, 1, 0),
        )


# ------------------------------------------------------------- hypotheses


def test_hypotheses_all_hold_for_scalar_instance():
    assert check_hypotheses(scalar_instance(QQ, 1, 1, 1)) == (True,) * 6


def _instance_failing(index):
    z = Matrix.zeros
    if index == 1:
        return UclInstance(
            B1=q([[1]]), B2=z(QQ, 0, 1),
            C11=z(QQ, 1, 0), C12=z(QQ, 1, 0), C21=z(QQ, 0, 0), C22=z(QQ, 0, 0),
            D1=z(QQ, 0, 0), D2=z(QQ, 0, 0),
        )
    if index == 2:
        return UclInstance(
            B1=z(QQ, 0, 0), B2=z(QQ, 0, 0),
            C11=z(QQ, 0, 0), C12=z(QQ, 0, 1), C21=z(QQ, 0, 0), C22=z(QQ, 0, 1),
            D1=z(QQ, 1, 0), D2=q([[1]]),
        )
    if index == 3:
        return UclInstance(
            B1=q([[1], [0]]), B2=z(QQ, 0, 1),
            C11=q([[1], [0]]), C12=q([[1], [0]]), C21=z(QQ, 0, 1), C22=z(QQ, 0, 1),
            D1=z(QQ, 0, 1), D2=z(QQ, 0, 1),
        )
    if index == 4:
        return UclInstance(
            B1=z(QQ, 1, 0), B2=z(QQ, 1, 0),
            C11=z(QQ, 1, 0), C12=q([[1, 0]]), C21=z(QQ, 1, 0), C22=q([[1, 0]]),
            D1=z(QQ, 0, 0), D2=z(QQ, 0, 2),
        )
    if index == 5:
        return UclInstance(
            B1=z(QQ, 1, 0), B2=z(QQ, 0, 0),
            C11=q([[0]]), C12=z(QQ, 1, 0), C21=z(QQ, 0, 1), C22=z(QQ, 0, 0),
            D1=z(QQ, 0, 1), D2=z(QQ, 0, 0),
        )
    return UclInstance(
        B1=z(QQ, 0, 0), B2=z(QQ, 2, 0),
        C11=z(QQ, 0, 0), C12=z(QQ, 0, 2), C21=z(QQ, 2, 0), C22=q([[1, 0], [1, 0]]),
        D1=z(QQ, 0, 0), D2=z(QQ, 0, 2),
    )


@pytest.mark.parametrize("index", [1, 2, 3, 4, 5, 6])
def test_each_hypothesis_can_fail_alone(index):
    inst = _instance_failing(index)
    assert check_hypotheses(inst) == tuple(i != index for i in range(1, 7))
    with pytest.raises(HypothesisError) as exc:
        require_hypotheses(inst)
    assert exc.value.index == index


def test_solve_rejects_inadmissible_instances():
    with pytest.raises(HypothesisError):
        solve_ucl(_instance_failing(3))


def test_check_hypotheses_matches_the_public_predicates():
    # Differential check: the seven shared ranks must give the six answers of
    # the span predicates, on mostly inadmissible instances with empty blocks.
    rng = random.Random(23)
    outcomes = set()
    admissible = 0
    for trial in range(300):
        field = (GF(2), GF(3), QQ)[trial % 3]
        r1, r2, d, b, c1, c2 = (rng.randint(0, 2) for _ in range(6))

        def m(rows, cols):
            if rng.random() < 0.2:
                return Matrix.zeros(field, rows, cols)
            return rand_matrix(rng, field, rows, cols)

        inst = UclInstance(B1=m(r1, b), B2=m(r2, b), C11=m(r1, c1), C12=m(r1, c2),
                           C21=m(r2, c1), C22=m(r2, c2), D1=m(d, c1), D2=m(d, c2))
        want = (
            col_space_contained(inst.B1, hstack([inst.C11, inst.C12])),
            row_space_contained(inst.D2, vstack([inst.C12, inst.C22])),
            trivial_col_intersection(inst.C11, inst.C12),
            trivial_row_intersection(inst.C22, inst.C12),
            rank(inst.C11) == inst.C11.cols,
            rank(inst.C22) == inst.C22.rows,
        )
        assert check_hypotheses(inst) == want, (trial, inst)
        outcomes.update(enumerate(want))
        admissible += all(want)
    assert len(outcomes) == 12   # every condition both holds and fails
    assert admissible < 100


def test_admissible_generator_agrees_with_checker():
    rng = random.Random(3)
    for _ in range(20):
        inst = rand_admissible_ucl(rng, GF(3))
        assert all(check_hypotheses(inst))


# --------------------------------------------------------- block inverse


def test_block_c_inverse_identity_with_degenerate_split():
    got = block_c_inverse(
        q([[1], [0]]), q([[0], [1]]), Matrix.zeros(QQ, 0, 1), Matrix.zeros(QQ, 0, 1)
    )
    assert got == Matrix.identity(QQ, 2)


def test_block_c_inverse_upper_triangular_example():
    got = block_c_inverse(
        q([[1], [0]]), q([[2], [3]]), Matrix.zeros(QQ, 0, 1), Matrix.zeros(QQ, 0, 1)
    )
    expected = q([[1, Fraction(-2, 3)], [0, Fraction(1, 3)]])
    assert got == expected
    # independent route: plain Gauss-Jordan inversion of the assembled C
    assert got == inverse(q([[1, 2], [0, 3]]))


def test_block_c_inverse_scalar():
    got = block_c_inverse(
        q([[4]]), Matrix.zeros(QQ, 1, 0), Matrix.zeros(QQ, 0, 1), Matrix.zeros(QQ, 0, 0)
    )
    assert got == q([[Fraction(1, 4)]])


def test_block_c_inverse_rejects_singular_assembly():
    with pytest.raises(SingularMatrixError):
        block_c_inverse(q([[1], [1]]), q([[1], [1]]), Matrix.zeros(QQ, 0, 1),
                        Matrix.zeros(QQ, 0, 1))


def _assemble(C11, C12, C21, C22):
    return vstack([hstack([C11, C12]), hstack([C21, C22])])


def test_block_c_inverse_random_admissible():
    rng = random.Random(11)
    for field in (QQ, GF(5)):
        for _ in range(40):
            C11, C12, C21, C22 = rand_admissible_c_blocks(rng, field)
            C = _assemble(C11, C12, C21, C22)
            Y = block_c_inverse(C11, C12, C21, C22)
            eye = Matrix.identity(field, C.rows)
            assert C @ Y == eye
            assert Y @ C == eye
            assert Y == inverse(C)


def _alt_right_inverse(m):
    flip = list(range(m.cols))[::-1]
    return right_inverse(m.submatrix(cols=flip)).submatrix(rows=flip)


def _alt_left_inverse(m):
    flip = list(range(m.rows))[::-1]
    return left_inverse(m.submatrix(rows=flip)).submatrix(cols=flip)


def test_block_c_inverse_is_independent_of_distinguished_inverse_choice():
    # reassemble the inverse from highest-index-first one-sided inverses;
    # the result must coincide because the assembled C has a unique inverse
    rng = random.Random(13)
    for field in (QQ, GF(5)):
        for _ in range(25):
            C11, C12, C21, C22 = rand_admissible_c_blocks(rng, field)
            c1, c2, r1, r2 = C11.cols, C12.cols, C11.rows, C22.rows
            W = _alt_right_inverse(hstack([C11, C12]))
            L = _alt_left_inverse(vstack([C12, C22]))
            assert hstack([C11, C12]) @ W == Matrix.identity(field, r1)
            assert L @ vstack([C12, C22]) == Matrix.identity(field, c2)
            Y11 = W.submatrix(rows=list(range(c1)))
            Y12 = Matrix.zeros(field, c1, r2)
            Y22 = L.submatrix(cols=list(range(r1, r1 + r2)))
            zero_eye = hstack([Matrix.zeros(field, c2, c1), Matrix.identity(field, c2)])
            Y21 = (zero_eye - Y22 @ hstack([C21, C22])) @ W
            Y = vstack([hstack([Y11, Y12]), hstack([Y21, Y22])])
            assert Y == block_c_inverse(C11, C12, C21, C22)


# ---------------------------------------------------------------- solving


def test_solve_ucl_scalar_example():
    assert solve_ucl(scalar_instance(QQ, 2, 1, 3)) == q([[6]])
    assert solve_ucl(scalar_instance(QQ, 3, 2, 5)) == q([[Fraction(15, 2)]])


def test_solve_ucl_degenerate_zero_instance():
    z = Matrix.zeros
    inst = UclInstance(
        B1=q([[0]]), B2=z(QQ, 0, 1),
        C11=z(QQ, 1, 0), C12=z(QQ, 1, 0), C21=z(QQ, 0, 0), C22=z(QQ, 0, 0),
        D1=z(QQ, 1, 0), D2=z(QQ, 1, 0),
    )
    assert solve_ucl(inst) == z(QQ, 1, 1)


def _completion_problem(inst):
    return TwoByTwoProblem(
        B=vstack([inst.B1, inst.B2]),
        C=inst.assemble_c(),
        D=hstack([inst.D1, inst.D2]),
    )


def test_solve_ucl_is_the_unique_minimizer_over_gf2():
    rng = random.Random(42)
    for _ in range(30):
        inst = rand_admissible_ucl(rng, GF(2))
        X = solve_ucl(inst)
        prob = _completion_problem(inst)
        target = r_opt(prob)
        minimizers = [
            cand
            for cand in enumerate_matrices(GF(2), prob.x_rows, prob.x_cols)
            if rank(prob.completed(cand)) == target
        ]
        assert minimizers == [X]


def test_solve_ucl_saturates_bound_and_containments():
    rng = random.Random(5)
    for field in (QQ, GF(3)):
        for _ in range(25):
            inst = rand_admissible_ucl(rng, field)
            X = solve_ucl(inst)
            prob = _completion_problem(inst)
            assert rank(prob.completed(X)) == r_opt(prob)
            assert row_space_contained(hstack([X, prob.D]), hstack([prob.B, prob.C]))
            assert col_space_contained(vstack([prob.B, X]), vstack([prob.C, prob.D]))


def _with_triple(inst, B2, C21, D1):
    return dataclasses.replace(inst, B2=B2, C21=C21, D1=D1)


def _random_triple(rng, inst):
    return (
        rand_matrix(rng, inst.field, inst.B2.rows, inst.B2.cols),
        rand_matrix(rng, inst.field, inst.C21.rows, inst.C21.cols),
        rand_matrix(rng, inst.field, inst.D1.rows, inst.D1.cols),
    )


def test_solve_ucl_is_affine_in_the_unconstrained_blocks():
    rng = random.Random(17)
    for field in (QQ, GF(5)):
        for _ in range(20):
            inst = rand_admissible_ucl(rng, field)
            t0, t1, t2 = (_random_triple(rng, inst) for _ in range(3))
            x0 = solve_ucl(_with_triple(inst, *t0))
            x1 = solve_ucl(_with_triple(inst, *t1))
            x2 = solve_ucl(_with_triple(inst, *t2))
            summed = tuple(a + b - c for a, b, c in zip(t1, t2, t0))
            assert x1 + x2 - x0 == solve_ucl(_with_triple(inst, *summed))


# ----------------------------------------------------- affine coefficients


def test_affine_coefficients_scalar_instance():
    field = QQ
    inst = UclInstance(
        B1=q([[4]]), B2=Matrix.zeros(field, 0, 1),
        C11=Matrix.zeros(field, 1, 0), C12=q([[2]]),
        C21=Matrix.zeros(field, 0, 0), C22=Matrix.zeros(field, 0, 1),
        D1=Matrix.zeros(field, 1, 0), D2=q([[3]]),
    )
    co = affine_coefficients(inst)
    assert co.Kconst == q([[6]])
    # every non-constant coefficient has a zero dimension
    assert co.E.rows == 0
    assert co.F.cols == 0
    assert co.G.rows == 0
    assert co.H.cols == 0
    assert co.evaluate(inst.B2, inst.C21, inst.D1) == q([[6]])
    assert solve_ucl(inst) == q([[6]])


def test_affine_coefficients_vanish_without_bottom_data():
    rng = random.Random(23)
    for _ in range(15):
        inst = rand_admissible_ucl(rng, QQ)
        zeroed = dataclasses.replace(
            inst, D2=Matrix.zeros(QQ, inst.D2.rows, inst.D2.cols)
        )
        if not all(check_hypotheses(zeroed)):
            continue
        co = affine_coefficients(zeroed)
        assert co.H.is_zero()
        assert co.F.is_zero()


def _reduced_blocks(inst):
    keep_rows = max_independent_rows(hstack([inst.B1, inst.C11, inst.C12]))
    B1 = inst.B1.submatrix(rows=keep_rows)
    C11 = inst.C11.submatrix(rows=keep_rows)
    C12 = inst.C12.submatrix(rows=keep_rows)
    keep_cols = max_independent_cols(vstack([C12, inst.C22, inst.D2]))
    return (
        B1,
        C11,
        C12.submatrix(cols=keep_cols),
        inst.C22.submatrix(cols=keep_cols),
        inst.D2.submatrix(cols=keep_cols),
    )


def test_affine_coefficients_match_closed_forms():
    # E, H, and the rank-one middle product have explicit formulas in terms
    # of the one-sided inverses of the reduced core; the probing extraction
    # must reproduce them exactly.
    rng = random.Random(29)
    for field in (QQ, GF(5)):
        for _ in range(25):
            inst = rand_admissible_ucl(rng, field)
            co = affine_coefficients(inst)
            B1, C11, C12, C22, D2 = _reduced_blocks(inst)
            c1, r1p = C11.cols, C11.rows
            W = right_inverse(hstack([C11, C12]))
            W1 = W.submatrix(rows=list(range(c1)))
            W2 = W.submatrix(rows=list(range(c1, W.rows)))
            Y22 = left_inverse(vstack([C12, C22])).submatrix(
                cols=list(range(r1p, r1p + C22.rows))
            )
            if inst.D1.rows > 0:
                assert co.E == W1 @ B1
            if inst.B2.cols > 0:
                assert co.H == D2 @ Y22
            eye = Matrix.identity(field, C12.cols)
            assert co.Kconst == D2 @ (eye - Y22 @ C22) @ W2 @ B1
            for _ in range(3):
                C21 = rand_matrix(rng, field, inst.C21.rows, inst.C21.cols)
                assert co.F @ C21 @ co.G == (D2 @ Y22 @ C21 @ W1 @ B1).scale(-1)


def test_affine_coefficients_reconstruct_solve():
    rng = random.Random(31)
    for field in (GF(3), QQ):
        for _ in range(15):
            inst = rand_admissible_ucl(rng, field)
            co = affine_coefficients(inst)
            for _ in range(10):
                B2, C21, D1 = _random_triple(rng, inst)
                probe = _with_triple(inst, B2, C21, D1)
                assert co.evaluate(B2, C21, D1) == solve_ucl(probe)
