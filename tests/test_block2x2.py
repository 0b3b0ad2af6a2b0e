"""Block 2x2 minimal rank completion: bound, solution set, completeness."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random

import pytest

from minrank import (
    GF,
    QQ,
    DimensionError,
    FreeChoice,
    Matrix,
    TwoByTwoProblem,
    analyze,
    complete,
    hstack,
    is_minimal,
    r_opt,
    rank,
    vstack,
)
from minrank.block2x2 import (
    complete_rows,
    enumerate_free_choices,
    enumerate_solutions,
    free_shapes,
)
from minrank.matrix import without

from gens import rand_free_choice_2x2, rand_matrix, rand_two_by_two


def q(rows, cols=None):
    return Matrix.from_rows(QQ, rows, cols=cols)


def hook_problem(field=QQ):
    one = Matrix.from_rows
    return TwoByTwoProblem(
        B=one(field, [[1], [0]]), C=one(field, [[0], [1]]), D=one(field, [[1]])
    )


def scalar_problem(field, b, c, d):
    one = lambda v: Matrix.from_rows(field, [[v]])
    return TwoByTwoProblem(B=one(b), C=one(c), D=one(d))


def enumerate_matrices(field, rows, cols):
    for combo in itertools.product(field.elements(), repeat=rows * cols):
        yield Matrix.from_flat(field, rows, cols, combo)


def exhaustive_minimizers(prob, field):
    target = r_opt(prob)
    return {
        cand
        for cand in enumerate_matrices(field, prob.x_rows, prob.x_cols)
        if rank(prob.completed(cand)) == target
    }


# ------------------------------------------------------------- lower bound


def test_r_opt_examples():
    assert r_opt(hook_problem()) == 2
    assert r_opt(scalar_problem(QQ, 0, 0, 0)) == 0
    assert r_opt(scalar_problem(QQ, 1, 1, 1)) == 1


def test_r_opt_is_a_lower_bound():
    rng = random.Random(41)
    for _ in range(40):
        prob = rand_two_by_two(rng, GF(2))
        target = r_opt(prob)
        assert all(
            rank(prob.completed(cand)) >= target
            for cand in enumerate_matrices(GF(2), prob.x_rows, prob.x_cols)
        )


# ----------------------------------------------------------------- analyze


def test_analyze_examples():
    s = analyze(hook_problem())
    assert s.dimension == 1
    # brute force over GF(2): both candidate corners attain rank 2
    gf = hook_problem(GF(2))
    assert exhaustive_minimizers(gf, GF(2)) == {
        Matrix.from_rows(GF(2), [[0]]),
        Matrix.from_rows(GF(2), [[1]]),
    }

    s1 = analyze(scalar_problem(QQ, 1, 1, 1))
    assert s1.dimension == 0
    assert s1.base_solution == q([[1]])

    s0 = analyze(scalar_problem(QQ, 0, 0, 0))
    assert s0.dimension == 0
    assert s0.base_solution == q([[0]])


def test_analyze_partitions():
    rng = random.Random(43)
    for field in (QQ, GF(3)):
        for _ in range(30):
            prob = rand_two_by_two(rng, field)
            s = analyze(prob)
            # the three column groups partition the corner columns
            cols = sorted(
                list(s.dependent_cols) + list(s.aux_basis_cols) + list(s.free_cols)
            )
            assert cols == list(range(prob.x_cols))
            rows = sorted(
                list(s.free_rows) + list(s.aux_basis_rows) + list(s.dependent_rows)
            )
            assert rows == list(range(prob.x_rows))
            # group sizes are the rank increments
            b_c = rank(hstack([prob.B, prob.C]))
            c_d = rank(vstack([prob.C, prob.D]))
            c = rank(prob.C)
            assert len(s.free_cols) == b_c - c
            assert len(s.free_rows) == c_d - c
            assert len(s.free_cols) + len(s.aux_basis_cols) == rank(prob.B)
            assert len(s.free_rows) + len(s.aux_basis_rows) == rank(prob.D)
            assert s.r_opt == b_c + c_d - c
            # free-entry count
            assert s.dimension == (
                len(s.free_rows) * prob.x_cols
                + prob.x_rows * len(s.free_cols)
                - len(s.free_rows) * len(s.free_cols)
            )
            assert s == analyze(prob)  # deterministic
            assert s.base_solution == complete(prob, s, FreeChoice())


def test_dimension_with_full_rank_sides_counts_upper_blocks():
    # with B of full column rank and D of full row rank the free region is
    # exactly the three strictly-upper blocks of the partitioned corner
    rng = random.Random(47)
    seen = 0
    for _ in range(200):
        prob = rand_two_by_two(rng, GF(3), max_side=3)
        if rank(prob.B) < prob.B.cols or rank(prob.D) < prob.D.rows:
            continue
        seen += 1
        s = analyze(prob)
        assert len(s.dependent_cols) == 0
        assert len(s.dependent_rows) == 0
        free, aux = len(s.free_rows), len(s.aux_basis_rows)
        j_free, j_aux = len(s.free_cols), len(s.aux_basis_cols)
        assert s.dimension == free * (j_aux + j_free) + aux * j_free
    assert seen > 20


# ---------------------------------------------------------------- complete


def test_complete_examples():
    prob = scalar_problem(QQ, 1, 1, 1)
    s = analyze(prob)
    assert complete(prob, s, FreeChoice()) == q([[1]])

    hook = hook_problem()
    sh = analyze(hook)
    shapes = free_shapes(sh)
    assert sum(r * c for r, c in shapes.values()) == 1
    f = FreeChoice(
        {name: Matrix.from_flat(QQ, r, c, [7] * (r * c)) for name, (r, c) in shapes.items()}
    )
    assert complete(hook, sh, f) == q([[7]])
    for t in (0, 7):
        x = q([[t]])
        assert rank(hook.completed(x)) == 2

    zero = scalar_problem(QQ, 0, 0, 0)
    sz = analyze(zero)
    assert complete(zero, sz, FreeChoice()) == q([[0]])


def test_complete_places_free_blocks_verbatim():
    rng = random.Random(53)
    for _ in range(30):
        prob = rand_two_by_two(rng, GF(5))
        s = analyze(prob)
        f = rand_free_choice_2x2(rng, GF(5), s)
        x = complete(prob, s, f)
        assert x.submatrix(rows=s.free_rows, cols=s.dependent_cols) == f["free_rows_dependent_cols"]
        assert x.submatrix(rows=s.free_rows, cols=s.aux_basis_cols) == f["free_rows_aux_cols"]
        assert x.submatrix(rows=s.free_rows, cols=s.free_cols) == f["free_rows_free_cols"]
        assert x.submatrix(rows=s.aux_basis_rows, cols=s.free_cols) == f["aux_rows_free_cols"]
        assert x.submatrix(rows=s.dependent_rows, cols=s.free_cols) == f["dependent_rows_free_cols"]


def test_complete_rejects_misshapen_free_choice():
    prob = hook_problem()
    s = analyze(prob)
    with pytest.raises(DimensionError, match="must be 1x1, got 1x2"):
        complete(prob, s, FreeChoice({"aux_rows_free_cols": q([[1, 2]])}))
    with pytest.raises(DimensionError, match="unknown free block 'nonsense'"):
        complete(prob, s, FreeChoice({"nonsense": q([[1]])}))


def test_complete_saturates_the_bound():
    rng = random.Random(59)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(30):
            prob = rand_two_by_two(rng, field)
            s = analyze(prob)
            for _ in range(3):
                f = rand_free_choice_2x2(rng, field, s)
                assert rank(prob.completed(complete(prob, s, f))) == s.r_opt


def test_complete_is_affine_in_the_free_choice():
    rng = random.Random(61)
    for field in (QQ, GF(3)):
        for _ in range(25):
            prob = rand_two_by_two(rng, field)
            s = analyze(prob)
            z = complete(prob, s, FreeChoice())
            f1 = rand_free_choice_2x2(rng, field, s)
            f2 = rand_free_choice_2x2(rng, field, s)
            assert complete(prob, s, f1) + complete(prob, s, f2) - z == complete(
                prob, s, f1 + f2
            )
            # a missing block is zero, also in a sum
            part = FreeChoice(list(f2.items())[::2])
            assert complete(prob, s, part) + complete(prob, s, f1) - z == complete(
                prob, s, part + f1
            )


def test_complete_fills_its_determined_block_in_one_corner_step():
    # The whole non-free block is one unique corner completion against the
    # free rows and columns: the same step each overlap fill step takes.
    rng = random.Random(67)
    for field in (GF(2), GF(3), GF(101), QQ):
        for _ in range(75):
            prob = rand_two_by_two(rng, field)
            s = analyze(prob)
            X = complete(prob, s, rand_free_choice_2x2(rng, field, s))
            rows = without(range(prob.x_rows), s.free_rows)
            cols = without(range(prob.x_cols), s.free_cols)
            assert complete_rows(prob, X, s.free_rows, s.free_cols, rows, cols) == (
                X.submatrix(rows=rows, cols=cols))


# -------------------------------------------------------------- is_minimal


def test_is_minimal_examples():
    prob = scalar_problem(QQ, 1, 1, 1)
    assert is_minimal(prob, q([[1]]))
    assert not is_minimal(prob, q([[0]]))


def test_is_minimal_matches_exhaustive_minimum():
    rng = random.Random(67)
    for _ in range(25):
        prob = rand_two_by_two(rng, GF(2))
        ranks = {
            cand: rank(prob.completed(cand))
            for cand in enumerate_matrices(GF(2), prob.x_rows, prob.x_cols)
        }
        best = min(ranks.values())
        assert best == r_opt(prob)
        for cand, value in ranks.items():
            assert is_minimal(prob, cand) == (value == best)


# ----------------------------------------------------------- completeness


def _assert_complete_solution_set(prob, field):
    s = analyze(prob)
    produced = set()
    for f in enumerate_free_choices(field, free_shapes(s)):
        x = complete(prob, s, f)
        assert rank(prob.completed(x)) == s.r_opt
        produced.add(x)
    assert len(produced) == field.p ** s.dimension
    assert produced == exhaustive_minimizers(prob, field)


def test_construction_produces_exactly_the_minimizers():
    rng = random.Random(71)
    for field, cap in ((GF(2), 9), (GF(3), 6)):
        done = 0
        while done < 40:
            prob = rand_two_by_two(rng, field)
            if prob.x_rows * prob.x_cols > cap or analyze(prob).dimension > cap:
                continue
            _assert_complete_solution_set(prob, field)
            done += 1


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5)], ids=str)
def test_enumerated_solutions_are_one_fill_per_choice(field):
    # Members built by adding directions equal one fill per free choice, in
    # enumeration order, including dimension 0 and zero-size sides.
    rng = random.Random(79)
    dimensions, zero_sized = set(), False
    for _ in range(40):
        prob = rand_two_by_two(rng, field)
        s = analyze(prob)
        if field.p ** s.dimension > 200:
            continue
        shapes = free_shapes(s)
        fill = functools.partial(complete, prob, s)
        assert (list(enumerate_solutions(field, shapes, fill, s.base_solution))
                == [fill(g) for g in enumerate_free_choices(field, shapes)])
        dimensions.add(s.dimension)
        zero_sized |= 0 in (prob.B.rows, prob.B.cols, prob.C.cols, prob.D.rows)
    assert 0 in dimensions and max(dimensions) >= 2 and zero_sized


def test_rank_deficient_sides_enlarge_the_free_region():
    # with a dependent column in B and no usable row data in D, every corner
    # entry in the spanning-column hook is free: dimension 2, not 1
    for field in (GF(2), GF(3)):
        prob = TwoByTwoProblem(
            B=Matrix.from_rows(field, [[1, 2 % field.p]]),
            C=Matrix.from_rows(field, [[0]]),
            D=Matrix.from_rows(field, [[1]]),
        )
        s = analyze(prob)
        assert s.dimension == 2
        _assert_complete_solution_set(prob, field)


def test_zero_width_flank_shapes():
    # C with no columns (pure column completion) and no rows (pure row
    # completion) run through the same code path
    field = GF(2)
    col_only = TwoByTwoProblem(
        B=Matrix.from_rows(field, [[1], [1]]),
        C=Matrix.zeros(field, 2, 0),
        D=Matrix.zeros(field, 2, 0),
    )
    _assert_complete_solution_set(col_only, field)
    row_only = TwoByTwoProblem(
        B=Matrix.zeros(field, 0, 2),
        C=Matrix.zeros(field, 0, 2),
        D=Matrix.from_rows(field, [[1, 0], [0, 1]]),
    )
    _assert_complete_solution_set(row_only, field)


def test_degenerate_corner_shapes():
    field = GF(3)
    rng = random.Random(73)
    for m, b, c, d in itertools.product(range(3), repeat=4):
        prob = TwoByTwoProblem(
            B=rand_matrix(rng, field, m, b),
            C=rand_matrix(rng, field, m, c),
            D=rand_matrix(rng, field, d, c),
        )
        if b * d > 4:
            continue
        _assert_complete_solution_set(prob, field)
