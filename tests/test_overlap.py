"""Simultaneous minimal rank completion of the overlapping block family."""

from __future__ import annotations

import functools
import random

import pytest

from minrank import (
    GF,
    QQ,
    BlockProblem,
    DimensionError,
    FieldMismatchError,
    FreeChoice,
    IndexChains,
    Matrix,
    TwoByTwoProblem,
    analyze,
    analyze_overlap,
    build_chains,
    complete_overlap,
    complete_overlap_columnwise,
    dimension_and_ranks,
    hankel_ranks,
    hankel_subproblem,
    hstack,
    r_opt,
    rank,
    transpose_problem,
    uniqueness_shortcut,
    vstack,
)
from minrank.block2x2 import enumerate_free_choices, enumerate_solutions
from minrank.overlap import free_shapes, transpose_chains, transpose_free_choice

from gens import rand_block_problem, rand_free_choice_overlap, rand_matrix
from spans import col_space_contained, row_space_contained


def unit_problem(field=GF(2)):
    """n = 2, both known diagonal blocks the 1x1 identity."""
    one = Matrix.from_rows(field, [[1]])
    return BlockProblem(
        field=field, row_sizes=(1, 1), col_sizes=(1, 1), blocks={(1, 1): one, (2, 2): one}
    )


def zero_problem(field, n, size=1):
    blocks = {
        (i, j): Matrix.zeros(field, size, size)
        for i in range(1, n + 1)
        for j in range(1, i + 1)
        if (i, j) != (n, 1)
    }
    sizes = (size,) * n
    return BlockProblem(field=field, row_sizes=sizes, col_sizes=sizes, blocks=blocks)


# --------------------------------------------------------------- validation


def test_problem_validation():
    field = GF(2)
    one = Matrix.from_rows(field, [[1]])
    with pytest.raises(DimensionError):
        BlockProblem(field=field, row_sizes=(1,), col_sizes=(1,), blocks={(1, 1): one})
    with pytest.raises(DimensionError, match='"2,2"'):
        BlockProblem(field=field, row_sizes=(1, 1), col_sizes=(1, 1), blocks={(1, 1): one})
    with pytest.raises(DimensionError, match='"2,1"'):
        BlockProblem(
            field=field,
            row_sizes=(1, 1),
            col_sizes=(1, 1),
            blocks={(1, 1): one, (2, 2): one, (2, 1): one},
        )
    with pytest.raises(DimensionError, match='"1,1"'):
        BlockProblem(
            field=field,
            row_sizes=(2, 1),
            col_sizes=(1, 1),
            blocks={(1, 1): one, (2, 2): one},
        )
    with pytest.raises(FieldMismatchError):
        BlockProblem(
            field=field,
            row_sizes=(1, 1),
            col_sizes=(1, 1),
            blocks={(1, 1): Matrix.from_rows(GF(3), [[1]]), (2, 2): one},
        )
    # Messages name at most five keys of each kind.
    empty = Matrix.zeros(field, 0, 0)
    blocks = {(2, 2): empty, (4, 1): empty, (0, 0): empty, (1, 2): empty,
              (9, 9): empty, (3, 4): empty, (5, 5): empty, (4, 6): empty}
    with pytest.raises(DimensionError) as info:
        BlockProblem(field=field, row_sizes=(0,) * 4, col_sizes=(0,) * 4, blocks=blocks)
    assert str(info.value) == (
        'missing blocks "1,1", "2,1", "3,1", "3,2", "3,3" and 3 more; '
        'unexpected blocks "0,0", "1,2", "3,4", "4,1", "4,6" and 2 more')


def test_known_stack_handles_empty_ranges():
    p = unit_problem()
    assert p.known_stack(2, 1, 1, 1) == Matrix.zeros(GF(2), 0, 1)
    assert p.known_stack(1, 1, 2, 1) == Matrix.zeros(GF(2), 1, 0)
    assert p.known_stack(1, 1, 1, 1) == p.block(1, 1)


def test_hankel_subproblem_shapes():
    rng = random.Random(3)
    p = rand_block_problem(rng, GF(3), n=3, max_size=2)
    for k in range(1, 4):
        sub = hankel_subproblem(p, k)
        assert sub.x_rows == p.x_rows
        assert sub.x_cols == p.x_cols
        assert sub.B.cols == p.col_size(1)
        assert sub.C.cols == sum(p.col_size(j) for j in range(2, k + 1))
        assert sub.B.rows == sum(p.row_size(i) for i in range(k, 3))
    # Each block is cut once, and the cut is the three known-block stacks.
    for trial in range(12):
        q = rand_block_problem(rng, QQ if trial % 3 == 0 else GF(3), n=2 + trial % 3)
        n = q.n
        assert q.hankel is q.hankel and len(q.hankel) == n
        for k in range(1, n + 1):
            assert hankel_subproblem(q, k) is q.hankel[k - 1]
            assert hankel_subproblem(q, k) == TwoByTwoProblem(
                B=q.known_stack(k, n - 1, 1, 1),
                C=q.known_stack(k, n - 1, 2, k),
                D=q.known_stack(n, n, 2, k),
            )
    with pytest.raises(ValueError):
        hankel_subproblem(p, 0)
    with pytest.raises(ValueError):
        hankel_subproblem(p, 4)


def test_hankel_ranks_examples():
    field = GF(2)
    z3 = zero_problem(field, 3)
    zero_x = Matrix.zeros(field, 1, 1)
    one_x = Matrix.from_rows(field, [[1]])
    assert hankel_ranks(z3, zero_x) == (0, 0, 0)
    assert hankel_ranks(z3, one_x) == (1, 1, 1)
    assert hankel_ranks(unit_problem(), zero_x) == (1, 1)
    with pytest.raises(DimensionError):
        hankel_ranks(z3, Matrix.zeros(field, 2, 1))


# ------------------------------------------------------------------- chains


def test_chains_unit_example():
    chains = build_chains(unit_problem())
    assert [tuple(s) for s in chains.col_chain] == [(0,), (0,), ()]
    assert [tuple(s) for s in chains.row_chain] == [(), (0,), (0,)]
    assert tuple(chains.col_group(1)) == ()
    assert tuple(chains.col_group(2)) == (0,)
    assert tuple(chains.row_group(1)) == (0,)
    assert tuple(chains.row_group(2)) == ()


def test_chains_zero_problem():
    for n in (2, 3, 4):
        chains = build_chains(zero_problem(GF(3), n))
        for i in range(1, n):
            assert len(chains.col_chain[i]) == 0
            assert len(chains.row_chain[i]) == 0
        assert tuple(chains.row_group(n)) == (0,)
        assert tuple(chains.col_group(1)) == (0,)


def test_chains_reject_malformed_selections():
    cols, rows = ((0, 1), (1,), ()), ((), (0,), (0, 1))
    assert IndexChains(cols, rows).n == 2
    bad = [
        (((1,), (1,), ()), rows, "column chain must start full"),
        (((0, 1), (1,), (1,)), rows, "column chain must start full and end empty"),
        (cols, ((0,), (0,), (0, 1)), "row chain must start empty"),
        (cols, ((), (), (1,)), "row chain must start empty and end full"),
        (((0, 1), (1,), (0,), ()), ((), (0,), (0,), (0, 1)), "column chain is not nested"),
        (((0, 1), (1,), (1,), ()), ((), (1,), (0,), (0, 1)), "row chain is not nested"),
    ]
    for col_chain, row_chain, message in bad:
        with pytest.raises(ValueError, match=message):
            IndexChains(col_chain, row_chain)


def _col_condition_rank(p, i, selected):
    # stacked rows i..n-1: first column block restricted to the selected
    # columns next to the fully known column blocks 2..i
    parts = []
    restricted = p.known_stack(i, p.n - 1, 1, 1).submatrix(cols=selected)
    rest = p.known_stack(i, p.n - 1, 2, i)
    return rank(hstack([restricted, rest]))


def _row_condition_rank(p, i, selected):
    middle = p.known_stack(i + 1, p.n - 1, 2, i + 1)
    bottom = p.known_stack(p.n, p.n, 2, i + 1).submatrix(rows=selected)
    return rank(vstack([middle, bottom]))


def test_chains_satisfy_span_conditions_minimally():
    rng = random.Random(5)
    for trial in range(25):
        p = rand_block_problem(rng, GF(2) if trial % 2 else GF(3), max_size=2)
        n = p.n
        chains = build_chains(p)
        for i in range(1, n):
            sel = chains.col_chain[i]
            full = _col_condition_rank(p, i, None)
            assert _col_condition_rank(p, i, sel) == full
            # minimal superset of the next chain element
            newer = set(chains.col_chain[i]) - set(chains.col_chain[i + 1])
            for drop in newer:
                smaller = [c for c in sel if c != drop]
                assert _col_condition_rank(p, i, smaller) < full
        for i in range(1, n):
            sel = chains.row_chain[i]
            full = _row_condition_rank(p, i, None)
            assert _row_condition_rank(p, i, sel) == full
            newer = set(chains.row_chain[i]) - set(chains.row_chain[i - 1])
            for drop in newer:
                smaller = [r for r in sel if r != drop]
                assert _row_condition_rank(p, i, smaller) < full


# ------------------------------------------------------ dimension and ranks


def test_solution_set_unit_example():
    p = unit_problem()
    sol = analyze_overlap(p)
    assert sol.alphas == (0, 1, 1)
    assert sol.betas == (1, 0)
    assert sol.dimension == 1
    assert sol.block_opt_ranks == (1, 1)
    assert sol.base_solution == Matrix.zeros(GF(2), 1, 1)


def test_solution_set_zero_problem():
    p = zero_problem(GF(5), 3)
    sol = analyze_overlap(p)
    assert sol.alphas == (0, 0, 0, 1)
    assert sol.betas == (0, 0, 0)
    assert sol.dimension == 0
    assert sol.block_opt_ranks == (0, 0, 0)
    assert sol.base_solution == Matrix.zeros(GF(5), 1, 1)


def test_dimension_matches_group_products_and_boundaries(monkeypatch):
    import minrank.overlap as overlap_module

    calls = []

    def counted_rank(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(overlap_module, "rank", counted_rank)
    rng = random.Random(7)
    # (field, smallest block side, largest block side); zero sides give
    # empty blocks and possibly an empty X.
    cases = [(QQ if trial % 3 == 0 else GF(2), 1, 2) for trial in range(25)]
    cases += [(GF(3), 1, 2)] * 15
    cases += [((GF(2), GF(3), QQ)[trial % 3], 0, 3) for trial in range(30)]
    for field, min_size, max_size in cases:
        p = rand_block_problem(rng, field, max_size=max_size, min_size=min_size)
        chains = build_chains(p)
        calls.clear()
        sol = dimension_and_ranks(p, chains)
        n = p.n
        # The chain sizes hold the alphas and betas: one rank per block.
        assert len(calls) <= n
        assert sol.base_solution is None
        assert len(sol.alphas) == n + 1
        assert len(sol.betas) == n
        assert sol.alphas[0] == 0
        assert sol.alphas[n] == p.x_rows
        assert sol.betas[n - 1] == 0
        cross = sum(
            len(chains.row_group(i)) * len(chains.col_group(j))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        )
        assert sol.dimension == cross
        for i in range(1, n + 1):
            assert len(chains.row_group(i)) == sol.alphas[i] - sol.alphas[i - 1]
        for j in range(1, n + 1):
            before = sol.betas[j - 2] if j >= 2 else p.x_cols
            assert len(chains.col_group(j)) == before - sol.betas[j - 1]
        for k in range(1, n + 1):
            assert sol.block_opt_ranks[k - 1] == r_opt(hankel_subproblem(p, k))
        # Reference: per-stack rank differences, independent of the chains.
        stack = p.known_stack
        alphas = [0] * (n + 1)
        alphas[n] = p.x_rows
        for i in range(1, n):
            known = stack(i + 1, n - 1, 2, i + 1)
            alphas[i] = rank(vstack([known, stack(n, n, 2, i + 1)])) - rank(known)
        betas = [rank(stack(1, n - 1, 1, 1))]
        for j in range(2, n + 1):
            betas.append(rank(stack(j, n - 1, 1, j)) - rank(stack(j, n - 1, 2, j)))
        assert sol.alphas == tuple(alphas)
        assert sol.betas == tuple(betas)


# --------------------------------------------------------------- completion


def test_complete_overlap_unit_example():
    p = unit_problem()
    chains = build_chains(p)
    for t in (0, 1):
        f = FreeChoice({(1, 2): Matrix.from_rows(GF(2), [[t]])})
        x = complete_overlap(p, chains, f)
        assert x == Matrix.from_rows(GF(2), [[t]])
        assert hankel_ranks(p, x) == (1, 1)


def test_complete_overlap_zero_problem():
    p = zero_problem(GF(2), 4)
    chains = build_chains(p)
    assert complete_overlap(p, chains) == Matrix.zeros(GF(2), 1, 1)


def test_complete_overlap_attains_every_block_optimum():
    rng = random.Random(11)
    for trial in range(25):
        field = (QQ, GF(2), GF(3))[trial % 3]
        p = rand_block_problem(rng, field, max_size=2)
        sol = analyze_overlap(p)
        chains = sol.chains
        assert hankel_ranks(p, sol.base_solution) == sol.block_opt_ranks
        for _ in range(3):
            f = rand_free_choice_overlap(rng, field, chains)
            assert hankel_ranks(p, complete_overlap(p, chains, f)) == sol.block_opt_ranks


def test_complete_overlap_is_affine_in_the_free_choice():
    rng = random.Random(13)
    for trial in range(20):
        field = QQ if trial % 2 else GF(5)
        p = rand_block_problem(rng, field, max_size=2)
        chains = build_chains(p)
        z = complete_overlap(p, chains)
        f1 = rand_free_choice_overlap(rng, field, chains)
        f2 = rand_free_choice_overlap(rng, field, chains)
        lhs = complete_overlap(p, chains, f1) + complete_overlap(p, chains, f2) - z
        assert lhs == complete_overlap(p, chains, f1 + f2)


def test_free_choice_blocks_pass_through():
    rng = random.Random(17)
    for _ in range(15):
        p = rand_block_problem(rng, GF(5), max_size=2)
        chains = build_chains(p)
        f = rand_free_choice_overlap(rng, GF(5), chains)
        x = complete_overlap(p, chains, f)
        for (i, j), block in f.items():
            assert x.submatrix(rows=chains.row_group(i), cols=chains.col_group(j)) == block


def test_row_saturation_along_row_chain():
    # Rows of the corner outside K_i are redundant: together with the trailing
    # known columns 2..i+1 they lie in the row space spanned by the K_i rows
    # plus the known block rows i+1..n-1.  This is the redundancy that lets
    # block i shrink to its optimal rank.
    rng = random.Random(19)
    for _ in range(15):
        p = rand_block_problem(rng, GF(2), max_size=2)
        chains = build_chains(p)
        f = rand_free_choice_overlap(rng, GF(2), chains)
        x = complete_overlap(p, chains, f)
        for i in range(1, p.n):
            inside = chains.row_chain[i]
            outside = sorted(set(range(p.x_rows)) - set(inside))
            strip = p.known_stack(p.n, p.n, 2, i + 1)
            extra = hstack([x.submatrix(rows=outside), strip.submatrix(rows=outside)])
            kept = hstack([x.submatrix(rows=inside), strip.submatrix(rows=inside)])
            middle = p.known_stack(i + 1, p.n - 1, 1, i + 1)
            span = vstack([middle, kept]) if middle.rows else kept
            assert row_space_contained(extra, span)


def test_column_saturation_along_column_chain():
    # Dual redundancy: corner columns outside L_i, stacked over the known
    # column-one blocks of rows i..n-1, lie in the column space of the kept
    # L_i columns together with known columns 2..i.
    rng = random.Random(23)
    for _ in range(15):
        p = rand_block_problem(rng, GF(3), max_size=2)
        chains = build_chains(p)
        f = rand_free_choice_overlap(rng, GF(3), chains)
        x = complete_overlap(p, chains, f)
        for i in range(1, p.n):
            inside = chains.col_chain[i]
            outside = sorted(set(range(p.x_cols)) - set(inside))
            tall = vstack([p.block(r, 1) for r in range(i, p.n)] + [x])
            extra = tall.submatrix(cols=outside)
            kept = tall.submatrix(cols=inside)
            if i >= 2:
                middle = p.known_stack(i, p.n - 1, 2, i)
                bottom = p.known_stack(p.n, p.n, 2, i)
                kept = hstack([kept, vstack([middle, bottom])])
            assert col_space_contained(extra, kept)


def test_enumeration_counts_and_distinctness():
    rng = random.Random(23)
    for _ in range(10):
        p = rand_block_problem(rng, GF(2), n=3, max_size=2)
        sol = analyze_overlap(p)
        if sol.dimension > 6:
            continue
        xs = {complete_overlap(p, sol.chains, f)
              for f in enumerate_free_choices(GF(2), free_shapes(sol.chains))}
        assert len(xs) == 2 ** sol.dimension


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5)], ids=str)
def test_enumerated_solutions_are_one_fill_per_choice(field):
    # Members built by adding directions equal one fill per free choice, in
    # enumeration order, including dimension 0 and zero-size blocks.
    rng = random.Random(41)
    dimensions, zero_sized = set(), False
    for _ in range(40):
        p = rand_block_problem(rng, field, n=rng.choice([2, 3]), min_size=0)
        sol = analyze_overlap(p)
        if field.p ** sol.dimension > 200:
            continue
        shapes = free_shapes(sol.chains)
        fill = functools.partial(complete_overlap, p, sol.chains)
        assert (list(enumerate_solutions(field, shapes, fill, sol.base_solution))
                == [fill(g) for g in enumerate_free_choices(field, shapes)])
        dimensions.add(sol.dimension)
        zero_sized |= 0 in p.row_sizes + p.col_sizes
    assert 0 in dimensions and max(dimensions) >= 2 and zero_sized


# ------------------------------------------------------------ fill ordering


def test_transpose_round_trips():
    rng = random.Random(29)
    for _ in range(10):
        p = rand_block_problem(rng, GF(3), max_size=2)
        t = transpose_problem(p)
        assert t.row_sizes == tuple(reversed(p.col_sizes))
        assert t.col_sizes == tuple(reversed(p.row_sizes))
        assert transpose_problem(t) == p
        chains = build_chains(p)
        assert build_chains(t) == transpose_chains(chains)
        f = rand_free_choice_overlap(rng, GF(3), chains)
        assert transpose_free_choice(transpose_free_choice(f, p.n), p.n) == f


def test_columnwise_fill_matches_rowwise_fill():
    rng = random.Random(31)
    for trial in range(20):
        field = (GF(2), GF(3), QQ)[trial % 3]
        p = rand_block_problem(rng, field, max_size=2)
        chains = build_chains(p)
        assert complete_overlap_columnwise(p, chains) == complete_overlap(p, chains)
        for _ in range(2):
            f = rand_free_choice_overlap(rng, field, chains)
            assert complete_overlap_columnwise(p, chains, f) == complete_overlap(
                p, chains, f
            )


# ----------------------------------------------------------------- shortcut


def test_uniqueness_shortcut_examples():
    assert uniqueness_shortcut(unit_problem(), 1) is None
    assert uniqueness_shortcut(unit_problem(), 2) is None
    z = zero_problem(GF(2), 3)
    assert uniqueness_shortcut(z, 1) == Matrix.zeros(GF(2), 1, 1)


def test_uniqueness_shortcut_solves_the_whole_problem():
    rng = random.Random(37)
    fired = 0
    for _ in range(60):
        p = rand_block_problem(rng, GF(2), max_size=2)
        sol = None
        for k in range(1, p.n + 1):
            shortcut = uniqueness_shortcut(p, k)
            expect_unique = analyze(hankel_subproblem(p, k)).dimension == 0
            assert (shortcut is not None) == expect_unique
            if shortcut is None:
                continue
            fired += 1
            if sol is None:
                sol = analyze_overlap(p)
            assert sol.dimension == 0
            assert shortcut == sol.base_solution
            assert hankel_ranks(p, shortcut) == sol.block_opt_ranks
    assert fired > 0
