"""Brute-force oracle: examples, guards, and independence from the construction."""

from __future__ import annotations

import dataclasses
import random

import pytest

from minrank import (
    GF,
    QQ,
    BlockProblem,
    BudgetExceededError,
    Matrix,
    UnsupportedFieldError,
    analyze,
    certify,
    dimension_and_ranks,
    exhaust,
    hankel_subproblem,
    hstack,
    rank,
    vstack,
)
from minrank.matrix import enumerate_matrices
from minrank.overlap import build_chains

from gens import rand_block_problem


def unit_problem(field=GF(2)):
    one = Matrix.from_rows(field, [[field.one]])
    return BlockProblem(field, (1, 1), (1, 1), {(1, 1): one, (2, 2): one})


def zero_problem(field, n=2):
    sizes = tuple([1] * n)
    blocks = {
        (i, j): Matrix.zeros(field, 1, 1)
        for i in range(1, n + 1)
        for j in range(1, i + 1)
        if (i, j) != (n, 1)
    }
    return BlockProblem(field, sizes, sizes, blocks)


def test_exhaust_unit_example():
    report = exhaust(unit_problem())
    assert report.min_rank_vector == (1, 1)
    assert report.per_block_minimizer_counts == (2, 2)
    values = sorted(x[0, 0] for x in report.simultaneous_minimizers)
    assert values == [0, 1]


def test_exhaust_zero_problem_unique_minimizer():
    report = exhaust(zero_problem(GF(3), n=3))
    assert report.min_rank_vector == (0, 0, 0)
    assert report.per_block_minimizer_counts == (1, 1, 1)
    (only,) = report.simultaneous_minimizers
    assert only.is_zero()


def test_exhaust_rejects_rational_field():
    with pytest.raises(UnsupportedFieldError):
        exhaust(zero_problem(QQ))


def test_exhaust_budget_guard():
    field = GF(3)
    blocks = {
        (1, 1): Matrix.zeros(field, 2, 2),
        (2, 2): Matrix.zeros(field, 2, 2),
    }
    p = BlockProblem(field, (2, 2), (2, 2), blocks)
    with pytest.raises(BudgetExceededError) as info:
        exhaust(p, budget=80)
    assert info.value.required == 3**4
    exhaust(p, budget=81)


def test_certify_unit_example():
    result = certify(unit_problem())
    assert result.ok
    assert result.diagnostic == ""
    assert result.dimension == 1
    assert result.minimizer_count == 2


def test_certify_random_sweep():
    rng = random.Random(101)
    for trial in range(30):
        field = GF(2) if trial % 2 == 0 else GF(3)
        p = rand_block_problem(rng, field, max_size=2, max_x_entries=6)
        result = certify(p)
        assert result.ok, result.diagnostic


def test_min_rank_vector_matches_construction_ranks():
    rng = random.Random(103)
    for _ in range(20):
        p = rand_block_problem(rng, GF(2), max_size=2)
        report = exhaust(p)
        sol = dimension_and_ranks(p, build_chains(p))
        assert report.min_rank_vector == sol.block_opt_ranks
        assert len(report.simultaneous_minimizers) == 2**sol.dimension


def _two_sweep_exhaust(p):
    # Reference: the plain two-sweep brute force, one sweep for the minimum
    # and one for the tallies, stacking every block afresh per candidate.
    def rank_vector(X):
        return tuple(
            rank(vstack([hstack([p.block(i, j) for j in range(1, k + 1)])
                         for i in range(k, p.n)]
                        + [hstack([X] + [p.block(p.n, j) for j in range(2, k + 1)])]))
            for k in range(1, p.n + 1))

    candidates = [X for (X,) in enumerate_matrices(p.field, [(p.x_rows, p.x_cols)])]
    vectors = [rank_vector(X) for X in candidates]
    minimum = tuple(min(vec[k] for vec in vectors) for k in range(p.n))
    counts = tuple(sum(vec[k] == minimum[k] for vec in vectors) for k in range(p.n))
    minimizers = tuple(X for X, vec in zip(candidates, vectors) if vec == minimum)
    return minimum, counts, minimizers


def test_exhaust_matches_the_two_sweep_reference():
    rng = random.Random(109)
    for trial in range(240):
        field = GF(2) if trial % 2 == 0 else GF(3)
        p = rand_block_problem(rng, field, n=2 + trial % 3, max_size=2, max_x_entries=6)
        report = exhaust(p)
        assert (report.min_rank_vector, report.per_block_minimizer_counts,
                report.simultaneous_minimizers) == _two_sweep_exhaust(p), trial


def test_per_block_counts_match_corner_analysis():
    # Each overlapping block, viewed alone, is a corner completion problem
    # whose minimizer set is affine; the brute-force per-block tallies must
    # equal p to the power of that block's solution dimension.
    rng = random.Random(107)
    for trial in range(20):
        field = GF(2) if trial % 2 == 0 else GF(3)
        p = rand_block_problem(rng, field, max_size=2, max_x_entries=6)
        report = exhaust(p)
        for k in range(1, p.n + 1):
            dim = analyze(hankel_subproblem(p, k)).dimension
            assert report.per_block_minimizer_counts[k - 1] == field.p**dim


def _bomb(*_args, **_kwargs):
    raise AssertionError("construction code invoked from the enumeration side")


def test_exhaust_never_calls_the_construction(monkeypatch):
    import minrank.oracle as oracle_module

    for name in ("build_chains", "complete_overlap", "dimension_and_ranks",
                 "enumerate_free_choices"):
        monkeypatch.setattr(oracle_module, name, _bomb)
    report = exhaust(unit_problem())
    assert report.min_rank_vector == (1, 1)
    with pytest.raises(AssertionError, match="enumeration side"):
        certify(unit_problem())


def test_certify_reports_missing_minimizer(monkeypatch):
    import minrank.oracle as oracle_module

    field = GF(2)
    zero = Matrix.zeros(field, 1, 1)
    monkeypatch.setattr(oracle_module, "complete_overlap",
                        lambda _p, _chains, _f: zero)
    result = certify(unit_problem())
    assert not result.ok
    assert "never produced" in result.diagnostic


def test_certify_reports_bogus_output(monkeypatch):
    import minrank.oracle as oracle_module

    field = GF(2)
    one = Matrix.from_rows(field, [[field.one]])
    monkeypatch.setattr(oracle_module, "complete_overlap",
                        lambda _p, _chains, _f: one)
    result = certify(zero_problem(field))
    assert not result.ok
    assert "not a simultaneous minimizer" in result.diagnostic


def test_certify_reports_a_wrong_block_optimum(monkeypatch):
    import minrank.oracle as oracle_module

    def off_by_one(p, chains):
        sol = dimension_and_ranks(p, chains)
        opt = list(sol.block_opt_ranks)
        opt[1] += 1
        return dataclasses.replace(sol, block_opt_ranks=tuple(opt))

    assert certify(unit_problem()).ok
    monkeypatch.setattr(oracle_module, "dimension_and_ranks", off_by_one)
    result = certify(unit_problem())
    assert not result.ok
    assert result.diagnostic.startswith("block 2:")
