"""JSON round trips and the error messages the CLI leans on."""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction

import pytest

from minrank import (
    GF,
    QQ,
    BlockProblem,
    Matrix,
    ProblemFormatError,
    analyze,
    analyze_overlap,
    build_chains,
    complete,
    complete_overlap,
    hankel_ranks,
)
from minrank.block2x2 import free_shapes
from minrank.files import (
    MAX_SIDE,
    matrix_from_json,
    matrix_to_json,
    overlap_free_choice_from_json,
    problem_from_json,
    problem_to_json,
    solution_to_json,
    two_by_two_free_choice_from_json,
    two_by_two_from_json,
    two_by_two_solution_to_json,
    two_by_two_to_json,
    write_json,
)

from gens import rand_block_problem, rand_matrix, rand_two_by_two


def test_matrix_round_trip_rational():
    m = Matrix.from_rows(QQ, [[Fraction(1, 2), -3], [0, Fraction(7, 5)]])
    encoded = matrix_to_json(m)
    assert encoded == [["1/2", "-3"], ["0", "7/5"]]
    assert matrix_from_json(QQ, encoded) == m


def test_matrix_round_trip_prime_field_canonicalizes():
    m = matrix_from_json(GF(5), [["7", -1], [2, "0"]])
    assert m.data == ((2, 4), (2, 0))
    assert matrix_to_json(m) == [["2", "4"], ["2", "0"]]


def test_matrix_zero_dimension_object_form():
    for rows, cols in ((0, 3), (2, 0), (0, 0)):
        m = Matrix.zeros(QQ, rows, cols)
        encoded = matrix_to_json(m)
        assert encoded == {"rows": rows, "cols": cols, "entries": []}
        assert matrix_from_json(QQ, encoded) == m


def test_matrix_object_form_with_entries():
    obj = {"rows": 2, "cols": 2, "entries": ["1", "2", "3", "4"]}
    assert matrix_from_json(GF(5), obj) == Matrix.from_rows(GF(5), [[1, 2], [3, 4]])
    tall = {"rows": MAX_SIDE, "cols": 0, "entries": []}
    assert matrix_from_json(GF(5), tall) == Matrix.zeros(GF(5), MAX_SIDE, 0)


@pytest.mark.parametrize("bad, fragment", [
    ([], "nonempty rows"),
    ([[]], "nonempty rows"),
    ([[1], [1, 2]], "ragged rows of lengths [1, 2]"),
    ([[1.5]], "bad element 1.5"),
    ([[True]], "bad element True"),
    ("nope", "expected an array of rows or an object form"),
    ({"rows": 1, "cols": 1}, 'object form needs key'),
    ({"rows": -1, "cols": 1, "entries": []}, "nonnegative integers"),
    ({"rows": 2, "cols": 2, "entries": ["1"]}, "expected 4 entries for 2x2"),
    ({"rows": MAX_SIDE + 1, "cols": 0, "entries": []}, "exceeds the limit of"),
    ({"rows": 0, "cols": MAX_SIDE + 1, "entries": []}, "exceeds the limit of"),
    ({"rows": True, "cols": 1, "entries": ["1"]}, "nonnegative integers"),
    ({"rows": 1, "cols": False, "entries": []}, "nonnegative integers"),
])
def test_matrix_from_json_rejects(bad, fragment):
    with pytest.raises(ProblemFormatError, match=None) as info:
        matrix_from_json(QQ, bad)
    assert fragment in str(info.value)


def test_matrix_from_json_rejects_bad_literal_per_field():
    with pytest.raises(ProblemFormatError, match="bad element"):
        matrix_from_json(QQ, [["1/0"]])
    with pytest.raises(ProblemFormatError, match="bad element"):
        matrix_from_json(GF(3), [["1/2"]])


def test_problem_round_trip():
    rng = random.Random(211)
    for trial in range(25):
        field = (QQ, GF(2), GF(7))[trial % 3]
        p = rand_block_problem(rng, field, max_size=3)
        encoded = problem_to_json(p)
        assert problem_from_json(encoded) == p
        as_text = json.dumps(encoded, sort_keys=True)
        assert problem_from_json(json.loads(as_text)) == p


def test_problem_round_trip_with_zero_sizes():
    field = GF(2)
    p = BlockProblem(field, (0, 2), (1, 0), {
        (1, 1): Matrix.zeros(field, 0, 1),
        (2, 2): Matrix.zeros(field, 2, 0),
    })
    assert problem_from_json(problem_to_json(p)) == p


def _unit_obj():
    return {
        "field": "gf(2)",
        "n": 2,
        "row_sizes": [1, 1],
        "col_sizes": [1, 1],
        "blocks": {"1,1": [["1"]], "2,2": [["1"]]},
    }


@pytest.mark.parametrize("mangle, fragment", [
    (lambda o: o.pop("field"), 'missing key "field"'),
    (lambda o: o.update(field="gf(4)"), "not prime"),
    (lambda o: o.update(field=2), '"field" must be a string'),
    (lambda o: o.update(n=1), '"n" must be an integer >= 2'),
    (lambda o: o.update(row_sizes=[1]), "list of 2 nonnegative integers"),
    (lambda o: o.update(col_sizes=[1, -1]), "list of 2 nonnegative integers"),
    (lambda o: o.update(row_sizes=[MAX_SIDE, 1]), "over the limit of"),
    (lambda o: o.update(col_sizes=[1, MAX_SIDE]), "over the limit of"),
    (lambda o: o.update(blocks=[]), '"blocks" must be an object'),
    (lambda o: o["blocks"].pop("2,2"), 'missing blocks "2,2"'),
    (lambda o: o["blocks"].update({"2,1": [["0"]]}), 'unexpected blocks "2,1"'),
    (lambda o: o["blocks"].update({"bad": [["0"]]}), 'block key "bad"'),
    (lambda o: o["blocks"].update({"1,1": [["1", "0"]]}), 'must be 1x1, got 1x2'),
])
def test_problem_from_json_rejects(mangle, fragment):
    obj = _unit_obj()
    mangle(obj)
    with pytest.raises(ProblemFormatError) as info:
        problem_from_json(obj)
    assert fragment in str(info.value)


def test_problem_from_json_rejects_non_object():
    with pytest.raises(ProblemFormatError, match="expected a JSON object"):
        problem_from_json([1, 2])


def test_overlap_free_choice_parsing():
    p = problem_from_json(_unit_obj())
    chains = build_chains(p)
    choice = overlap_free_choice_from_json({"blocks": {"1,2": [["1"]]}}, p, chains)
    x = complete_overlap(p, chains, choice)
    assert x == Matrix.from_rows(GF(2), [[1]])
    empty = overlap_free_choice_from_json({"blocks": {}}, p, chains)
    assert complete_overlap(p, chains, empty).is_zero()


@pytest.mark.parametrize("obj, fragment", [
    ({}, 'missing key "blocks"'),
    ({"blocks": {"2,1": [["1"]]}}, "unknown free block (2, 1)"),
    ({"blocks": {"1,2": [["1", "1"]]}}, "must be 1x1, got 1x2"),
    ({"blocks": {"oops": [["1"]]}}, 'block key "oops"'),
    ([], "expected a JSON object"),
])
def test_overlap_free_choice_rejects(obj, fragment):
    p = problem_from_json(_unit_obj())
    chains = build_chains(p)
    with pytest.raises(ProblemFormatError) as info:
        overlap_free_choice_from_json(obj, p, chains)
    assert fragment in str(info.value)


def test_solution_to_json_contents():
    rng = random.Random(223)
    for _ in range(10):
        p = rand_block_problem(rng, GF(3), max_size=2)
        sol = analyze_overlap(p)
        out = solution_to_json(p, sol, sol.base_solution)
        assert out["field"] == "gf(3)"
        assert out["dimension"] == sol.dimension
        assert out["alphas"] == list(sol.alphas)
        assert out["betas"] == list(sol.betas)
        base = matrix_from_json(p.field, out["base_solution"])
        assert hankel_ranks(p, base) == tuple(out["block_opt_ranks"])
        groups = out["partition"]
        assert len(groups["row_groups"]) == p.n
        assert len(groups["col_groups"]) == p.n
        assert sorted(i for g in groups["row_groups"] for i in g) == list(range(p.x_rows))
        assert sorted(j for g in groups["col_groups"] for j in g) == list(range(p.x_cols))
        assert "solutions" not in out
        json.dumps(out)


def test_solution_to_json_with_enumeration():
    # The streamed "solutions" key writes the text json.dumps writes for the
    # whole document: plain, zero-size and rational members, one member, or none.
    p = problem_from_json(_unit_obj())
    sol = analyze_overlap(p)
    doc = solution_to_json(p, sol, sol.base_solution)
    listed = [Matrix.zeros(GF(2), 1, 1), Matrix.from_rows(GF(2), [[1]])]
    rational = [Matrix.from_rows(QQ, [[Fraction(-1, 2), 3], [0, Fraction(7, 5)]]),
                Matrix.from_rows(QQ, [[Fraction(-12, 7), 0, 1]]),
                Matrix.from_rows(QQ, [[5], [Fraction(1, 3)]])]
    zero_size = [Matrix.zeros(GF(2), 0, 2), Matrix.zeros(GF(2), 3, 0),
                 Matrix.zeros(GF(2), 0, 0), Matrix.from_rows(GF(101), [[100, 7]])]
    for members in (listed, listed[1:], [Matrix.zeros(GF(2), 0, 2)] * 2,
                    rational, zero_size, zero_size[1:2], []):
        out = io.StringIO()
        write_json(doc, out, iter(members))
        whole = {**doc, "solutions": [matrix_to_json(m) for m in members]}
        assert out.getvalue() == json.dumps(whole, indent=2) + "\n"
    assert json.loads(out.getvalue())["solutions"] == []
    out = io.StringIO()
    write_json(doc, out)
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


def test_serialization_is_deterministic():
    rng = random.Random(227)
    p = rand_block_problem(rng, QQ, max_size=3)
    a = json.dumps(problem_to_json(p), sort_keys=True)
    b = json.dumps(problem_to_json(p), sort_keys=True)
    assert a == b


def test_two_by_two_round_trip():
    rng = random.Random(229)
    for trial in range(20):
        field = (QQ, GF(5))[trial % 2]
        p = rand_two_by_two(rng, field)
        encoded = two_by_two_to_json(p)
        again = two_by_two_from_json(encoded)
        assert again == p


def test_two_by_two_from_json_rejects():
    with pytest.raises(ProblemFormatError, match='missing key "C"'):
        two_by_two_from_json({"field": "rational", "B": [["1"]], "D": [["1"]]})
    with pytest.raises(ProblemFormatError) as info:
        two_by_two_from_json({"field": "rational", "B": [["1"]],
                              "C": [["1", "2"]], "D": [["1"]]})
    assert "row" in str(info.value) or "column" in str(info.value)


def test_two_by_two_free_choice_parsing():
    field = GF(2)
    p = two_by_two_from_json({
        "field": "gf(2)",
        "B": [["1"], ["0"]],
        "C": [["0"], ["1"]],
        "D": [["1"]],
    })
    s = analyze(p)
    assert s.dimension == 1
    (name,) = [k for k, (r, c) in free_shapes(s).items() if r * c == 1]
    choice = two_by_two_free_choice_from_json({"blocks": {name: [["1"]]}}, field, s)
    x = complete(p, s, choice)
    assert x == Matrix.from_rows(field, [[1]])
    zero_choice = two_by_two_free_choice_from_json({"blocks": {}}, field, s)
    assert complete(p, s, zero_choice) == s.base_solution

    with pytest.raises(ProblemFormatError, match="unknown free block"):
        two_by_two_free_choice_from_json({"blocks": {"nonsense": [["1"]]}}, field, s)
    with pytest.raises(ProblemFormatError) as info:
        two_by_two_free_choice_from_json({"blocks": {name: [["1", "0"]]}}, field, s)
    assert "got" in str(info.value)


def test_two_by_two_solution_to_json_contents():
    p = two_by_two_from_json({
        "field": "gf(2)",
        "B": [["1"], ["0"]],
        "C": [["0"], ["1"]],
        "D": [["1"]],
    })
    s = analyze(p)
    out = two_by_two_solution_to_json(p, s, s.base_solution)
    assert out["r_opt"] == s.r_opt
    assert out["dimension"] == 1
    for part in ("row_partition", "col_partition"):
        assert set(out[part]) == {"free", "aux_basis", "dependent"}
    assert matrix_from_json(p.field, out["base_solution"]) == s.base_solution
    json.dumps(out)
