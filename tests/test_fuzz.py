"""Mutated input files through cli.main: every call ends in exit 0, 1 or 2, briefly.

Valid problem, 2x2 and free-choice JSON is drawn small, then one to three
random edits replace, delete or add a value anywhere in the tree (the whole
document included).  Budgets are small so that no call may enumerate much.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
import time

from hypothesis import given, strategies as st

from minrank import BlockProblem, TwoByTwoProblem, analyze, block2x2, cli, field_from_name
from minrank.files import matrix_to_json, problem_to_json, two_by_two_to_json
from minrank.overlap import build_chains, free_shapes
from random_problem import rand_blocks, rand_matrix

CALL_SECONDS = 2.0

FIELDS = ("gf(2)", "gf(3)", "gf(101)", "rational")

HOSTILE = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.just(1.5), st.text(max_size=3),
    st.sampled_from([4096, 4097, 10**30, "1/0", "-1/2", "x", "", "1,1", "2,1", "3,3",
                     "gf(4)", "gf(2)", "gf(2305843009213693951)", "rational"]),
    st.sampled_from([[], {}, [[]], [["1"], ["1", "0"]], [["1", "1"]],
                     {"rows": 0, "cols": 2, "entries": []},
                     {"rows": 4096, "cols": 0, "entries": []},
                     {"rows": 1, "cols": 1}]),
)

PROBLEM_COMMANDS = (["solve", "--enumerate", "--budget", "30"], ["dimension"],
                    ["verify", "--budget", "300"])


def _slots(node, out):
    """Every (container, key) of a JSON tree, depth first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, value in items:
        out.append((node, key))
        _slots(value, out)
    return out


@st.composite
def mutated(draw, doc):
    root = {"doc": json.loads(json.dumps(doc))}
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(_slots(root, [])))
        action = draw(st.sampled_from(("replace", "delete", "add")))
        if action == "replace" or container is root:
            container[key] = draw(HOSTILE)
        elif action == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[draw(st.text(max_size=3))] = draw(HOSTILE)
        else:
            container.insert(key, draw(HOSTILE))
    return root["doc"]


@st.composite
def problems(draw):
    field = field_from_name(draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(2, 3))
    sizes = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    row_sizes, col_sizes = tuple(draw(sizes)), tuple(draw(sizes))
    rng = random.Random(draw(st.integers(0, 2**16)))
    return BlockProblem(field, row_sizes, col_sizes,
                        rand_blocks(rng, field, row_sizes, col_sizes))


@st.composite
def two_by_twos(draw):
    field = field_from_name(draw(st.sampled_from(FIELDS)))
    m, b, c, d = (draw(st.integers(0, 3)) for _ in range(4))
    rng = random.Random(draw(st.integers(0, 2**16)))
    return TwoByTwoProblem(B=rand_matrix(rng, field, m, b), C=rand_matrix(rng, field, m, c),
                           D=rand_matrix(rng, field, d, c))


def _free_doc(field, shapes, seed):
    rng = random.Random(seed)
    return {"blocks": {key if isinstance(key, str) else "{},{}".format(*key):
                       matrix_to_json(rand_matrix(rng, field, r, c))
                       for key, (r, c) in shapes.items()}}


def _run(command, problem, free=None):
    """Exit code and stderr of ``command`` on the given documents, timed."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command[0], os.path.join(tmp, "p.json"), *command[1:]]
        files = {argv[1]: problem}
        if free is not None:
            argv += ["--free", os.path.join(tmp, "f.json")]
            files[argv[-1]] = free
        for path, doc in files.items():
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
    assert elapsed < CALL_SECONDS, (argv, elapsed)
    return code, err.getvalue()


@given(problems(), st.data())
def test_mutated_problems_end_cleanly(p, data):
    doc = data.draw(mutated(problem_to_json(p)))
    for command in PROBLEM_COMMANDS:
        code, err = _run(command, doc)
        assert code in (0, 1, 2), (command, doc, err)


@given(two_by_twos(), st.data())
def test_mutated_two_by_two_problems_end_cleanly(p, data):
    doc = data.draw(mutated(two_by_two_to_json(p)))
    code, err = _run(["solve2x2", "--enumerate", "--budget", "30"], doc)
    assert code in (0, 1, 2), (doc, err)


@given(problems(), two_by_twos(), st.integers(0, 2**16), st.data())
def test_mutated_free_choices_end_cleanly(p, p2, seed, data):
    for command, problem, field, shapes in (
            ("solve", problem_to_json(p), p.field, free_shapes(build_chains(p))),
            ("solve2x2", two_by_two_to_json(p2), p2.field, block2x2.free_shapes(analyze(p2)))):
        free = data.draw(mutated(_free_doc(field, shapes, seed)))
        code, err = _run([command], problem, free)
        assert code in (0, 1, 2), (command, problem, free, err)


@given(problems(), two_by_twos())
def test_valid_problems_with_empty_blocks_succeed_or_hit_a_budget(p, p2):
    # Valid input never fails verification; exit 2 only for a budget or QQ.
    runs = [(command, problem_to_json(p)) for command in PROBLEM_COMMANDS + (["solve"],)]
    runs += [(command, two_by_two_to_json(p2))
             for command in (["solve2x2"], ["solve2x2", "--enumerate", "--budget", "30"])]
    for command, doc in runs:
        code, err = _run(command, doc)
        assert code == 0 or (code == 2 and ("budget" in err or "finite field" in err)), (
            command, err)
