"""End-to-end command tests driving cli.main in process."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from minrank import InternalInvariantError, cli
from minrank.block2x2 import free_shapes
from minrank.oracle import CertificationResult


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def unit_doc():
    return {
        "field": "gf(2)",
        "n": 2,
        "row_sizes": [1, 1],
        "col_sizes": [1, 1],
        "blocks": {"1,1": [["1"]], "2,2": [["1"]]},
    }


def rational_doc():
    return {
        "field": "rational",
        "n": 2,
        "row_sizes": [1, 1],
        "col_sizes": [1, 1],
        "blocks": {"1,1": [["1"]], "2,2": [["1"]]},
    }


def hook_2x2_doc():
    return {
        "field": "gf(2)",
        "B": [["1"], ["0"]],
        "C": [["0"], ["1"]],
        "D": [["1"]],
    }


def five_block_2x2_doc():
    """A 2x2 problem whose five free blocks are all 1x1 (dimension 5)."""
    return {
        "field": "gf(2)",
        "B": [["1", "1", "0"], ["0", "1", "1"]],
        "C": [["0", "1"], ["0", "0"]],
        "D": [["0", "1"], ["0", "1"], ["1", "0"]],
    }


FIVE_BLOCKS = ("free_rows_dependent_cols", "free_rows_aux_cols", "free_rows_free_cols",
               "aux_rows_free_cols", "dependent_rows_free_cols")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_unit_problem(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", unit_doc())
    code, out, err = run(capsys, ["solve", path])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["dimension"] == 1
    assert doc["base_solution"] == [["0"]]
    assert doc["completion"] == [["0"]]
    assert doc["block_opt_ranks"] == [1, 1]
    assert doc["alphas"] == [0, 1, 1]
    assert doc["betas"] == [1, 0]
    assert "solutions" not in doc


def test_solve_with_free_choice(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", unit_doc())
    free = write_json(tmp_path, "f.json", {"blocks": {"1,2": [["1"]]}})
    code, out, _ = run(capsys, ["solve", path, "--free", free])
    assert code == 0
    assert json.loads(out)["completion"] == [["1"]]


def test_solve_enumerate(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", unit_doc())
    code, out, _ = run(capsys, ["solve", path, "--enumerate"])
    assert code == 0
    solutions = json.loads(out)["solutions"]
    assert len(solutions) == 2
    assert solutions[0] != solutions[1]


def test_solve_enumerate_rational_is_an_input_error(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", rational_doc())
    code, _, err = run(capsys, ["solve", path, "--enumerate"])
    assert code == 2
    assert "finite field" in err


def test_solve_enumerate_budget(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", unit_doc())
    code, _, err = run(capsys, ["solve", path, "--enumerate", "--budget", "1"])
    assert code == 2
    assert "budget" in err


def test_dimension_prints_a_bare_integer(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", unit_doc())
    code, out, err = run(capsys, ["dimension", path])
    assert (code, out, err) == (0, "1\n", "")


def test_dimension_skips_the_fill(tmp_path, capsys, monkeypatch):
    import minrank.overlap as overlap_module

    def explode(*_args, **_kwargs):
        raise AssertionError("the dimension needs no completion")

    monkeypatch.setattr(overlap_module, "complete_overlap", explode)
    path = write_json(tmp_path, "p.json", unit_doc())
    code, out, err = run(capsys, ["dimension", path])
    assert (code, out, err) == (0, "1\n", "")


def test_ranks(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", unit_doc())
    comp = write_json(tmp_path, "x.json", [["1"]])
    code, out, _ = run(capsys, ["ranks", path, comp])
    assert code == 0
    assert json.loads(out) == [1, 1]


def test_ranks_rejects_misshapen_completion(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", unit_doc())
    comp = write_json(tmp_path, "x.json", [["1", "0"]])
    code, _, err = run(capsys, ["ranks", path, comp])
    assert code == 2
    assert err.startswith("error:")


def test_verify_ok(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", unit_doc())
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"ok": True, "dimension": 1, "minimizer_count": 2, "diagnostic": ""}


def test_verify_budget_too_small(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", unit_doc())
    code, _, err = run(capsys, ["verify", path, "--budget", "1"])
    assert code == 2
    assert "budget" in err


def test_solve_enumerate_huge_count_is_a_budget_error(tmp_path, capsys):
    # 101^2500 free corners: the count must not be formed or printed in full.
    identity = [["1" if i == j else "0" for j in range(50)] for i in range(50)]
    doc = {"field": "gf(101)", "n": 2, "row_sizes": [50, 50], "col_sizes": [50, 50],
           "blocks": {"1,1": identity, "2,2": identity}}
    path = write_json(tmp_path, "p.json", doc)
    started = time.perf_counter()
    code, _, err = run(capsys, ["solve", path, "--enumerate"])
    assert code == 2
    assert "budget" in err
    assert time.perf_counter() - started < 1.0


def test_verify_huge_corner_is_a_budget_error(tmp_path, capsys):
    # A 1000x1000 corner over GF(2): 2^1000000 candidates.
    empty_rows = {"rows": 0, "cols": 1000, "entries": []}
    empty_cols = {"rows": 1000, "cols": 0, "entries": []}
    doc = {"field": "gf(2)", "n": 2, "row_sizes": [0, 1000], "col_sizes": [1000, 0],
           "blocks": {"1,1": empty_rows, "2,2": empty_cols}}
    path = write_json(tmp_path, "p.json", doc)
    started = time.perf_counter()
    code, _, err = run(capsys, ["verify", path])
    assert code == 2
    assert "budget" in err
    assert time.perf_counter() - started < 1.0


def test_verify_failure_exits_one(tmp_path, capsys, monkeypatch):
    bad = CertificationResult(ok=False, diagnostic="planted failure",
                              dimension=1, minimizer_count=2)
    monkeypatch.setattr(cli, "certify", lambda _p, _budget: bad)
    path = write_json(tmp_path, "p.json", unit_doc())
    code, out, _ = run(capsys, ["verify", path])
    assert code == 1
    assert json.loads(out)["diagnostic"] == "planted failure"


def test_internal_invariant_exits_three(tmp_path, capsys, monkeypatch):
    def explode(_p):
        raise InternalInvariantError("planted invariant break")

    monkeypatch.setattr(cli, "analyze_overlap", explode)
    path = write_json(tmp_path, "p.json", unit_doc())
    code, _, err = run(capsys, ["solve", path])
    assert code == 3
    assert "internal invariant violation" in err


def test_malformed_problem_names_the_missing_block(tmp_path, capsys):
    doc = unit_doc()
    del doc["blocks"]["2,2"]
    path = write_json(tmp_path, "p.json", doc)
    code, _, err = run(capsys, ["solve", path])
    assert code == 2
    assert '"2,2"' in err


def test_huge_problem_without_blocks_fails_fast_and_briefly(tmp_path, capsys):
    n = 2000
    doc = {"field": "gf(2)", "n": n, "row_sizes": [0] * n, "col_sizes": [0] * n,
           "blocks": {}}
    path = write_json(tmp_path, "p.json", doc)
    start = time.perf_counter()
    code, out, err = run(capsys, ["solve", path])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert len(err.encode("utf-8")) < 1024
    assert 'missing blocks "1,1"' in err and "more" in err


def test_tall_zero_width_problem_is_rejected_at_once(tmp_path, capsys):
    # Under 200 bytes that declare 6,000,000 rows of zero-width blocks.
    path = tmp_path / "tall.json"
    path.write_text(
        '{"field": "gf(2)", "n": 2, "row_sizes": [3000000, 3000000], "col_sizes": [0, 0], '
        '"blocks": {"1,1": {"rows": 3000000, "cols": 0, "entries": []}, '
        '"2,2": {"rows": 3000000, "cols": 0, "entries": []}}}', encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, ["dimension", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "limit" in err


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000, encoding="utf-8")
    problem = write_json(tmp_path, "p.json", unit_doc())
    for argv in (["solve", str(nested)], ["verify", str(nested)],
                 ["ranks", problem, str(nested)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "nested too deeply" in err
        assert "Traceback" not in err


def test_nonexistent_path(tmp_path, capsys):
    code, _, err = run(capsys, ["solve", str(tmp_path / "absent.json")])
    assert code == 2
    assert err.startswith("error:")


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == 2
    assert "invalid JSON" in err


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_missing_arguments_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["ranks"])
    assert info.value.code == 2


def test_solve2x2(tmp_path, capsys):
    path = write_json(tmp_path, "q.json", hook_2x2_doc())
    code, out, _ = run(capsys, ["solve2x2", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["r_opt"] == 2
    assert doc["dimension"] == 1
    assert doc["completion"] == doc["base_solution"]


def test_solve2x2_free_and_enumerate(tmp_path, capsys):
    path = write_json(tmp_path, "q.json", hook_2x2_doc())
    code, out, _ = run(capsys, ["solve2x2", path, "--enumerate"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["solutions"]) == 2

    from minrank import GF, analyze
    from minrank.files import two_by_two_from_json

    s = analyze(two_by_two_from_json(hook_2x2_doc()))
    (name,) = [k for k, (r, c) in free_shapes(s).items() if r * c == 1]
    free = write_json(tmp_path, "f.json", {"blocks": {name: [["1"]]}})
    code, out, _ = run(capsys, ["solve2x2", path, "--free", free])
    assert code == 0
    assert json.loads(out)["completion"] == [["1"]]


def test_solve2x2_rejects_bad_free_choice(tmp_path, capsys):
    path = write_json(tmp_path, "q.json", hook_2x2_doc())
    free = write_json(tmp_path, "f.json", {"blocks": {"nonsense": [["1"]]}})
    code, _, err = run(capsys, ["solve2x2", path, "--free", free])
    assert code == 2
    assert "unknown free block" in err


def test_solve2x2_empty_free_choice_is_the_base_solution(tmp_path, capsys):
    path = write_json(tmp_path, "q.json", five_block_2x2_doc())
    free = write_json(tmp_path, "f.json", {"blocks": {}})
    code, out, err = run(capsys, ["solve2x2", path, "--free", free])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["dimension"] == 5
    assert doc["completion"] == doc["base_solution"]


@pytest.mark.parametrize("given", FIVE_BLOCKS)
def test_solve2x2_omitted_free_blocks_are_zero(tmp_path, capsys, given):
    path = write_json(tmp_path, "q.json", five_block_2x2_doc())
    one = write_json(tmp_path, "one.json", {"blocks": {given: [["1"]]}})
    every = write_json(tmp_path, "every.json", {"blocks": {
        name: [["1" if name == given else "0"]] for name in FIVE_BLOCKS}})
    code, out, _ = run(capsys, ["solve2x2", path, "--free", one])
    assert code == 0
    assert run(capsys, ["solve2x2", path, "--free", every]) == (0, out, "")
    doc = json.loads(out)
    assert doc["completion"] != doc["base_solution"]


@pytest.mark.parametrize("command, blocks, fragment", [
    ("solve", {"2,1": [["1"]]}, "unknown free block (2, 1)"),
    ("solve", {"1,2": [["1", "0"]]}, "free block (1, 2) must be 1x1, got 1x2"),
    ("solve2x2", {"nonsense": [["1"]]}, "unknown free block nonsense"),
    ("solve2x2", {"free_rows_aux_cols": [["1", "0"]]},
     "free block free_rows_aux_cols must be 1x1, got 1x2"),
])
def test_bad_free_block_is_one_error_line(tmp_path, capsys, command, blocks, fragment):
    doc = unit_doc() if command == "solve" else five_block_2x2_doc()
    path = write_json(tmp_path, "p.json", doc)
    free = write_json(tmp_path, "f.json", {"blocks": blocks})
    code, out, err = run(capsys, [command, path, "--free", free])
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    assert fragment in line


def test_output_is_deterministic(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", unit_doc())
    _, first, _ = run(capsys, ["solve", path, "--enumerate"])
    _, second, _ = run(capsys, ["solve", path, "--enumerate"])
    assert first == second


def test_installed_entry_point():
    exe = shutil.which("minrank")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout


def test_module_entry_point(tmp_path):
    path = write_json(tmp_path, "p.json", unit_doc())
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "minrank.cli", "dimension", path],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
