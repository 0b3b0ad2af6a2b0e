"""Tests of the benchmark itself: seeded inputs, checkers, tracer, report names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
from check import CheckError, check_enumerate, check_solve, check_verify  # noqa: E402
from gen import MASTER_SIZE, WORKLOADS, to_json  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def solved(workload: str, index: int, tmp_path: Path):
    """(problem, parsed stdout) of one CLI call on a master-pool problem."""
    from minrank import cli

    w = WORKLOADS[workload]
    problem = w.problem(index)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(to_json(problem)), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main([*w.argv, str(path)]) == 0
    return problem, json.loads(out.getvalue())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_the_same_pool(name):
    w = WORKLOADS[name]
    assert w.pool(7) == w.pool(7)
    assert w.pool(7) != w.pool(8)
    first = w.pool(7)[0]
    assert json.dumps(to_json(w.problem(first))) == json.dumps(to_json(w.problem(first)))


def test_reference_digests_cover_every_master_problem():
    references = json.loads(bench.REFERENCE.read_text(encoding="utf-8"))
    assert sorted(references) == sorted(WORKLOADS)
    assert all(len(digests) == MASTER_SIZE for digests in references.values())


def test_solve_check_rejects_a_corrupted_completion(tmp_path):
    problem, out = solved("solve-gf101", 0, tmp_path)
    check_solve(problem, out)
    assert out["dimension"] == 0
    bad = copy.deepcopy(out)
    bad["completion"][0][0] = str((int(bad["completion"][0][0]) + 1) % 101)
    bad["base_solution"] = bad["completion"]
    with pytest.raises(CheckError):
        check_solve(problem, bad)
    bad = copy.deepcopy(out)
    bad["block_opt_ranks"][-1] += 1
    with pytest.raises(CheckError):
        check_solve(problem, bad)


def test_enumerate_check_rejects_a_wrong_member_count(tmp_path):
    problem, out = solved("enumerate-gf3", 0, tmp_path)
    check_enumerate(problem, out)
    short = {**out, "solutions": out["solutions"][1:]}
    with pytest.raises(CheckError):
        check_enumerate(problem, short)
    repeated = {**out, "solutions": out["solutions"][1:] + out["solutions"][1:2]}
    with pytest.raises(CheckError):
        check_enumerate(problem, repeated)


def test_verify_check_rejects_a_failed_certification():
    check_verify({}, {"ok": True})
    with pytest.raises(CheckError):
        check_verify({}, {"ok": False, "diagnostic": "x"})


def test_tracing_keeps_stdout_and_restores_the_package(tmp_path):
    from minrank import matrix, overlap

    rank = matrix.rank
    _, plain = solved("solve-qq", 1, tmp_path)
    tracer = Tracer()
    with tracer.installed():
        assert overlap.rank is not rank
        _, traced = solved("solve-qq", 1, tmp_path)
    assert traced == plain
    assert matrix.rank is rank and overlap.rank is rank
    assert tracer.counts["ucl.solve_ucl.calls"] == 6
    assert tracer.counts["matrix.rank.calls"] > 0
    assert tracer.self_s["matrix.rank"] > 0


def last_json_line(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_names_match_the_benchmark_spec(trace, section):
    code, line = last_json_line("--workload", "verify-gf2", "--seed", "0",
                                "--seconds", "1", "--trace", trace)
    assert code == 0
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, line = last_json_line("--workload", "solve-qq", "--seed", "0",
                                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0 and line == ""
