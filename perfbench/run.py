#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the ``minrank`` CLI, with a per-layer trace.

    python3 perfbench/run.py --workload solve-gf101 --seed 1 --seconds 25 --trace 0

Run from the repository root.  One process, one thread: a closed loop with a
single client calls ``minrank.cli.main([...])`` in-process on the seeded
problem files, one operation after the other, until the timed operations add
up to ``--seconds``.  Every output is checked outside the timed region: exit
code, the workload's semantic check (:mod:`check`) and the stdout digest
committed in ``reference.json``.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it repeat
each metric with its unit and record the interpreter, CPU and source version.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the first ``TRACE_SIZE`` problems of the pool
and reports per-layer metrics from the traced passes (:mod:`tracer`):
``_s`` is self time per operation, ``.calls`` calls per operation.  No layer
queues or waits, so there is no wait-time metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Optional

from check import CHECKS, CheckError
from gen import TRACE_SIZE, WORKLOADS, Workload, to_json
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 5
WARMUP_OPS = 2

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_s.p50": "s",
    "latency_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "matrix.rank.calls": "count", "matrix.rank_s": "s",
    "matrix.rref.calls": "count", "matrix.rref_s": "s",
    "matrix.select.calls": "count", "matrix.select_s": "s",
    "matrix.elim_cells": "count",
    "overlap.known_stack.calls": "count",
    "overlap.build_chains_s": "s", "overlap.dimension_and_ranks_s": "s",
    "block2x2.r_opt.calls": "count", "block2x2.r_opt_s": "s",
    "ucl.solve_ucl.calls": "count", "ucl.solve_ucl_s": "s",
    "ucl.check_hypotheses_s": "s", "ucl.block_c_inverse_s": "s",
    "overlap.complete_overlap.calls": "count", "overlap.complete_overlap_s": "s",
    "matrix.assign.calls": "count", "matrix.assign_s": "s",
    "matrix.matmul_s": "s", "matrix.stack_s": "s",
    "fields.scalar_ops": "count", "fields.inverse.calls": "count",
    "files.parse_s": "s", "files.emit_s": "s", "files.emit_bytes": "B",
    "cli.self_s": "s",
    "oracle.exhaust_s": "s", "oracle.candidates": "count",
    "oracle.candidates_per_s": "1/s", "oracle.minimizer_share": "ratio",
    "trace.overhead": "ratio",
    "error_rate": "ratio",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Op:
    """One timed CLI call and its captured result."""

    def __init__(self, cli, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:       # the benchmark keeps going and counts a failure
            code = "exception"
            err.write(traceback.format_exc())
        self.seconds = perf_counter() - start
        self.code, self.stdout, self.stderr = code, out.getvalue(), err.getvalue()
        self.fault: Optional[str] = None

    def check(self, workload: Workload, problem: dict,
              reference: Optional[str]) -> Optional[str]:
        """Why the output is wrong, or None."""
        if self.code != 0:
            return f"exit {self.code}: {self.stderr.strip()[-500:]}"
        try:
            CHECKS[workload.check](problem, json.loads(self.stdout))
        except CheckError as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"
        if reference is not None and digest(self.stdout) != reference:
            return f"stdout digest {digest(self.stdout)} != reference {reference}"
        return None


class Run:
    """A workload's pool written to disk, with the imported CLI."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, references):
        self.workload = workload
        self.indices = workload.pool(seed)
        self.work_dir = work_dir
        self.references = references
        self.failures: list[str] = []
        self.attempted = 0

    def set_up(self) -> float:
        """Import ``minrank`` afresh, generate and write the pool, warm up."""
        for key in [k for k in sys.modules if k == "minrank" or k.startswith("minrank.")]:
            del sys.modules[key]
        start = perf_counter()
        self.cli = importlib.import_module("minrank.cli")
        self.problems = [self.workload.problem(i) for i in self.indices]
        self.paths = []
        for index, problem in zip(self.indices, self.problems):
            path = self.work_dir / f"{index}.json"
            path.write_text(json.dumps(to_json(problem)), encoding="utf-8")
            self.paths.append(str(path))
        for k in range(WARMUP_OPS):
            self.op(k)
        return perf_counter() - start

    def op(self, k: int) -> Op:
        """Run pool problem ``k`` (cyclically) and check its output."""
        k %= len(self.paths)
        op = Op(self.cli, [*self.workload.argv, self.paths[k]])
        self.attempted += 1
        op.fault = op.check(self.workload, self.problems[k],
                            self.references[self.indices[k]])
        if op.fault is not None:
            self.failures.append(f"problem {self.indices[k]}: {op.fault}")
        return op


def measure(run: Run, seconds: float) -> dict:
    latencies: list[float] = []
    busy = 0.0
    while busy < seconds or len(latencies) < 2:
        latencies.append(run.op(len(latencies)).seconds)
        busy += latencies[-1]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "ops_per_s": (len(latencies) - len(run.failures)) / busy,
        "latency_s.p50": statistics.median(latencies),
        "latency_s.p90": deciles[-1],
        "samples": len(latencies),
    }


def measure_traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics per traced operation.  One pass counts scalar
    operations; then untraced and layer-traced passes over the same problems
    alternate until their operations add up to ``seconds``.  Every pass covers
    the same problems, so each count per operation repeats exactly."""
    subset = range(TRACE_SIZE)
    scalars = Tracer(scalars=True)
    with scalars.installed():
        for k in subset:
            run.op(k)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    traced_ops = emit_bytes = 0
    while plain_s + traced_s < seconds or traced_ops == 0:
        plain = [run.op(k) for k in subset]
        with tracer.installed():
            traced = [run.op(k) for k in subset]
        for k, a, b in zip(subset, plain, traced):
            if a.stdout != b.stdout and b.fault is None:
                run.failures.append(f"problem {run.indices[k]}: traced stdout differs")
        plain_s += sum(op.seconds for op in plain)
        traced_s += sum(op.seconds for op in traced)
        traced_ops += len(traced)
        emit_bytes += sum(len(op.stdout.encode("utf-8")) for op in traced)

    counts, self_s = tracer.counts, tracer.self_s
    candidates = counts["oracle.candidates"]
    exhaust_s = tracer.total_s["oracle.exhaust"]
    metrics = {name + "_s": spent / traced_ops for name, spent in self_s.items()}
    metrics.update({name: count / traced_ops for name, count in counts.items()})
    metrics.update({name: count / len(subset) for name, count in scalars.counts.items()})
    metrics.update({
        "cli.self_s": self_s["cli"] / traced_ops,
        "files.emit_bytes": emit_bytes / traced_ops,
        "oracle.candidates_per_s": candidates / exhaust_s if exhaust_s else 0.0,
        "oracle.minimizer_share": (counts["oracle.minimizers"] / candidates
                                   if candidates else 0.0),
        "trace.overhead": plain_s / traced_s,
        "error_rate": len(run.failures) / run.attempted,
    })
    return {name: metrics.get(name, 0) for name in PER_LAYER}


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "minrank").glob("*.py")):
        source.update(path.read_bytes())
    return (f"# python={platform.python_version()} nproc={os.cpu_count()} cpu={cpu!r} "
            f"commit={commit} src_sha256={source.hexdigest()[:16]}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "minrank" / "cli.py").is_file():
        print(f"error: no minrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]

    work_dir = BENCH_DIR / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, args.seed, work_dir, references)
        setup_s = statistics.median(run.set_up() for _ in range(SETUP_REPEATS))
        setup_failures, run.failures, run.attempted = run.failures, [], 0
        if args.trace:
            metrics, units = measure_traced(run, args.seconds), PER_LAYER
            samples = ""
        else:
            measured = measure(run, args.seconds)
            samples = f" samples={measured.pop('samples')}"
            metrics = {**measured, "setup_s": setup_s,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for fault in (setup_failures + run.failures)[:5]:
        print(f"FAIL {fault}", file=sys.stderr)
    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={run.attempted} failed={len(run.failures)} "
          f"error_rate={len(run.failures) / run.attempted:g}{samples}")
    print(environment())
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not (setup_failures or run.failures),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
