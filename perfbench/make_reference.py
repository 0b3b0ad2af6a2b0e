#!/usr/bin/env python3
"""Write ``reference.json``: the stdout digest of every master-pool problem.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Every output passes its workload's check before its digest is recorded.  The
digests pin the CLI's output byte for byte, so regenerate them only in a
change that is meant to alter that output.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench
from gen import MASTER_SIZE, WORKLOADS, to_json


def main(names: list[str]) -> int:
    sys.path.insert(0, str(bench.ROOT / "src"))
    from minrank import cli

    references = (json.loads(bench.REFERENCE.read_text(encoding="utf-8"))
                  if bench.REFERENCE.exists() else {})
    (bench.BENCH_DIR / ".work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=bench.BENCH_DIR / ".work"))
    try:
        for name in names or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            digests = []
            for index in range(MASTER_SIZE):
                problem = workload.problem(index)
                path = work_dir / "problem.json"
                path.write_text(json.dumps(to_json(problem)), encoding="utf-8")
                op = bench.Op(cli, [*workload.argv, str(path)])
                fault = op.check(workload, problem, None)
                if fault is not None:
                    print(f"{name} problem {index}: {fault}", file=sys.stderr)
                    return 1
                digests.append(bench.digest(op.stdout))
            references[name] = digests
            print(f"{name}: {len(digests)} digests", flush=True)
    finally:
        shutil.rmtree(work_dir)
    bench.REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
