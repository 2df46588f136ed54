"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload it runs ``run.py --smoke`` with ``--trace 0`` and
``--trace 1`` and checks that the last line of output is the result object
and that it names exactly the end-to-end (trace 0) or per-layer (trace 1)
metrics of BENCHMARK.json, each with its unit and a finite value.  It also
requires ``correct`` to be true: run.py sets it false when an op fails in a
way no recorded seed defect explains, when a CLI subprocess exits non-zero,
or when a CLI answer differs from the in-process answer for the same input.
Finally it checks that the benchmark refuses to run, printing no result, from
a directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd, workload, trace, *extra):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload, trace):
    proc = run(ROOT, workload, trace, "--smoke")
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct\n{proc.stdout[-3000:]}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], where
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{where}: metrics differ: {sorted(set(got) ^ set(want))}"
    for name, m in result["metrics"].items():
        value = m["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name}={value}"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values()), f"{where}: zero metric"
    print(f"ok {where}: {result['attempted']} ops, {result['failed']} failed")


def check_refuses_without_source():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "ideal", 0)
        assert proc.returncode != 0, "ran without the program's source"
        assert not proc.stdout.strip(), "printed output without the program's source"
    print("ok refuses to run without src/")


def main():
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace)
    check_refuses_without_source()
    print("smoke test passed")


if __name__ == "__main__":
    main()
