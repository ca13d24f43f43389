"""The benchmark's own check: every workload at a tiny size, both modes.

    python3 perfbench/smoke.py

Runs ``run.py --smoke`` for each workload of ``BENCHMARK.json`` with
``--trace 0`` and ``--trace 1`` and checks the exit code, the shape of the
last output line, and that the metric names and units are exactly the
``end_to_end`` (untraced) or ``per_layer`` (traced) lists of
``BENCHMARK.json``.  Then runs the benchmark from a directory holding only
``BENCHMARK.json`` and the benchmark's files and checks that it fails
without printing a result.  Exits nonzero on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

ROOT = workloads.ROOT
BENCH = ROOT / "perfbench"


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"smoke: FAIL: {what}")
        sys.exit(1)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def invoke(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(workloads.WORKLOADS), f"workloads {names}")
    expected = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
                1: [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    check(expected[0] == list(run.END_TO_END), "end_to_end list differs from run.py")
    check(expected[1] == run.per_layer_names(), "per_layer list differs from run.py")
    for workload in names:
        for trace in (0, 1):
            proc = invoke(ROOT, workload, trace)
            check(proc.returncode == 0, f"{workload} trace {trace} exit {proc.returncode}\n"
                                        f"{proc.stderr[-2000:]}")
            out = last_json(proc.stdout)
            check(isinstance(out, dict) and set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace {trace}: last line is not the result object")
            check(out["correct"] is True and out["attempted"] >= 1 and out["failed"] == 0,
                  f"{workload} trace {trace}: {out['correct']=} {out['attempted']=} {out['failed']=}")
            got = [(k, v["unit"]) for k, v in out["metrics"].items()]
            check(got == expected[trace], f"{workload} trace {trace}: metric names or units differ")
            check(all(isinstance(v["value"], (int, float)) for v in out["metrics"].values()),
                  f"{workload} trace {trace}: a metric value is not a number")
            print(f"smoke: ok {workload} trace {trace}")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = invoke(bare, names[0], 0)
        out = last_json(proc.stdout)
        check(proc.returncode != 0 and not (isinstance(out, dict) and "correct" in out),
              f"bare directory: exit {proc.returncode} with output {proc.stdout[-300:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
