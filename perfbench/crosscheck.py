"""Traced per-operation times of the ROADMAP a-flip pair against its table.

    python3 perfbench/crosscheck.py

Runs the ``large_dim`` task for the even modules with (a, b, c) =
(1/3, 2/7, 5/11) at n = 16 and n = 32 under the span wrappers and prints the
inclusive time of each operation the task calls directly, beside the time
recorded in ROADMAP item 1.  Operations more than 2x away are marked.
"""

from __future__ import annotations

import sys
from collections import Counter

import run
import spans
import workloads

# ROADMAP item 1, seconds at n = 16 and n = 32
ROADMAP = {
    "bimodule.check_relations": (0.022, 0.10),
    "classify.oracle_irreducible": (0.073, 0.58),
    "classify.are_isomorphic": (0.17, 1.7),
    "exactlinalg.min_poly": (0.030, 0.21),
    "classify.lowering_matrix.operator": (0.10, 1.6),
}


def main() -> int:
    lib = run.load_library()
    items = [item for item in workloads.large_inputs(lib, 0, False)[0]
             if item["family"] == "even" and item["v"].dim in (16, 32)]
    rec = spans.Recorder()
    spans.install(rec, lib)
    for item in items:
        rec.task(workloads.large_task, lib, item)
    # inclusive time of each task's direct children, per task in run order
    task_id = rec.name_id(spans.TASK_SPAN)
    roots = [i for i, span in enumerate(rec.spans) if span[0] == task_id]
    times = {i: Counter() for i in roots}
    for nid, start, end, parent in rec.spans:
        if parent in times:
            times[parent][rec.names[nid]] += end - start
    print(f"{'operation':36} {'n':>3} {'traced s':>9} {'ROADMAP s':>9} {'ratio':>6}")
    for root, item, col in zip(roots, items, (0, 1)):
        for name, table in ROADMAP.items():
            took = times[root][name]
            ratio = took / table[col]
            flag = "  <-- more than 2x" if ratio > 2 or ratio < 0.5 else ""
            print(f"{name:36} {item['v'].dim:>3} {took:9.3f} {table[col]:9.3f} "
                  f"{ratio:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
