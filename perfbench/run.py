"""Benchmark of the bannai_ito library and its bimod command line.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  Each
workload runs in this one process, with no threads (``cli`` starts one
subprocess at a time).  With ``--trace 0`` the timed loop runs whole rounds
of checked tasks for ``--seconds`` and prints the end-to-end metrics; with
``--trace 1`` it times a fixed number of rounds without and then with span
wrappers and prints the per-layer metrics.  Times are CPU seconds of this
process and its children (see ``cpu_seconds``); the loop stops on wall time.
Human-readable lines come first; the last line of standard output is one
JSON object.  A wrong answer exits with code 1, a checkout without ``src/``
or ``tests/golden/`` with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from typing import NamedTuple

import spans
import workloads
from workloads import ROOT, WrongAnswer

OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 5
CLI_COMMANDS = ("build", "fixture", "check", "classify", "identify", "minpoly", "iso", "scan")
END_TO_END = (("throughput", "tasks/s"), ("task_p50_ms", "ms"), ("conclusive_frac", "ratio"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    layers = spans.layer_metrics(spans.Recorder(), 0.0, 0.0)
    cli = [("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms")]
    cli += [(f"cli.{cmd}.p50_ms", "ms") for cmd in CLI_COMMANDS]
    return [(name, unit) for name, (_, unit) in layers.items()] + cli


class Runner:
    """Runs tasks, counting inconclusive ones and unexpected errors."""

    def __init__(self, lib, task):
        self.lib, self.task = lib, task
        self.errors = 0

    def __call__(self, item) -> dict:
        try:
            return self.task(self.lib, item)
        except WrongAnswer:
            raise
        except Exception:  # an unexpected library error is an inconclusive task
            traceback.print_exc(file=sys.stderr)
            self.errors += 1
            return workloads.record(0, conclusive=False)


def load_library() -> dict:
    """Import (again) the package from ``src/`` and return its modules."""
    src = ROOT / "src"
    if not (src / "bannai_ito").is_dir():
        raise FileNotFoundError(f"no library sources at {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "bannai_ito" or m.startswith("bannai_ito.")]:
        del sys.modules[name]
    lib = {"package": importlib.import_module("bannai_ito")}
    for layer in spans.LAYERS:
        lib[layer] = importlib.import_module(f"bannai_ito.{layer}")
    return lib


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited
    for.  Unlike wall time it leaves out the time a shared host hands the
    CPU to other guests (steal), which on a shared VM swung wall times by up
    to 2x between runs."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def setup(make_inputs, seed: int, smoke: bool):
    """Import plus input generation, repeated; returns the last library and
    inputs and the median set-up CPU time."""
    times = []
    for _ in range(SETUP_REPS):
        start = cpu_seconds()
        lib = load_library()
        rounds = make_inputs(lib, seed, smoke)
        times.append(cpu_seconds() - start)
    return lib, rounds, statistics.median(times)


class Timed(NamedTuple):
    wall: float           # s, whole loop
    cpu: float            # CPU s, whole loop
    latencies: list       # CPU s per task
    wall_latencies: list  # s per task
    records: list
    rounds: int


def run_rounds(rounds, runner, seconds: float, max_rounds: int | None = None) -> Timed:
    """Whole rounds until ``seconds`` of wall time have passed (or
    ``max_rounds`` ran)."""
    latencies, wall_latencies, records = [], [], []
    start, cpu_start = time.perf_counter(), cpu_seconds()
    done = 0
    for rnd in rounds:
        if done and (time.perf_counter() - start >= seconds or done == max_rounds):
            break
        for item in rnd:
            t0, c0 = time.perf_counter(), cpu_seconds()
            records.append(runner(item))
            latencies.append(cpu_seconds() - c0)
            wall_latencies.append(time.perf_counter() - t0)
        done += 1
    return Timed(time.perf_counter() - start, cpu_seconds() - cpu_start, latencies,
                 wall_latencies, records, done)


def composition(records) -> dict:
    """Input mix of a run: tasks per dimension, reducible count, oracle
    routes, CLI commands."""
    return {"tasks_per_dim": dict(sorted(Counter(r["dim"] for r in records).items())),
            "reducible": sum(r["reducible"] for r in records),
            "oracle_routes": dict(sorted(Counter(r["route"] for r in records if r["route"]).items())),
            "commands": dict(sorted(Counter(r["command"] for r in records if r["command"]).items())),
            "inconclusive": sum(not r["conclusive"] for r in records)}


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def end_to_end(args, timed: Timed, setup_s: float) -> tuple[dict, list[str]]:
    latencies, records = timed.latencies, timed.records
    n = len(latencies)
    inconclusive = sum(not r["conclusive"] for r in records)
    values = {"throughput": n / timed.cpu,
              "task_p50_ms": statistics.median(latencies) * 1000,
              "conclusive_frac": (n - inconclusive) / n,
              "setup_s": setup_s,
              "peak_rss_mb": peak_rss_mb(args.workload == "cli")}
    lines = [f"{name} = {values[name]:.6g} {unit}" for name, unit in END_TO_END]
    lines.append(f"wall clock: throughput = {n / timed.wall:.6g} tasks/s, task_p50_ms = "
                 f"{statistics.median(timed.wall_latencies) * 1000:.6g} ms, "
                 f"CPU share of wall = {timed.cpu / timed.wall:.3f}")
    lines.append(f"failed_frac = {inconclusive / n:.6g} ratio  ({inconclusive} of {n} tasks inconclusive)")
    if n >= 10:
        p90 = statistics.quantiles(latencies, n=10)[8]
        beyond = sum(x > p90 for x in latencies)
        if beyond >= 10:
            lines.append(f"task_p90_ms = {p90 * 1000:.6g} ms  ({beyond} samples beyond it)")
        else:
            lines.append(f"task_p90_ms omitted: only {beyond} samples beyond it")
    else:
        lines.append(f"task_p90_ms omitted: only {n} samples")
    return values, lines


def cli_startup_ms(reps: int = 5) -> tuple[float, float]:
    """Median CPU time of ``python -c pass`` and the extra of importing the CLI."""
    env = workloads.cli_env()

    def cost(code: str) -> float:
        samples = []
        for _ in range(reps):
            start = cpu_seconds()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           timeout=60)
            samples.append(cpu_seconds() - start)
        return statistics.median(samples) * 1000

    interpreter = cost("pass")
    return interpreter, cost("import bannai_ito.cli") - interpreter


def traced_run(args, make_inputs, task, traced_task, lib, rounds, seed):
    """Per-layer metrics: a fixed number of rounds untraced, then the same
    inputs rebuilt and run again under the span wrappers."""
    values = {name: 0.0 for name, _ in per_layer_names()}
    records, errors = [], 0
    if args.workload == "cli":
        runner = Runner(lib, task)
        timed = run_rounds(rounds, runner, args.seconds / 2, max_rounds=2)
        records, errors = timed.records, runner.errors
        for cmd in CLI_COMMANDS:
            values[f"cli.{cmd}.p50_ms"] = statistics.median(
                x for x, r in zip(timed.latencies, records) if r["command"] == cmd) * 1000
        values["cli.interpreter_ms"], values["cli.import_ms"] = cli_startup_ms()
    max_rounds = 1 if args.smoke else workloads.TRACED_ROUNDS[args.workload]
    plain = Runner(lib, traced_task)
    untraced = run_rounds(rounds, plain, args.seconds / 2, max_rounds)
    fresh = make_inputs(lib, seed, args.smoke)[:untraced.rounds]
    rec = spans.Recorder()
    spans.install(rec, lib)
    traced = Runner(lib, lambda lib_, item: rec.task(traced_task, lib_, item))
    start = cpu_seconds()
    traced_recs = [traced(item) for rnd in fresh for item in rnd]
    traced_cpu = cpu_seconds() - start
    for name, (value, _) in spans.layer_metrics(rec, traced_cpu, untraced.cpu).items():
        values[name] = value
    OUT.mkdir(parents=True, exist_ok=True)
    spans.write_spans(rec, OUT / f"spans_{args.workload}_s{seed}.json")
    errors += plain.errors + traced.errors
    return values, records + untraced.records + traced_recs, errors, untraced.rounds


def emit(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny round per workload, for the benchmark's own checks")
    args = parser.parse_args(argv)
    make_inputs, task, traced_task = workloads.WORKLOADS[args.workload]
    try:
        lib, rounds, setup_s = setup(make_inputs, args.seed, args.smoke)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot set up: {exc}", file=sys.stderr)
        return 2
    try:
        return measure(args, make_inputs, task, traced_task, lib, rounds, setup_s)
    finally:
        shutil.rmtree(workloads.cli_workdir(), ignore_errors=True)


def measure(args, make_inputs, task, traced_task, lib, rounds, setup_s) -> int:
    attempted = failed = 0
    records: list = []
    try:
        if args.trace:
            values, records, failed, done = traced_run(args, make_inputs, task, traced_task,
                                                       lib, rounds, args.seed)
            units = dict(per_layer_names())
            lines = [f"{name} = {values[name]:.6g} {unit}" for name, unit in units.items()]
            lines.insert(0, f"traced rounds = {done}")
        else:
            runner = Runner(lib, task)
            timed = run_rounds(rounds, runner, args.seconds)
            records, failed = timed.records, runner.errors
            values, lines = end_to_end(args, timed, setup_s)
            units = dict(END_TO_END)
            lines.insert(0, f"rounds = {timed.rounds}, tasks = {len(records)}, "
                            f"wall = {timed.wall:.3f} s, CPU = {timed.cpu:.3f} s")
            for rec, cpu, wall in zip(records, timed.latencies, timed.wall_latencies):
                rec["cpu_ms"], rec["wall_ms"] = cpu * 1000, wall * 1000
        attempted = len(records)
    except WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        emit(False, max(attempted, 1), failed, {}, {})
        return 1
    comp = composition(records)
    print(f"workload = {args.workload}, seed = {args.seed}, trace = {args.trace}")
    for line in lines:
        print(line)
    print("composition = " + json.dumps(comp))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "metrics": {k: [values[k], units[k]] for k in units}, "composition": comp,
         "tasks": records},
        indent=1) + "\n")
    emit(True, attempted, failed, values, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
