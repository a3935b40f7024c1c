"""Run one perfbench workload and print its metrics (see ``run.py``)."""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro.lab.cache import source_fingerprint

from . import grids
from .layers import LAYER_METRICS, HostSide, layer_metrics
from .spans import SpanRecorder
from .stats import min_samples, percentile
from .workloads import WORKLOADS, hwm_kb

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: cold starts per run; ``setup_s`` is their median
SETUP_PROBES = 5
#: fingerprint timings per traced run; the row is their median
FINGERPRINT_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_ms_p50": "ms",
    "cell_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "sim_makespan_kcycles": "kcycles",
    "opt_makespan_ratio": "ratio",
    "opt_sync_ops_ratio": "ratio",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    """The command line the benchmark contract fixes."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="grid seed (default: grids.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(kind: str, work: pathlib.Path) -> Tuple[float, List[float]]:
    """Median spawn-to-ready time of fresh program processes."""
    times = []
    for index in range(SETUP_PROBES):
        cache = work / f"probe-{index}"
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), kind,
             str(cache)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=ROOT)
        try:
            line = child.stdout.readline().strip()
            times.append(time.perf_counter() - start)
        finally:
            child.stdin.close()
            child.wait(timeout=60)
            child.stdout.close()
        if line != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({line!r}, exit "
                               f"{child.returncode})")
        shutil.rmtree(cache, ignore_errors=True)
    return statistics.median(times), times


def measure(workload, seconds: float, min_latencies: int) -> List:
    """Untraced rounds until ``seconds`` are measured and p90 is backed."""
    rounds = []
    while (sum(r.wall_s for r in rounds) < seconds
           or sum(len(r.latencies_s) for r in rounds) < min_latencies):
        rounds.append(workload.run_round(len(rounds), None))
    return rounds


def failed_items(workload, rounds) -> int:
    """Items that failed a check, in preparation or in any round."""
    return sum(r.failed for r in rounds) + workload.failed


def end_to_end(workload, rounds, setup_s: float, peak_kb: int,
               failed: int) -> Dict[str, float]:
    """Every end-to-end metric from the untimed figures and the rounds."""
    latencies = [value for r in rounds for value in r.latencies_s]
    attempted = sum(r.items for r in rounds)
    return {
        "setup_s": setup_s,
        "cells_per_s": statistics.median(r.items / r.wall_s
                                         for r in rounds),
        "cell_ms_p50": 1000.0 * percentile(latencies, 0.5),
        "cell_ms_p90": 1000.0 * percentile(latencies, 0.9),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": max(0.0, 1.0 - failed / attempted),
        "sim_makespan_kcycles": workload.sim_makespan / 1000.0,
        "opt_makespan_ratio": workload.opt_makespan_ratio,
        "opt_sync_ops_ratio": workload.opt_sync_ops_ratio,
    }


def traced_run(workload, seconds: float):
    """Alternate untraced and traced rounds.

    Returns every round, the traced rounds' spans, and the per-layer
    rows computed from them.
    """
    host = HostSide(cost_err=workload.cost_err)
    if workload.uses_cache:
        times = []
        for _ in range(FINGERPRINT_REPEATS):
            start = time.perf_counter()
            source_fingerprint(refresh=True)
            times.append(time.perf_counter() - start)
        host.fingerprint_s = statistics.median(times)
    untraced, traced = [], []
    while not traced or sum(r.wall_s for r in untraced + traced) < seconds:
        untraced.append(workload.run_round(2 * len(traced), None))
        traced.append(workload.run_round(2 * len(traced) + 1,
                                         SpanRecorder()))
    spans = [span for r in traced for span in r.spans]
    items = sum(r.items for r in traced)
    host.queue_s = [value for r in traced for value in r.queue_s]
    host.overhead_s = [value for r in traced for value in r.overhead_s]
    host.shared_per_round = sum(r.shared for r in traced) / len(traced)
    per_item_traced = sum(r.wall_s for r in traced) / items
    per_item_plain = (sum(r.wall_s for r in untraced)
                      / sum(r.items for r in untraced))
    host.trace_overhead_pct = 100.0 * (per_item_traced / per_item_plain - 1)
    return untraced + traced, spans, layer_metrics(spans, items, host)


def main(argv: List[str]) -> int:
    """Run one workload; the last line printed is the JSON result."""
    args = parse_args(argv)
    seed = grids.DEFAULT_SEED if args.seed is None else args.seed
    work = pathlib.Path.cwd() / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](seed, work)
        if args.trace:
            workload.prepare()
            rounds, spans, values = traced_run(workload, args.seconds)
            units = dict(LAYER_METRICS)
            name = f"spans-{args.workload}-seed{seed}.jsonl"
            span_file = work.parent / name
            span_file.write_text("".join(json.dumps(span.to_json()) + "\n"
                                         for span in spans))
            print(f"{len(spans)} span(s) written to {span_file}")
        else:
            setup_s, probes = setup_seconds(
                "sweep" if workload.uses_cache else "race", work)
            workload.prepare()
            rounds = measure(workload, args.seconds, min_samples(0.9))
            peak_kb = hwm_kb(os.getpid()) + max(r.worker_rss_kb
                                                for r in rounds)
            values = end_to_end(workload, rounds, setup_s, peak_kb,
                                failed_items(workload, rounds))
            units = END_TO_END_UNITS
            print("set-up probes (s): "
                  + " ".join(f"{t:.3f}" for t in probes))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r.items for r in rounds)
    failed = failed_items(workload, rounds)
    problems = workload.problems + [p for r in rounds for p in r.problems]
    samples = sum(len(r.latencies_s) for r in rounds)
    print(f"{args.workload} seed={seed} trace={args.trace}: "
          f"{len(rounds)} round(s), {attempted} item(s), "
          f"{samples} latency sample(s), {failed} failed")
    print("  items/s by round: " + " ".join(
        f"{r.items / r.wall_s:.2f}" for r in rounds))
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0
