"""The four workloads: untimed preparation, timed rounds, correctness.

Each workload runs in *rounds*.  A round sends the whole seeded grid
through the program once, from the same starting state (an empty cache,
or a fresh copy of the prefilled one), and is timed from the first
submission to the last result.  The benchmark repeats rounds until the
run has measured ``--seconds`` seconds and has enough latency samples
for p90, so every round of a run does identical work and every round's
outputs are checked against one reference.

The reference is computed before the first round, outside any timed
region: an in-process serial :func:`repro.lab.execute_cell` of every
cell (for sweep-incremental, a cold solo ``run_sweep`` of the union of
its jobs, which also writes the expected merged store).
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import pathlib
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro.analyze as analyze
import repro.lab as lab
from repro.lab.record import canonical_dumps
from repro.schemes import make_scheme
from repro.sim import Machine, MachineConfig

from . import grids, layers
from .spans import Patches, Span, SpanRecorder

#: pool workers: the host's cores, at most two
WORKERS = max(1, min(2, os.cpu_count() or 1))
#: a job that has not finished by then is a hang, not a measurement
JOB_TIMEOUT_S = 150.0


@dataclass
class RoundResult:
    """What one timed pass over the workload's grid produced."""

    wall_s: float
    items: int
    latencies_s: List[float]
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    worker_rss_kb: int = 0
    #: traced rounds only
    spans: List[Span] = field(default_factory=list)
    queue_s: List[float] = field(default_factory=list)
    overhead_s: List[float] = field(default_factory=list)
    shared: int = 0


def hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB; 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _wait_for_workers(count: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while len(multiprocessing.active_children()) < count:
        if time.monotonic() > deadline:
            raise RuntimeError(f"pool did not start {count} worker(s)")
        time.sleep(0.005)


class EventLog:
    """The ``on_event`` hook: stamps every sweep event as it is emitted."""

    def __init__(self) -> None:
        self.stamps: List[Tuple[float, lab.SweepEvent]] = []

    def __call__(self, event: lab.SweepEvent) -> None:
        self.stamps.append((time.perf_counter(), event))

    def timings(self) -> Tuple[List[float], Dict[Tuple[str, str], float],
                               List[float], int]:
        """(latencies, latency by (job, key) of dispatched cells,
        queue waits, cells served through another job's claim).

        A cell's latency runs from its ``cell-start`` to its
        ``cell-done`` or ``cell-shared``.  A cell served without being
        dispatched here has no ``cell-start``.  A cache hit is timed
        from its job's submission, which is how long the client waited
        for it.  A cell another job simulated is timed from the job's
        previous event: the job collects those one after another once
        its own cells are done, and from submission their latency would
        depend on where the other job happened to queue them.
        """
        latencies: List[float] = []
        dispatched: Dict[Tuple[str, str], float] = {}
        queue: List[float] = []
        shared = 0
        submitted: Dict[str, float] = {}
        last: Dict[str, float] = {}
        started: Dict[Tuple[str, str], float] = {}
        for stamp, event in sorted(self.stamps, key=lambda pair: pair[0]):
            job = event.job
            if isinstance(event, lab.JobSubmitted):
                submitted[job] = stamp
            elif isinstance(event, lab.CellStarted):
                if event.attempt == 1:
                    queue.append(stamp - submitted[job])
                started[(job, event.key)] = stamp
            elif isinstance(event, (lab.CellDone, lab.CellShared)):
                begin = started.pop((job, event.key), None)
                if begin is not None:
                    dispatched[(job, event.key)] = stamp - begin
                concurrent = (isinstance(event, lab.CellShared)
                              and event.via == "concurrent")
                if begin is None:
                    begin = last[job] if concurrent else submitted[job]
                latencies.append(stamp - begin)
                shared += concurrent
            last[job] = stamp
        return latencies, dispatched, queue, shared


def check_records(cells: Sequence[lab.SweepCell],
                  report: lab.SweepReport,
                  reference: Dict[str, dict]) -> Tuple[int, List[str]]:
    """Count cells whose record is missing, not ``ok``, or differs
    (canonical JSON) from the reference."""
    by_key = {record["key"]: record for record in report.records}
    failed, problems = 0, []
    for cell in cells:
        record = by_key.get(cell.key)
        if record is None:
            problem = "no record (quarantined or lost)"
        elif record.get("outcome") != "ok":
            problem = f"outcome {record.get('outcome')!r}"
        elif canonical_dumps(record) != canonical_dumps(reference[cell.key]):
            problem = "record differs from the serial reference"
        else:
            continue
        failed += 1
        problems.append(f"{cell.key}: {problem}")
    return failed, problems


def sweep_round(jobs: Sequence[Sequence[lab.SweepCell]],
                root: pathlib.Path, reference: Dict[str, dict], *,
                json_path: Optional[pathlib.Path] = None,
                recorder: Optional[SpanRecorder] = None) -> RoundResult:
    """Submit ``jobs`` from one thread to one fresh :class:`SweepService`.

    The service (and its pool) starts before the clock and closes after
    it, with its cache at ``root/cache``.  With a ``recorder`` the layer
    wrappers are installed before the pool forks, so the workers record
    spans too, into the spool ``root/spans``.
    """
    log = EventLog()
    options = lab.SweepOptions(procs=WORKERS, cache_dir=root / "cache",
                               json_path=json_path, on_event=log)
    patches = None
    if recorder is not None:
        recorder.spool = root / "spans"
        recorder.spool.mkdir()
        patches = layers.install(recorder)
    service = lab.SweepService(options)
    try:
        service.start()
        _wait_for_workers(WORKERS)
        start = time.perf_counter()
        handles = [service.submit(list(cells)) for cells in jobs]
        reports = [handle.result(timeout=JOB_TIMEOUT_S)
                   for handle in handles]
        wall = time.perf_counter() - start
        worker_rss = sum(hwm_kb(child.pid)
                         for child in multiprocessing.active_children())
    finally:
        service.close()
        if patches is not None:
            patches.undo()
    latencies, dispatched, queue, shared = log.timings()
    result = RoundResult(wall_s=wall, items=sum(len(c) for c in jobs),
                         latencies_s=latencies, worker_rss_kb=worker_rss,
                         shared=shared)
    for cells, report in zip(jobs, reports):
        failed, problems = check_records(cells, report, reference)
        result.failed += failed
        result.problems += problems
    if recorder is not None:
        result.spans = recorder.collect()
        result.queue_s = queue
        cell_s = {span.cell: span.end - span.start for span in result.spans
                  if span.name == "lab.execute_cell"}
        result.overhead_s = [latency - cell_s[key]
                             for (_job, key), latency in dispatched.items()
                             if key in cell_s]
    return result


class Workload:
    """One workload: its seeded inputs, reference, and round."""

    name = ""
    #: whether the program path reads the source fingerprint / cache
    uses_cache = True

    def __init__(self, seed: int, work: pathlib.Path) -> None:
        self.seed = seed
        self.work = work
        #: failures found while preparing (reference, replay)
        self.failed = 0
        self.problems: List[str] = []
        #: simulated makespan summed over the distinct items
        self.sim_makespan = 0
        #: replayed chosen / input placement; 1.0 where nothing is chosen
        self.opt_makespan_ratio = 1.0
        self.opt_sync_ops_ratio = 1.0
        #: the cost model's relative error against the replayed makespan
        #: (0: no optimizer on this path)
        self.cost_err = 0.0

    def prepare(self) -> None:
        """Untimed: build inputs and the reference outputs."""

    def run_round(self, index: int,
                  recorder: Optional[SpanRecorder]) -> RoundResult:
        """One timed pass over the grid; traced when given a recorder."""
        raise NotImplementedError

    def _round_dir(self, index: int) -> pathlib.Path:
        path = self.work / f"round-{index}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def serial_reference(cells: Sequence[lab.SweepCell]) -> Dict[str, dict]:
    """In-process serial :func:`repro.lab.execute_cell` of every cell."""
    return {cell.key: lab.execute_cell(cell.config(), cell.key)
            for cell in cells}


def makespan_of(records: Sequence[dict]) -> int:
    """Simulated makespan summed over the ok records."""
    return sum(record["metrics"]["makespan"] for record in records
               if record.get("outcome") == "ok")


class SweepCold(Workload):
    """~112 clean validated cells into an empty cache."""

    name = "sweep-cold"

    def prepare(self) -> None:
        self.cells = grids.sweep_cold_cells(self.seed)
        self.reference = serial_reference(self.cells)
        self.sim_makespan = makespan_of(list(self.reference.values()))

    def run_round(self, index, recorder):
        root = self._round_dir(index)
        try:
            return sweep_round([self.cells], root, self.reference,
                               recorder=recorder)
        finally:
            shutil.rmtree(root, ignore_errors=True)


class Optimize(SweepCold):
    """~84 ``eliminate=True`` cells; the optimizer does most of the work.

    Preparation also replays every chosen placement against its input
    placement (:func:`repro.analyze.validate_optimization`) for the
    optimizer-quality ratios and the cost model's error.
    """

    name = "optimize"

    def prepare(self) -> None:
        self.cells = grids.optimize_cells(self.seed)
        chosen: List[analyze.OptimizationReport] = []
        patches = Patches()
        # the package attribute ``repro.analyze.optimize`` is the
        # function, so the module is looked up by path
        patches.function(importlib.import_module("repro.analyze.optimize"),
                         "optimize",
                         lambda fn: _capture(fn, chosen))
        try:
            self.reference = {}
            reports = {}
            for cell in self.cells:
                chosen.clear()
                self.reference[cell.key] = lab.execute_cell(
                    cell.config(), cell.key)
                if chosen:
                    reports[cell.key] = chosen[-1]
        finally:
            patches.undo()
        self.sim_makespan = makespan_of(list(self.reference.values()))
        self._replay(reports)

    def _replay(self, reports: Dict[str, "analyze.OptimizationReport"]
                ) -> None:
        totals = {"makespan_before": 0, "makespan_after": 0,
                  "sync_ops_before": 0, "sync_ops_after": 0}
        predicted = replayed_at_target = 0.0
        for cell in self.cells:
            report = reports.get(cell.key)
            if report is None:
                self.failed += 1
                self.problems.append(f"{cell.key}: optimizer gave no "
                                     "placement")
                continue
            loop = lab.build_app(cell.app, dict(cell.app_params))
            try:
                payload = analyze.validate_optimization(
                    loop, make_scheme(cell.scheme), report,
                    processors=cell.processors)
            except (analyze.AnalysisError, ValueError) as err:
                self.failed += 1
                self.problems.append(f"{cell.key}: replay failed: {err}")
                continue
            for key in totals:
                totals[key] += payload[key]
            if cell.processors == OPTIMIZER_TARGET_P:
                predicted += report.predicted_cycles_after
                replayed_at_target += payload["makespan_after"]
        if totals["makespan_before"] and totals["sync_ops_before"]:
            self.opt_makespan_ratio = (totals["makespan_after"]
                                       / totals["makespan_before"])
            self.opt_sync_ops_ratio = (totals["sync_ops_after"]
                                       / totals["sync_ops_before"])
        if replayed_at_target:
            self.cost_err = (abs(predicted - replayed_at_target)
                             / replayed_at_target)


#: the processor count :func:`repro.analyze.optimize` plans for when a
#: sweep cell calls it; the cost model's error is taken at this P
OPTIMIZER_TARGET_P = 8


def _capture(fn, sink: list):
    def capturing(*args, **kwargs):
        report = fn(*args, **kwargs)
        sink.append(report)
        return report
    return capturing


class SweepIncremental(Workload):
    """Two overlapping jobs against the prefilled sweep-cold grid."""

    name = "sweep-incremental"

    def prepare(self) -> None:
        self.grid = grids.incremental_grid(self.seed)
        union = self.grid.union()
        self.solo_store = self.work / "solo.json"
        solo = lab.run_sweep(union, options=lab.SweepOptions(
            procs=1, cache_dir=None, json_path=self.solo_store))
        self.reference = {record["key"]: record for record in solo.records}
        for cell in union:
            if cell.key not in self.reference:
                self.failed += 1
                self.problems.append(f"{cell.key}: solo run lost the cell")
        self.sim_makespan = makespan_of(solo.records)
        self.prefilled = self.work / "prefilled"
        cache = lab.ResultCache(self.prefilled)
        for cell in self.grid.prefill:
            cache.store(cache.key_for(cell.config()),
                        self.reference[cell.key])

    def run_round(self, index, recorder):
        root = self._round_dir(index)
        shutil.copytree(self.prefilled, root / "cache")
        store = root / "store.json"
        try:
            result = sweep_round([self.grid.job_a, self.grid.job_b],
                                 root, self.reference,
                                 json_path=store, recorder=recorder)
            if store.read_bytes() != self.solo_store.read_bytes():
                result.failed += 1
                result.problems.append("merged store differs from the "
                                       "cold solo run of the union")
            return result
        finally:
            shutil.rmtree(root, ignore_errors=True)


class RaceCheck(Workload):
    """Serial in-process counters-mode runs, each race-checked.

    An item builds and instruments its loop, runs it with the sync tap in
    counters mode, and checks the trace; holding every instrumented loop
    across rounds would cost hundreds of megabytes.  Every round must
    reproduce the first round's makespan for each item.
    """

    name = "race-check"
    uses_cache = False

    def prepare(self) -> None:
        self.items = grids.race_items(self.seed)
        self.makespans: Dict[str, int] = {}

    def run_round(self, index, recorder):
        patches = layers.install(recorder) if recorder is not None else None
        try:
            return self._timed_items(recorder)
        finally:
            if patches is not None:
                patches.undo()

    def _timed_items(self, recorder: Optional[SpanRecorder]) -> RoundResult:
        out = RoundResult(wall_s=0.0, items=len(self.items), latencies_s=[])
        start = time.perf_counter()
        for item in self.items:
            begin = time.perf_counter()
            span = (recorder.open("bench.item", cell=item.key)
                    if recorder is not None else None)
            loop = lab.build_app(item.app, {"n": item.n})
            instrumented = make_scheme(item.scheme).instrument(loop)
            machine = Machine(MachineConfig(processors=item.processors,
                                            metrics="counters",
                                            sync_tap=True))
            result = machine.run(instrumented)
            races = analyze.check_trace(result)
            if span is not None:
                recorder.close(span)
            out.latencies_s.append(time.perf_counter() - begin)
            expected = self.makespans.setdefault(item.key, result.makespan)
            if races or result.makespan != expected:
                out.failed += 1
                out.problems.append(
                    f"{item.key}: {len(races)} race(s) on a shipped "
                    f"placement, makespan {result.makespan} "
                    f"(first round: {expected})")
        out.wall_s = time.perf_counter() - start
        self.sim_makespan = sum(self.makespans.values())
        if recorder is not None:
            out.spans = recorder.collect()
        return out


WORKLOADS = {cls.name: cls for cls in (SweepCold, Optimize,
                                       SweepIncremental, RaceCheck)}
