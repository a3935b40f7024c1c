"""The static race/deadlock verifier.

Given a loop and a scheme's compiled placement, unroll program order
plus sync arcs over a bounded iteration window (at least twice the
maximum dependence distance and at least the counter fold factor, so
every folding-induced pattern appears), run the happens-before fixpoint
(:mod:`repro.analyze.hbgraph`), and prove that every concrete
dependence instance of :class:`repro.depend.graph.DependenceGraph` is
enforced:

* a *flow*/*output* source (a write) is enforced when the next fence in
  the source's task -- which drains that task's posted writes into
  global visibility -- provably happens before the sink access;
* an *anti* source (a read) is enforced when the read itself provably
  happens before the conflicting write;
* instances inside one iteration are enforced by sequential execution
  (the engine forwards a task's own posted stores to its loads);
* under single-assignment renaming (the instance-based scheme) accesses
  that touch no common concrete address cannot conflict at all --
  covered by renaming.

An instance the fixpoint cannot order becomes a :class:`RaceFinding`
carrying the witness iteration pair; an unsatisfiable wait becomes a
:class:`DeadlockFinding` with the blocked-candidate cycle.  Unknown
dependence distances poison everything: the only sound placement is
serial execution, so the report says exactly that and refuses to
certify coverage (never "covered").
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..depend.graph import DependenceGraph
from ..depend.model import Loop
from ..schemes.base import InstrumentedLoop, SyncScheme
from ..sim.ops import Fence
from .findings import AnalysisReport, DeadlockFinding, RaceFinding
from .hbgraph import HBResult, find_unsatisfiable, solve
from .placement import AnalysisError, extract

__all__ = ["AnalysisError", "verify", "verify_instrumented",
           "choose_window"]

#: never analyze fewer iterations than this (keeps tiny loops honest)
_MIN_WINDOW = 4

#: report at most this many unsatisfiable waits as deadlock findings
_MAX_DEADLOCK_FINDINGS = 10

_DEP_TYPE = {("W", "R"): "flow", ("R", "W"): "anti",
             ("W", "W"): "output"}


def choose_window(loop: Loop, graph: DependenceGraph,
                  fold_factor: int = 1) -> int:
    """Iterations to unroll: >= 2 x max distance and >= the fold factor."""
    try:
        arcs = graph.sync_arcs()
    except ValueError:
        arcs = []
    max_distance = max((arc.distance for arc in arcs), default=0)
    window = max(2 * max_distance, fold_factor) + 2
    return max(_MIN_WINDOW, min(window, loop.n_iterations))


def verify(loop: Loop, scheme: SyncScheme, *,
           graph: Optional[DependenceGraph] = None,
           window: Optional[int] = None,
           app: str = "?") -> AnalysisReport:
    """Instrument ``loop`` with ``scheme`` and verify the placement."""
    graph = graph or DependenceGraph(loop)
    scheme_name = scheme.name or type(scheme).__name__
    if graph.has_unknown_distance:
        # answer before instrumenting: schemes refuse unknown-distance
        # arcs outright, but the verdict is the verifier's to give
        return AnalysisReport(
            app=app, scheme=scheme_name, window=0, requires_serial=True,
            stats={"reason": "unknown dependence distance: the only "
                             "sound placement is serial execution"})
    instrumented = scheme.instrument(loop, graph)
    return verify_instrumented(instrumented, window=window, app=app,
                               scheme_name=scheme_name)


def verify_instrumented(instrumented: InstrumentedLoop, *,
                        window: Optional[int] = None,
                        app: str = "?",
                        scheme_name: str = "?") -> AnalysisReport:
    """Verify an already-instrumented loop (mutants enter here)."""
    loop = instrumented.loop
    graph = instrumented.graph
    if graph.has_unknown_distance:
        return AnalysisReport(
            app=app, scheme=scheme_name, window=0, requires_serial=True,
            stats={"reason": "unknown dependence distance: the only "
                             "sound placement is serial execution"})
    fold = getattr(getattr(instrumented, "counters", None),
                   "n_counters", 1) or 1
    if window is None:
        window = choose_window(loop, graph, fold)
    window = min(window, len(instrumented.iterations))
    pids = list(instrumented.iterations[:window])

    placement = extract(instrumented, pids)
    hb = solve(placement)

    report = AnalysisReport(app=app, scheme=scheme_name, window=window)
    _find_deadlocks(hb, report)
    _check_coverage(instrumented, hb, report)
    report.stats.update({
        "nodes": len(placement.nodes),
        "fixpoint_passes": hb.passes,
        "waits": len(placement.wait_nodes),
        "sync_writes": sum(len(v) for v in placement.write_nodes.values()),
        "sync_updates": sum(len(v)
                            for v in placement.update_nodes.values()),
        "fold_factor": fold,
    })
    return report


def _find_deadlocks(hb: HBResult, report: AnalysisReport) -> None:
    nodes = hb.placement.nodes
    for unsat in find_unsatisfiable(hb)[:_MAX_DEADLOCK_FINDINGS]:
        node = nodes[unsat.nid]
        report.deadlocks.append(DeadlockFinding(
            lpid=node.task,
            reason=node.describe(),
            cycle=[nodes[b].describe() for b in unsat.blockers],
            detail=unsat.reason))


def _check_coverage(instrumented: InstrumentedLoop, hb: HBResult,
                    report: AnalysisReport) -> None:
    placement = hb.placement
    nodes = placement.nodes

    # (tag, kind) -> access node ids, for address matching
    regions: Dict[Tuple[Any, str], List[int]] = {}
    for (tag, kind, _addr), nids in placement.access_index.items():
        regions.setdefault((tag, kind), []).extend(nids)
    # task -> ordered Fence node ids (posted-write drains)
    fences: Dict[int, List[int]] = {
        pid: [nid for nid in placement.tasks[pid]
              if isinstance(nodes[nid].op, Fence)]
        for pid in placement.pids}

    # one race finding per dependence arc, not per instance
    seen_arcs: Dict[Tuple[str, str, str, int], bool] = {}
    checked = 0
    # same-iteration instances are enforced by sequential execution
    # in-process; the slice leaves them out
    for instance in instrumented.graph.window_instances(placement.pids):
        (src_sid, src_lpid), (dst_sid, dst_lpid), addr, src_kind, \
            dst_kind = instance
        dep_type = _DEP_TYPE[(src_kind, dst_kind)]
        arc_key = (src_sid, dst_sid, dep_type, dst_lpid - src_lpid)
        if seen_arcs.get(arc_key) is False:
            continue  # already reported with an earlier witness
        checked += 1
        problem = _instance_uncovered(
            instrumented, hb, fences, regions,
            (src_sid, src_lpid), (dst_sid, dst_lpid), addr,
            src_kind, dst_kind)
        seen_arcs[arc_key] = problem is None
        if problem is not None:
            report.races.append(RaceFinding(
                src_sid=src_sid, dst_sid=dst_sid, dep_type=dep_type,
                distance=dst_lpid - src_lpid, src_lpid=src_lpid,
                dst_lpid=dst_lpid, addr=list(addr), detail=problem))
    report.stats["instances_checked"] = checked


def _instance_uncovered(instrumented: InstrumentedLoop, hb: HBResult,
                        fences: Dict[int, List[int]],
                        regions: Dict[Tuple[Any, str], List[int]],
                        src_tag: Tuple[str, int],
                        dst_tag: Tuple[str, int], addr: Any,
                        src_kind: str, dst_kind: str) -> Optional[str]:
    """None when enforced, else a human-readable reason."""
    nodes = hb.placement.nodes
    src_nodes = regions.get((src_tag, src_kind), [])
    dst_nodes = regions.get((dst_tag, dst_kind), [])
    pairs = [(s, d) for s in src_nodes for d in dst_nodes
             if nodes[s].op.addr == nodes[d].op.addr]
    if not pairs:
        if instrumented.renames_storage:
            return None  # renamed apart: no common location, no conflict
        return (f"no matching access pair for {addr} between "
                f"{src_tag} and {dst_tag} (placement anomaly)")
    for s, d in pairs:
        if src_kind == "R":
            if not hb.happens_before(s, d):
                return (f"{nodes[s].describe()} not provably before "
                        f"{nodes[d].describe()}")
        else:
            # A write is only globally visible once the task's next
            # fence has drained it; order the fence before the sink.
            fence = _next_fence(fences, src_tag[1], s)
            if fence is None:
                return (f"{nodes[s].describe()} has no following fence: "
                        f"its posted write is never provably drained")
            if not hb.happens_before(fence, d):
                return (f"fence after {nodes[s].describe()} not "
                        f"provably before {nodes[d].describe()}")
    return None


def _next_fence(fences: Dict[int, List[int]], pid: int,
                nid: int) -> Optional[int]:
    for fence in fences.get(pid, ()):  # nids ascend in program order
        if fence > nid:
            return fence
    return None
