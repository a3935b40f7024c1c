"""Redundant-synchronization elimination, verified arc by arc.

Midkiff/Padua-style transitive reduction, but with the verifier as the
judge instead of a syntactic rule: an arc is redundant iff the placement
built *without* it still proves every dependence instance covered.
Program order, the remaining arcs, and scheme structure the syntactic
reductions cannot see (counter folding's ownership chain, cross-pair
transitivity through a third statement) all count, because the verifier
reasons about the compiled placement rather than the arc set.

The eliminator applies to the two arc-driven schemes
(statement-oriented and process-oriented): each candidate arc is
dropped greedily, farthest distance first, the loop is re-instrumented
from the reduced arc set (``arcs=`` on the scheme) and re-verified;
only arcs whose removal keeps the report clean stay dropped.  Cost
deltas come from :mod:`repro.compiler.cost_model` evaluated on the
before/after arc sets, and :func:`validate_elimination` replays both
placements on the simulator, checking both validate against the
sequential semantics and produce identical final array state.

The building blocks -- :func:`placement_arcs`, :func:`estimate_cost`
and the re-instrument-and-verify admission gate :func:`arc_gate` -- are
shared with :mod:`repro.analyze.optimize`, which replaces this module's
single greedy pass with a cost-model-guided search over (scheme
configuration, fold factor, arc subset).  The search and the
farthest-first baseline it runs share one verdict memo per call
(through the private ``_arc_gate`` and ``_eliminate``), so no placement
is verified twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..compiler.cost_model import (estimate_process_oriented,
                                   estimate_statement_oriented)
from ..depend.graph import DependenceGraph, SyncArc
from ..depend.model import Loop
from ..schemes.base import SyncScheme
from ..sim.machine import Machine, MachineConfig
from .findings import AnalysisReport, RedundantArc
from .verifier import AnalysisError, verify_instrumented

__all__ = ["ARC_SCHEMES", "EliminationResult", "placement_arcs",
           "estimate_cost", "arc_gate", "eliminate",
           "validate_elimination"]

#: schemes whose placement is driven by an explicit arc list
ARC_SCHEMES = ("statement-oriented", "process-oriented")

#: (configuration, ordered arc list) -> :func:`arc_gate`'s verdict
_Verdicts = Dict[Tuple[SyncScheme, Tuple[SyncArc, ...]], Any]


@dataclass
class EliminationResult:
    """Outcome of one elimination pass."""

    app: str
    scheme: str
    baseline: AnalysisReport
    kept: List[SyncArc] = field(default_factory=list)
    dropped: List[RedundantArc] = field(default_factory=list)
    #: analytic sync-op totals over the whole loop, before/after
    sync_ops_before: int = 0
    sync_ops_after: int = 0

    @property
    def arcs_before(self) -> int:
        return len(self.kept) + len(self.dropped)

    def summary(self) -> Dict[str, Any]:
        return {
            "sync_arcs": self.arcs_before,
            "sync_arcs_after": len(self.kept),
            "sync_ops_before": self.sync_ops_before,
            "sync_ops_after": self.sync_ops_after,
            "dropped": [f"{arc.src_sid}->{arc.dst_sid} "
                        f"(d={arc.distance})"
                        for arc in self.dropped],
        }


def placement_arcs(scheme: SyncScheme, instrumented: Any) -> List[SyncArc]:
    """The arc list an arc-driven scheme actually compiled in."""
    if scheme.name == "statement-oriented":
        return list(instrumented.arcs)
    return list(instrumented.plan.arcs)


def estimate_cost(scheme: SyncScheme, loop: Loop, graph: DependenceGraph,
                  arcs: List[SyncArc]):
    """Cost-model estimate of ``scheme`` compiled from ``arcs``."""
    if scheme.name == "statement-oriented":
        return estimate_statement_oriented(loop, graph, arcs=arcs)
    return estimate_process_oriented(
        loop, graph, n_counters=scheme.n_counters, arcs=arcs)


def _estimate_ops(scheme: SyncScheme, loop: Loop, graph: DependenceGraph,
                  arcs: List[SyncArc]) -> int:
    return estimate_cost(scheme, loop, graph, arcs).sync_ops


def arc_gate(loop: Loop, scheme: SyncScheme, graph: DependenceGraph,
             arcs: List[SyncArc], *, window: Optional[int],
             app: str) -> Optional[AnalysisReport]:
    """Re-instrument from ``arcs`` and statically verify the placement.

    The admission gate shared by the greedy eliminator and the
    cost-model-guided optimizer: returns the verifier's report, or
    ``None`` when the reduced plan is not even analyzable (which the
    callers treat as "keep the arc").
    """
    return _arc_gate({}, loop, scheme, graph, arcs, window=window, app=app)


def _arc_gate(verdicts: _Verdicts, loop: Loop, scheme: SyncScheme,
              graph: DependenceGraph, arcs: List[SyncArc], *,
              window: Optional[int], app: str) -> Optional[AnalysisReport]:
    """:func:`arc_gate`, judging each placement once per ``verdicts``
    (one memo per search: ``window`` and ``app`` never vary in it)."""
    key = (scheme, tuple(arcs))
    if key not in verdicts:
        try:
            candidate = scheme.instrument(loop, graph, arcs=arcs)
            verdicts[key] = verify_instrumented(
                candidate, window=window, app=app, scheme_name=scheme.name)
        except AnalysisError:
            verdicts[key] = None
    return verdicts[key]


def eliminate(loop: Loop, scheme: SyncScheme, *,
              graph: Optional[DependenceGraph] = None,
              app: str = "?",
              window: Optional[int] = None) -> EliminationResult:
    """Drop every arc the verifier proves redundant."""
    return _eliminate({}, loop, scheme, graph=graph, app=app, window=window)


def _eliminate(verdicts: _Verdicts, loop: Loop, scheme: SyncScheme, *,
               graph: Optional[DependenceGraph], app: str,
               window: Optional[int]) -> EliminationResult:
    """:func:`eliminate`, reading and filling the verdict memo.

    The default placement verifies exactly like one compiled from its
    own arc list; only an unanalyzable verdict is re-derived, to raise.
    """
    if scheme.name not in ARC_SCHEMES:
        raise AnalysisError(
            f"scheme {scheme.name!r} is not arc-driven; elimination "
            f"applies to {ARC_SCHEMES}")
    graph = graph or DependenceGraph(loop)
    instrumented = scheme.instrument(loop, graph)
    arcs = placement_arcs(scheme, instrumented)
    baseline = (_arc_gate(verdicts, loop, scheme, graph, arcs,
                          window=window, app=app)
                or verify_instrumented(instrumented, window=window,
                                       app=app, scheme_name=scheme.name))
    result = EliminationResult(app=app, scheme=scheme.name,
                               baseline=baseline, kept=list(arcs))
    result.sync_ops_before = _estimate_ops(scheme, loop, graph, arcs)
    if not baseline.clean:
        # Never "optimize" a placement that is already broken.
        result.sync_ops_after = result.sync_ops_before
        return result

    # Farthest-reaching arcs first: they are the ones transitivity
    # through shorter arcs (or the fold's ownership chain) can cover.
    for arc in sorted(arcs, key=lambda a: (-a.distance, a.src, a.dst)):
        trial = [kept for kept in result.kept if kept is not arc]
        report = _arc_gate(verdicts, loop, scheme, graph, trial,
                           window=window, app=app)
        if report is None:
            continue  # the reduced plan is not analyzable: keep the arc
        if report.clean:
            result.kept = trial
            result.dropped.append(RedundantArc(
                src_sid=arc.src, dst_sid=arc.dst, distance=arc.distance,
                detail="placement verifies clean without this arc"))
    result.sync_ops_after = _estimate_ops(scheme, loop, graph,
                                          result.kept)
    return result


def validate_elimination(loop: Loop, scheme: SyncScheme,
                         result: EliminationResult, *,
                         processors: int = 8,
                         schedule: str = "self") -> Dict[str, Any]:
    """Replay both placements; both must validate and agree exactly.

    Raises :class:`repro.sim.validate.ValidationError` (or lets a
    hazard escape) when either run diverges from the sequential
    semantics; raises :class:`AnalysisError` when the two final array
    states differ.
    """
    graph = DependenceGraph(loop)
    run_before, run_after = _replay(
        scheme.instrument(loop, graph),
        scheme.instrument(loop, graph, arcs=list(result.kept)),
        processors=processors, schedule=schedule, what="eliminated")
    return {
        "makespan_before": run_before.makespan,
        "makespan_after": run_after.makespan,
        "sync_ops_before": run_before.total_sync_ops,
        "sync_ops_after": run_after.total_sync_ops,
    }


def _replay(before: Any, after: Any, *, processors: int, schedule: str,
            what: str) -> Tuple[Any, Any]:
    """Run two placements on identical machines; both must validate
    and end in identical array state (:class:`AnalysisError` if not)."""
    machine = Machine(MachineConfig(processors=processors,
                                    schedule=schedule,
                                    record_trace=True))
    runs = []
    for placement in (before, after):
        runs.append(machine.run(placement))
        placement.validate(runs[-1])
    if (before.extract_final_state(runs[0])
            != after.extract_final_state(runs[1])):
        raise AnalysisError(
            f"{what} placement produced different final state")
    return runs[0], runs[1]
