"""The per-layer metrics: which entry points are wrapped, and the arithmetic.

:func:`install` wraps each layer's public entry points in spans;
:func:`layer_metrics` turns the spans of a traced run (plus a few
benchmark-side measurements) into the per-layer rows.  Every row is
always present: a layer the workload bypasses reads zero.
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

# imported for its side effect: ``repro`` does not load ``analyze``
# itself, and :meth:`Patches.function` rebinds only loaded modules
import repro.analyze  # noqa: F401
from repro.depend.graph import DependenceGraph
from repro.lab.cache import ResultCache
from repro.schemes.base import InstrumentedLoop, SyncScheme
from repro.sim.machine import Machine

from .spans import Patches, Span, SpanRecorder, outermost, self_times, wrap

#: (metric name, unit) for every per-layer row, in report order
LAYER_METRICS = (
    ("apps.build_ms", "ms"),
    ("depend.graph_ms", "ms"),
    ("depend.instances_calls", "count"),
    ("depend.instances_ms", "ms"),
    ("schemes.instrument_ms", "ms"),
    ("schemes.sync_ops", "count"),
    ("sim.run_ms", "ms"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.validate_ms", "ms"),
    ("compiler.cost_ms", "ms"),
    ("compiler.cost_calls", "count"),
    ("compiler.cost_err", "ratio"),
    ("analyze.optimize_ms", "ms"),
    ("analyze.optimize_trials", "count"),
    ("analyze.verify_ms", "ms"),
    ("analyze.verify_calls", "count"),
    ("analyze.eliminate_ms", "ms"),
    ("analyze.dynamic_check_ms", "ms"),
    ("analyze.check_trace_ms", "ms"),
    ("analyze.check_events_per_s", "1/s"),
    ("lab.cache.fingerprint_ms", "ms"),
    ("lab.cache.load_ms", "ms"),
    ("lab.cache.hit_ratio", "ratio"),
    ("lab.cache.store_ms", "ms"),
    ("lab.record.merge_ms", "ms"),
    ("lab.executor.queue_ms", "ms"),
    ("lab.executor.overhead_ms", "ms"),
    ("lab.service.shared", "count"),
    ("trace.overhead_pct", "%"),
)

#: span name -> per-item self-time row
_SELF_TIME_ROWS = {
    "apps.build": "apps.build_ms",
    "depend.graph": "depend.graph_ms",
    "depend.instances": "depend.instances_ms",
    "schemes.instrument": "schemes.instrument_ms",
    "sim.run": "sim.run_ms",
    "sim.validate": "sim.validate_ms",
    "compiler.cost": "compiler.cost_ms",
    "analyze.optimize": "analyze.optimize_ms",
    "analyze.verify": "analyze.verify_ms",
    "analyze.eliminate": "analyze.eliminate_ms",
    "analyze.dynamic_check": "analyze.dynamic_check_ms",
    "analyze.check_trace": "analyze.check_trace_ms",
    "lab.cache.load": "lab.cache.load_ms",
    "lab.cache.store": "lab.cache.store_ms",
    "lab.record.merge": "lab.record.merge_ms",
}

#: span name -> per-item call-count row (outermost calls only)
_CALL_ROWS = {
    "depend.instances": "depend.instances_calls",
    "compiler.cost": "compiler.cost_calls",
    "analyze.verify": "analyze.verify_calls",
}

_COST_FUNCTIONS = ("estimate_reference_based", "estimate_instance_based",
                   "estimate_statement_oriented",
                   "estimate_process_oriented", "estimate_all")


def _run_counts(args, _kwargs, result) -> Dict[str, float]:
    machine = args[0]
    return {"events": machine.last_run_info.get("events_processed", 0),
            "sync_ops": result.total_sync_ops}


def _tap_events(args, kwargs, _result) -> Dict[str, float]:
    run = args[0] if args else kwargs["result"]
    return {"events": len(run.tap or ()) or len(run.trace)
            + len(run.sync_trace)}


def _trials(_args, _kwargs, report) -> Dict[str, float]:
    return {"trials": len(report.audit)}


def _load_hit(args, kwargs, record) -> Dict[str, float]:
    if not kwargs.get("count", True):
        return {}
    return {"hit": 1.0 if record is not None else 0.0, "lookup": 1.0}


def _cell_key(args, kwargs) -> Optional[str]:
    return kwargs.get("key") or (args[1] if len(args) > 1 else None)


def _cache_key(args, _kwargs) -> Optional[str]:
    return args[1] if len(args) > 1 else None


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every layer's entry points; returns the patches to undo."""
    patches = Patches()

    def span(name, **options):
        return lambda fn: wrap(recorder, fn, name, **options)

    # by module path: ``repro.analyze.optimize`` the attribute is the
    # function the package re-exports, not the module
    def module(path):
        return importlib.import_module(f"repro.{path}")

    patches.function(module("lab.apps"), "build_app", span("apps.build"))
    patches.method(DependenceGraph, "__init__", span("depend.graph"))
    patches.method(DependenceGraph, "dependence_instances",
                   span("depend.instances"))
    for scheme in _subclasses(SyncScheme):
        if "instrument" in scheme.__dict__:
            patches.method(scheme, "instrument",
                           span("schemes.instrument"))
    patches.method(Machine, "run", span("sim.run", counter=_run_counts))
    for loop_class in _subclasses(InstrumentedLoop):
        if "validate" in loop_class.__dict__:
            patches.method(loop_class, "validate", span("sim.validate"))
    for name in _COST_FUNCTIONS:
        patches.function(module("compiler.cost_model"), name,
                         span("compiler.cost"))
    patches.function(module("analyze.optimize"), "optimize",
                     span("analyze.optimize", counter=_trials))
    patches.function(module("analyze.verifier"), "verify_instrumented",
                     span("analyze.verify"))
    patches.function(module("analyze.eliminate"), "eliminate",
                     span("analyze.eliminate"))
    patches.function(module("analyze.sanitizer"), "dynamic_check",
                     span("analyze.dynamic_check"))
    patches.function(module("analyze.sanitizer"), "check_trace",
                     span("analyze.check_trace", counter=_tap_events))
    patches.function(module("lab.cache"), "source_fingerprint",
                     span("lab.cache.fingerprint"))
    patches.method(ResultCache, "load",
                   span("lab.cache.load", counter=_load_hit,
                        cell_of=_cache_key))
    patches.method(ResultCache, "store",
                   span("lab.cache.store", cell_of=_cache_key))
    patches.function(module("lab.record"), "merge_records",
                     span("lab.record.merge"))
    patches.function(module("lab.runner"), "execute_cell",
                     span("lab.execute_cell", cell_of=_cell_key,
                          flush=True))
    return patches


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every class derived from it, each once."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return list(dict.fromkeys(out))


@dataclass
class HostSide:
    """Per-layer figures measured by the benchmark, not from spans."""

    #: median ``source_fingerprint`` time, seconds (0: cache bypassed)
    fingerprint_s: float = 0.0
    #: per dispatched cell: cell-start minus job submit, seconds
    queue_s: List[float] = field(default_factory=list)
    #: per dispatched cell: latency minus its execute_cell span, seconds
    overhead_s: List[float] = field(default_factory=list)
    #: cells served through another job's claim, per traced round
    shared_per_round: float = 0.0
    #: |predicted - replayed| / replayed cycles of the optimizer's choices
    cost_err: float = 0.0
    #: traced minus untraced wall time per item, percent
    trace_overhead_pct: float = 0.0


def layer_metrics(spans: Sequence[Span], items: int,
                  host: HostSide) -> Dict[str, float]:
    """Every per-layer row from one traced run over ``items`` items.

    Times and counts are per item (self time summed over the traced
    run, divided by ``items``); rates are totals over totals.
    """
    per = 1.0 / max(1, items)
    selfs = self_times(spans)
    rows: Dict[str, float] = {name: 0.0 for name, _unit in LAYER_METRICS}
    for span_name, row in _SELF_TIME_ROWS.items():
        rows[row] = 1000.0 * selfs.get(span_name, 0.0) * per
    for span_name, row in _CALL_ROWS.items():
        rows[row] = len(outermost(spans, span_name)) * per

    def total(name: str, count: str) -> float:
        return sum(span.counts.get(count, 0.0) for span in spans
                   if span.name == name)

    events = total("sim.run", "events")
    rows["sim.events"] = events * per
    rows["schemes.sync_ops"] = total("sim.run", "sync_ops") * per
    run_s = selfs.get("sim.run", 0.0)
    rows["sim.events_per_s"] = events / run_s if run_s else 0.0
    checked = total("analyze.check_trace", "events")
    check_s = selfs.get("analyze.check_trace", 0.0)
    rows["analyze.check_events_per_s"] = checked / check_s if check_s \
        else 0.0
    rows["analyze.optimize_trials"] = sum(
        span.counts.get("trials", 0.0)
        for span in outermost(spans, "analyze.optimize")) * per
    lookups = total("lab.cache.load", "lookup")
    rows["lab.cache.hit_ratio"] = (total("lab.cache.load", "hit") / lookups
                                   if lookups else 0.0)
    rows["lab.cache.fingerprint_ms"] = 1000.0 * host.fingerprint_s
    rows["lab.executor.queue_ms"] = 1000.0 * _median(host.queue_s)
    rows["lab.executor.overhead_ms"] = 1000.0 * _median(host.overhead_s)
    rows["lab.service.shared"] = host.shared_per_round
    rows["compiler.cost_err"] = host.cost_err
    rows["trace.overhead_pct"] = host.trace_overhead_pct
    return rows


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
