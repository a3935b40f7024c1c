"""The engine's lightweight sync tap: the sanitizer's counters-mode feed.

The tap appends ``(kind, where, task)`` at exactly the program points
where the trace recorder allocates ``seq`` numbers, so in a full-trace
run the enumerated tap reproduces the merged trace/sync_trace stream
index for index -- and in counters mode it exists where the trace does
not, which is what lets the race check scale to fig3.x-sized runs.
"""

from __future__ import annotations

import dataclasses

from repro.analyze.sanitizer import check_trace, event_stream
from repro.lab.apps import build_app
from repro.schemes.registry import make_scheme
from repro.sim import Machine, MachineConfig


def _run(metrics, record_trace, sync_tap, n=16):
    loop = build_app("fig2.1", {"n": n})
    instrumented = make_scheme("statement-oriented").instrument(loop)
    machine = Machine(MachineConfig(
        processors=4, metrics=metrics, record_trace=record_trace,
        sync_tap=sync_tap))
    return machine.run(instrumented)


def test_tap_off_by_default():
    result = _run(metrics="full", record_trace=True, sync_tap=False)
    assert result.tap is None


def test_counters_mode_tap_feeds_the_sanitizer():
    """No trace, no sync_trace -- yet the stream exists and checks."""
    result = _run(metrics="counters", record_trace=False, sync_tap=True)
    assert not result.trace and not result.sync_trace
    assert result.tap, "tap must record in counters mode"
    events = event_stream(result)
    assert events, "harness filtering must not empty a real run"
    assert check_trace(result) == []


def test_tap_reproduces_the_merged_trace_stream():
    """Full-trace run: enumerate(tap) == merge(trace, sync_trace)."""
    result = _run(metrics="full", record_trace=True, sync_tap=True)
    assert result.trace and result.sync_trace and result.tap
    via_tap = event_stream(result)
    via_trace = event_stream(dataclasses.replace(result, tap=None))
    assert via_tap == via_trace


def test_tap_streams_agree_across_modes():
    """Counters-mode tap == full-mode tap for the same config."""
    full = _run(metrics="full", record_trace=True, sync_tap=True)
    counters = _run(metrics="counters", record_trace=False, sync_tap=True)
    assert full.tap == counters.tap


def test_tap_does_not_perturb_results():
    """Same trace, memory, and sync-op counts with and without the tap."""
    plain = _run(metrics="full", record_trace=True, sync_tap=False)
    tapped = _run(metrics="full", record_trace=True, sync_tap=True)
    assert plain.trace == tapped.trace
    assert plain.final_memory == tapped.final_memory
    assert plain.makespan == tapped.makespan
    assert plain.total_sync_ops == tapped.total_sync_ops
