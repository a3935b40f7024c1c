"""The benchmark's own arithmetic: percentiles, self time, zero rows."""

import pytest

from perfbench.layers import LAYER_METRICS, HostSide, layer_metrics
from perfbench.spans import Span, SpanRecorder, outermost, self_times, wrap
from perfbench.stats import MIN_BEYOND, min_samples, percentile


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(range(99), 0.9) is None
    assert percentile(range(100), 0.9) == 89
    assert min_samples(0.9) == 100
    ordered = sorted(range(100))
    value = percentile(ordered, 0.9)
    assert sum(1 for sample in ordered if sample > value) == MIN_BEYOND


def test_p50_needs_twenty_samples():
    assert percentile(range(19), 0.5) is None
    assert percentile(range(20), 0.5) == 9
    assert min_samples(0.5) == 20


def test_percentile_sorts_its_input():
    assert percentile(list(reversed(range(100))), 0.9) == 89


def test_percentile_rejects_a_bad_quantile():
    with pytest.raises(ValueError):
        percentile(range(100), 1.0)


def _span(id, parent, name, start, end, **counts):
    return Span(id=id, parent=parent, name=name, cell="c", start=start,
                end=end, counts=counts)


def test_self_time_subtracts_children_once():
    spans = [
        _span("a", None, "outer", 0.0, 10.0),
        # two children that overlap (as spans from two threads can)
        _span("b", "a", "inner", 1.0, 3.0),
        _span("c", "a", "inner", 2.0, 5.0),
        # a grandchild is charged to its parent, not to "outer"
        _span("d", "c", "leaf", 2.5, 3.5),
    ]
    selfs = self_times(spans)
    assert selfs["outer"] == pytest.approx(10.0 - 4.0)
    assert selfs["inner"] == pytest.approx(2.0 + 3.0 - 1.0)
    assert selfs["leaf"] == pytest.approx(1.0)


def test_self_time_clips_children_to_the_parent():
    spans = [_span("a", None, "outer", 0.0, 2.0),
             _span("b", "a", "inner", 1.0, 4.0)]
    assert self_times(spans)["outer"] == pytest.approx(1.0)


def test_outermost_skips_nested_calls_of_the_same_layer():
    spans = [_span("a", None, "analyze.verify", 0.0, 4.0),
             _span("b", "a", "schemes.instrument", 0.5, 3.0),
             _span("c", "b", "analyze.verify", 1.0, 2.0),
             _span("d", None, "analyze.verify", 5.0, 6.0)]
    assert [span.id for span in outermost(spans, "analyze.verify")] == \
        ["a", "d"]


def test_recorder_links_parents_and_inherits_the_cell():
    recorder = SpanRecorder()

    def leaf():
        return 7

    traced_leaf = wrap(recorder, leaf, "leaf",
                       counter=lambda args, kwargs, result: {"n": result})

    def top(key):
        return traced_leaf()

    traced_top = wrap(recorder, top, "top",
                      cell_of=lambda args, kwargs: args[0])
    assert traced_top("cell-1") == 7
    spans = {span.name: span for span in recorder.collect()}
    assert spans["leaf"].parent == spans["top"].id
    assert spans["leaf"].cell == spans["top"].cell == "cell-1"
    assert spans["leaf"].counts == {"n": 7}
    assert spans["top"].start <= spans["leaf"].start
    assert spans["leaf"].end <= spans["top"].end


def test_every_row_is_present_and_bypassed_layers_read_zero():
    # a sweep-cold cell's layers: no analyze, compiler or merge spans
    spans = [
        _span("w", None, "lab.execute_cell", 0.0, 0.010),
        _span("x", "w", "schemes.instrument", 0.001, 0.003),
        _span("y", "w", "sim.run", 0.003, 0.008, events=500, sync_ops=40),
        _span("z", None, "lab.cache.store", 0.010, 0.011),
    ]
    rows = layer_metrics(spans, items=1, host=HostSide())
    assert list(rows) == [name for name, _unit in LAYER_METRICS]
    for name in rows:
        if name.startswith(("analyze.", "compiler.", "lab.record.")):
            assert rows[name] == 0.0, name
    assert rows["sim.run_ms"] == pytest.approx(5.0)
    assert rows["sim.events"] == 500
    assert rows["sim.events_per_s"] == pytest.approx(500 / 0.005)
    assert rows["schemes.sync_ops"] == 40
    assert rows["lab.cache.store_ms"] == pytest.approx(1.0)
    assert rows["lab.cache.hit_ratio"] == 0.0


def test_rows_are_per_item():
    spans = [_span(str(i), None, "sim.run", i, i + 0.002, events=100)
             for i in range(4)]
    rows = layer_metrics(spans, items=4, host=HostSide())
    assert rows["sim.run_ms"] == pytest.approx(2.0)
    assert rows["sim.events"] == 100


def test_event_log_times_each_kind_of_cell():
    import repro.lab as lab
    from perfbench.workloads import EventLog

    log = EventLog()
    log.stamps = [
        (10.0, lab.JobSubmitted(job="a", spec="cells", cells=3)),
        (10.5, lab.CellShared(job="a", key="hit", via="cache")),
        (11.0, lab.CellStarted(job="a", key="run")),
        (13.0, lab.CellDone(job="a", key="run")),
        (13.2, lab.CellShared(job="a", key="theirs", via="concurrent")),
    ]
    latencies, dispatched, queue, shared = log.timings()
    # a hit from submission, a run from its start, a cell another job
    # simulated from the job's previous event
    assert latencies == pytest.approx([0.5, 2.0, 0.2])
    assert dispatched == {("a", "run"): pytest.approx(2.0)}
    assert queue == pytest.approx([1.0])
    assert shared == 1
