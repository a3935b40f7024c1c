"""The layer wrappers on real cells: rows move only where a layer runs."""

import repro.lab as lab
from repro.sim.machine import Machine

from perfbench import layers
from perfbench.layers import HostSide, layer_metrics
from perfbench.spans import SpanRecorder


def _traced_rows(cell):
    recorder = SpanRecorder()
    patches = layers.install(recorder)
    try:
        record = lab.execute_cell(cell.config(), cell.key)
    finally:
        patches.undo()
    assert record["outcome"] == "ok"
    return layer_metrics(recorder.collect(), items=1, host=HostSide())


def _cell(**overrides):
    fields = dict(app="fig2.1", app_params=(("n", 24),),
                  scheme="statement-oriented", processors=4)
    fields.update(overrides)
    return lab.SweepCell(**fields)


def test_a_plain_cell_bypasses_analyze_and_the_cost_model():
    rows = _traced_rows(_cell())
    assert rows["sim.run_ms"] > 0
    assert rows["sim.events"] > 0
    assert rows["schemes.instrument_ms"] > 0
    assert rows["sim.validate_ms"] > 0
    for name, value in rows.items():
        if name.startswith(("analyze.", "compiler.")):
            assert value == 0.0, name


def test_an_eliminate_cell_runs_the_optimizer():
    rows = _traced_rows(_cell(eliminate=True))
    assert rows["analyze.optimize_trials"] > 0
    assert rows["analyze.verify_calls"] > 0
    assert rows["compiler.cost_calls"] > 0
    assert rows["analyze.check_trace_ms"] > 0


def test_undo_restores_every_entry_point():
    run = Machine.run
    execute_cell = lab.execute_cell
    patches = layers.install(SpanRecorder())
    assert Machine.run is not run
    assert lab.execute_cell is not execute_cell
    patches.undo()
    assert Machine.run is run
    assert lab.execute_cell is execute_cell
