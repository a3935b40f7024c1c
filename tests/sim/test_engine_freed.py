"""A clean ``Machine.run`` leaves no cyclic garbage behind.

The engine is closed when its run returns, so reference counting alone
frees it: with the cycle collector off, a weak reference to the engine
is dead once the result is dropped, even while the instrumented loop
(which keeps its fabric) lives on, and a collection finds nothing.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.apps.kernels import fig21_loop
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim import Machine, MachineConfig
from repro.sim import machine as machine_module
from repro.sim.engine import Engine


@pytest.mark.parametrize("metrics", ["full", "counters"])
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_a_clean_run_frees_its_engine(monkeypatch, scheme_name, metrics):
    engines = []

    class Watched(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(weakref.ref(self))

    monkeypatch.setattr(machine_module, "Engine", Watched)
    instrumented = make_scheme(scheme_name).instrument(fig21_loop(16))
    machine = Machine(MachineConfig(processors=4, metrics=metrics,
                                    sync_tap=True))
    gc.collect()
    gc.disable()
    try:
        result = machine.run(instrumented)
        assert result.makespan > 0
        del result
        assert len(engines) == 1
        assert engines[0]() is None
        assert gc.collect() == 0  # and nothing else was left in a cycle
    finally:
        gc.enable()
