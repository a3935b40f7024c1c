"""Iteration op streams compile on first use, once, until recompile().

Instrumenting a loop compiles nothing; a run or a verifier dry run
compiles exactly the iterations it starts, each once, and every later
use reads the cache.  ``recompile()`` empties that cache, so a mutation
of scheme state followed by ``recompile()`` shows in the next use.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.analyze import verify_instrumented
from repro.apps.kernels import fig21_loop
from repro.core.codegen import StatementPlan, SyncPlan
from repro.depend.model import Loop, Statement, ref1
from repro.schemes.base import InstrumentedLoop
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim import Machine, MachineConfig, ValidationError


@pytest.fixture
def compiles(monkeypatch) -> List[Tuple[int, int]]:
    """(id of the instrumented loop, pid) per stream compilation."""
    calls: List[Tuple[int, int]] = []
    for cls in InstrumentedLoop.__subclasses__():
        original = cls._compile

        def counting(self, pid, _original=original):
            calls.append((id(self), pid))
            return _original(self, pid)

        monkeypatch.setattr(cls, "_compile", counting)
    return calls


def _machine() -> Machine:
    return Machine(MachineConfig(processors=4, record_trace=True))


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_instrument_compiles_no_stream(compiles, scheme_name):
    make_scheme(scheme_name).instrument(fig21_loop(24))
    assert compiles == []


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_verifier_window_compiles_exactly_its_window(compiles,
                                                     scheme_name):
    instrumented = make_scheme(scheme_name).instrument(fig21_loop(24))
    verify_instrumented(instrumented, window=5)
    assert compiles == [(id(instrumented), pid)
                        for pid in instrumented.iterations[:5]]
    compiles.clear()
    verify_instrumented(instrumented, window=5)
    assert compiles == []  # served from the cache


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_a_run_compiles_each_iteration_once(compiles, scheme_name):
    instrumented = make_scheme(scheme_name).instrument(fig21_loop(24))
    result = _machine().run(instrumented)
    instrumented.validate(result)
    assert sorted(pid for _loop, pid in compiles) == \
        sorted(instrumented.iterations)
    compiles.clear()
    _machine().run(instrumented)
    assert compiles == []


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_recompile_empties_the_cache(compiles, scheme_name):
    instrumented = make_scheme(scheme_name).instrument(fig21_loop(24))
    verify_instrumented(instrumented, window=4)
    instrumented.recompile()
    compiles.clear()
    verify_instrumented(instrumented, window=4)
    assert len(compiles) == 4


def test_plan_mutation_after_recompile_is_honoured():
    """Process-oriented: strip every wait from a plan that already ran."""
    instrumented = make_scheme("process-oriented").instrument(
        fig21_loop(24))
    assert verify_instrumented(instrumented).clean
    _machine().run(instrumented)  # every stream compiled and cached
    plan = instrumented.plan
    instrumented.plan = SyncPlan(
        loop=plan.loop, arcs=plan.arcs,
        statements=[StatementPlan(sid=p.sid, waits=(),
                                  source_step=p.source_step,
                                  is_last_source=p.is_last_source)
                    for p in plan.statements],
        step_of=plan.step_of, n_sources=plan.n_sources)
    assert verify_instrumented(instrumented).clean  # stale cache
    instrumented.recompile()
    assert not verify_instrumented(instrumented).clean


def test_arc_mutation_after_recompile_is_honoured():
    """Statement-oriented: drop every Await from a loop that already ran.

    The sink (S1) precedes its source (S3) textually, so without its
    Await S1 reads B[i-1] before iteration i-1 has written it.
    """
    body = [Statement("S1", reads=(ref1("B", 1, -1),), cost=1),
            Statement("S2", writes=(ref1("C", 1, 0),), cost=40),
            Statement("S3", writes=(ref1("B", 1, 0),), cost=1)]
    instrumented = make_scheme("statement-oriented").instrument(
        Loop("racy", bounds=((1, 24),), body=body))
    machine = _machine()
    instrumented.validate(machine.run(instrumented))
    instrumented.arcs = []
    instrumented.recompile()
    assert not verify_instrumented(instrumented).clean
    with pytest.raises(ValidationError):
        instrumented.validate(machine.run(instrumented))
