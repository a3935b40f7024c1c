"""One loop body per scheme: per-statement templates, bound as ops issue.

Each instrumented loop builds its statement templates once, on first
use, and every process of every run binds them to its own iteration as
it yields ops: instrumenting builds nothing, a verifier dry run touches
only its window's iterations, and no per-iteration op outlives a run.
``recompile()`` drops the templates, so a mutation of scheme state
followed by ``recompile()`` shows in the next use.
"""

from __future__ import annotations

import gc
import types
from typing import List, Tuple

import pytest

from repro.analyze import verify_instrumented
from repro.apps.kernels import fig21_loop
from repro.core.codegen import StatementPlan, SyncPlan
from repro.depend.model import Loop, Statement, ref1
from repro.schemes.base import InstrumentedLoop, StatementTemplate
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim import Machine, MachineConfig, ValidationError
from repro.sim.ops import Operation


@pytest.fixture
def builds(monkeypatch) -> List[int]:
    """id of the instrumented loop, once per template build."""
    calls: List[int] = []
    for cls in (InstrumentedLoop, *InstrumentedLoop.__subclasses__()):
        original = cls.__dict__.get("_build_templates")
        if original is None:
            continue

        def counting(self, _original=original):
            calls.append(id(self))
            return _original(self)

        monkeypatch.setattr(cls, "_build_templates", counting)
    return calls


@pytest.fixture
def bound(monkeypatch) -> List[Tuple[int, ...]]:
    """Every iteration index a statement template was bound to."""
    calls: List[Tuple[int, ...]] = []
    original = StatementTemplate.executes_at

    def spying(self, index):
        calls.append(index)
        return original(self, index)

    monkeypatch.setattr(StatementTemplate, "executes_at", spying)
    return calls


def _machine() -> Machine:
    return Machine(MachineConfig(processors=4, record_trace=True))


def _reachable_ops(root) -> int:
    """Simulator ops reachable from ``root`` (classes, functions and
    modules are not followed: they hold no per-run state)."""
    seen = {id(root)}
    stack = [root]
    ops = 0
    while stack:
        obj = stack.pop()
        if isinstance(obj, Operation):
            ops += 1
        for child in gc.get_referents(obj):
            if id(child) in seen or isinstance(child, _NOT_FOLLOWED):
                continue
            seen.add(id(child))
            stack.append(child)
    return ops


_NOT_FOLLOWED = (type, types.FunctionType, types.ModuleType)


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_instrument_compiles_no_stream(builds, bound, scheme_name):
    instrumented = make_scheme(scheme_name).instrument(fig21_loop(24))
    assert builds == [] and bound == []
    assert instrumented._templates is None


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_verifier_window_compiles_exactly_its_window(builds, bound,
                                                     scheme_name):
    instrumented = make_scheme(scheme_name).instrument(fig21_loop(24))
    verify_instrumented(instrumented, window=5)
    window = set(instrumented.iterations[:5])
    assert {instrumented.loop.lpid(index) for index in bound} == window
    assert builds == [id(instrumented)]
    verify_instrumented(instrumented, window=5)
    assert builds == [id(instrumented)]  # the templates are reused


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_a_run_builds_the_templates_once(builds, scheme_name):
    instrumented = make_scheme(scheme_name).instrument(fig21_loop(24))
    result = _machine().run(instrumented)
    instrumented.validate(result)
    _machine().run(instrumented)
    assert builds == [id(instrumented)]
    assert len(instrumented.templates()) == len(instrumented.loop.body)


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_no_per_iteration_op_outlives_a_run(scheme_name):
    """What a run leaves on the loop does not grow with the loop."""
    counts = []
    for n in (12, 48):
        instrumented = make_scheme(scheme_name).instrument(fig21_loop(n))
        _machine().run(instrumented)
        counts.append(_reachable_ops(instrumented))
    assert counts[0] == counts[1]
    assert counts[0] <= len(fig21_loop(12).body)  # constant-cost computes


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_recompile_empties_the_cache(builds, scheme_name):
    instrumented = make_scheme(scheme_name).instrument(fig21_loop(24))
    verify_instrumented(instrumented, window=4)
    first = instrumented.templates()
    instrumented.recompile()
    assert instrumented._templates is None
    verify_instrumented(instrumented, window=4)
    assert builds == [id(instrumented)] * 2
    assert instrumented.templates() is not first


def test_plan_mutation_after_recompile_is_honoured():
    """Process-oriented: strip every wait from a plan that already ran."""
    instrumented = make_scheme("process-oriented").instrument(
        fig21_loop(24))
    assert verify_instrumented(instrumented).clean
    _machine().run(instrumented)  # the templates are built and kept
    plan = instrumented.plan
    instrumented.plan = SyncPlan(
        loop=plan.loop, arcs=plan.arcs,
        statements=[StatementPlan(sid=p.sid, waits=(),
                                  source_step=p.source_step,
                                  is_last_source=p.is_last_source)
                    for p in plan.statements],
        step_of=plan.step_of, n_sources=plan.n_sources)
    assert verify_instrumented(instrumented).clean  # stale templates
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
