"""Optimizer output pinned, and what justifies sharing trial verdicts.

``golden_optimize.json`` holds, for every registered app x arc-driven
scheme at ``GATE_PARAMS`` and at a larger ``n``, the sha256 of the
optimizer's full :meth:`OptimizationReport.to_json` (audit trail
included) and the farthest-first eliminator's summary.  Any change to
how trials are compiled, verified or shared must leave both exactly
where they were.

``optimize()`` memoizes each trial's verdict on (configuration, ordered
arc list) for the length of the call, and the farthest-first baseline
it runs reads the same memo.  That is sound only because a placement
instrumented from its own arc list verifies exactly like the placement
instrumented from the scheme's defaults, which is pinned here too.

Regenerate (only when a change is *meant* to alter optimizer output)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/analyze/test_golden_optimize.py
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pathlib
from typing import Any, Dict, List, Tuple

import pytest

from repro.analyze import AnalysisError
from repro.analyze.eliminate import (ARC_SCHEMES, arc_gate, eliminate,
                                     placement_arcs)
from repro.analyze.gate import GATE_PARAMS
from repro.analyze.optimize import optimize
from repro.analyze.verifier import verify_instrumented
from repro.depend.graph import DependenceGraph
from repro.lab.apps import APP_BUILDERS, build_app
from repro.schemes.registry import make_scheme

#: the module itself: the package re-exports ``eliminate`` under its name
eliminate_module = importlib.import_module("repro.analyze.eliminate")

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_optimize.json"


def _larger(params: Dict[str, int]) -> Dict[str, int]:
    """The same app with ``n`` doubled."""
    return {**params, "n": 2 * params["n"]}


SIZES = (("gate", lambda params: dict(params)), ("large", _larger))


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cases() -> List[Tuple[str, str, str, Dict[str, int]]]:
    return [(app, scheme_name, size, resize(GATE_PARAMS[app]))
            for app in sorted(APP_BUILDERS)
            for scheme_name in ARC_SCHEMES
            for size, resize in SIZES]


def optimize_cases() -> Dict[str, Dict[str, Any]]:
    """Optimizer report digest and eliminator summary per pair."""
    cases: Dict[str, Dict[str, Any]] = {}
    for app, scheme_name, size, params in _cases():
        loop = build_app(app, params)
        graph = DependenceGraph(loop)
        case: Dict[str, Any] = {}
        try:
            report = optimize(loop, make_scheme(scheme_name), graph=graph,
                              app=app)
            case["optimize"] = _digest(report.to_json())
        except (AnalysisError, NotImplementedError, ValueError) as err:
            case["optimize"] = f"error: {err}"
        try:
            result = eliminate(loop, make_scheme(scheme_name), graph=graph,
                               app=app)
            case["eliminate"] = result.summary()
        except (AnalysisError, NotImplementedError, ValueError) as err:
            case["eliminate"] = f"error: {err}"
        cases[f"{app}/{scheme_name}/{size}"] = case
    return cases


def _golden() -> Dict[str, Dict[str, Any]]:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(optimize_cases(), sort_keys=True,
                                          indent=1) + "\n")
    return json.loads(GOLDEN_PATH.read_text())


def test_optimizer_and_eliminator_output_is_unchanged():
    golden = _golden()
    assert len(golden) == 2 * len(ARC_SCHEMES) * len(APP_BUILDERS)
    assert sum(not case["optimize"].startswith("error")
               for case in golden.values()) > 30
    actual = optimize_cases()
    problems = [f"{key}: expected {golden.get(key)}, got {actual.get(key)}"
                for key in sorted(set(golden) | set(actual))
                if golden.get(key) != actual.get(key)]
    assert not problems, "\n".join(problems[:20])


@pytest.mark.parametrize("scheme_name", ARC_SCHEMES)
def test_default_placement_verifies_like_its_own_arc_list(scheme_name):
    """The baseline's first verdict equals the search's keyed one."""
    compared = 0
    for app in sorted(APP_BUILDERS):
        loop = build_app(app, GATE_PARAMS[app])
        graph = DependenceGraph(loop)
        scheme = make_scheme(scheme_name)
        try:
            instrumented = scheme.instrument(loop, graph)
        except (AnalysisError, NotImplementedError, ValueError):
            continue
        by_default = verify_instrumented(instrumented, app=app,
                                         scheme_name=scheme.name)
        by_arcs = arc_gate(loop, scheme, graph,
                           placement_arcs(scheme, instrumented),
                           window=None, app=app)
        assert by_arcs is not None
        assert by_arcs.to_json() == by_default.to_json(), app
        compared += 1
    assert compared >= 10


@pytest.mark.parametrize("app,scheme_name",
                         [("fold-chain", "process-oriented"),
                          ("example3", "process-oriented"),
                          ("fig2.1", "statement-oriented")])
def test_one_verifier_run_per_distinct_placement(monkeypatch, app,
                                                 scheme_name):
    placements: List[Tuple[Any, ...]] = []

    def counting(instrumented, **kwargs):
        counters = getattr(instrumented, "counters", None)
        fold = None if counters is None else counters.n_counters
        arcs = getattr(instrumented, "arcs", None)
        if arcs is None:
            arcs = instrumented.plan.arcs
        placements.append((fold, tuple(arcs)))
        return verify_instrumented(instrumented, **kwargs)

    monkeypatch.setattr(eliminate_module, "verify_instrumented", counting)
    loop = build_app(app, GATE_PARAMS[app])
    report = optimize(loop, make_scheme(scheme_name), app=app)
    assert len(placements) == len(set(placements))
    # the search and the farthest-first baseline overlap: without the
    # shared memo the same placements would be verified again
    trials = sum(trial.action != "dynamic" for trial in report.audit)
    greedy = 1 + report.baseline["sync_arcs"]
    assert len(placements) < trials + greedy
