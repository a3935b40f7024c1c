"""Dependence instances: enumerated once per graph, sliced per window.

The static verifier checks the same loop's instances for every
candidate placement the optimizer scores.  They are a pure function of
the :class:`DependenceGraph`, so the graph enumerates them once and
memoizes each verification window's slice.  These tests pin that the
memo really is once per graph, and that the verifier's verdicts did not
move: ``golden_verify.json`` holds fingerprints of the reports the
unmemoized verifier produced, for every shipped placement at windows
{4, ``choose_window()``, n}, for weakened-wait mutants (so race
findings are pinned too), and for the whole ``gate()``.

Regenerate (only when a change is *meant* to alter verdicts)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/analyze/test_instance_memo.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Dict, List, Tuple

import pytest

from repro.analyze import (apply_mutant, enumerate_mutants, gate,
                           verify, verify_instrumented)
from repro.analyze.gate import GATE_PARAMS
from repro.analyze.optimize import optimize
from repro.depend.graph import DependenceGraph
from repro.depend.model import Loop, Statement, ref1
from repro.lab import SweepCell, execute_cell
from repro.lab.apps import APP_BUILDERS, build_app
from repro.schemes.registry import make_scheme, scheme_names

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_verify.json"

#: placements whose weakened-wait mutants are pinned window by window
MUTATED = [("fig2.1", "statement-oriented"),
           ("fig2.1", "process-oriented"),
           ("fold-chain", "process-oriented")]


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _windows(instrumented) -> List[Tuple[str, Any]]:
    return [("4", 4), ("choose", None),
            ("n", len(instrumented.iterations))]


def _pin(report) -> Dict[str, Any]:
    return {"instances_checked": report.stats.get("instances_checked"),
            "races": len(report.races),
            "sha256": _digest(report.to_json())}


def verify_cases() -> Dict[str, Dict[str, Any]]:
    """Every shipped placement and mutant, verified at each window."""
    cases: Dict[str, Dict[str, Any]] = {}
    for app in sorted(APP_BUILDERS):
        loop = build_app(app, GATE_PARAMS[app])
        graph = DependenceGraph(loop)
        if graph.has_unknown_distance:
            continue
        for scheme_name in scheme_names():
            try:
                instrumented = make_scheme(scheme_name).instrument(
                    loop, graph)
            except (NotImplementedError, ValueError):
                continue  # the gate's skipped pairs
            variants = [("shipped", instrumented)]
            if (app, scheme_name) in MUTATED:
                variants += [
                    (f"weaken-wait-{number}", apply_mutant(instrumented,
                                                           mutant))
                    for number, mutant in enumerate(
                        m for m in enumerate_mutants(instrumented)
                        if m.kind == "weaken-wait")]
            for variant, placement in variants:
                for label, window in _windows(instrumented):
                    report = verify_instrumented(
                        placement, window=window, app=app,
                        scheme_name=scheme_name)
                    key = f"{app}/{scheme_name}/{variant}/window={label}"
                    cases[key] = _pin(report)
    return cases


def gate_cases() -> Dict[str, Dict[str, Any]]:
    """The 52-pair gate with the order-maintenance dynamic cross-check."""
    result = gate(dynamic_oracle="om")
    cases = {key: _pin(report) for key, report in result.reports.items()}
    for key, verdict in result.dynamic.items():
        cases[key]["dynamic"] = verdict
    for key, reason in result.skipped.items():
        cases[key] = {"skipped": reason}
    return cases


def _golden() -> Dict[str, Dict[str, Dict[str, Any]]]:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        payload = {"verify": verify_cases(), "gate": gate_cases()}
        GOLDEN_PATH.write_text(json.dumps(payload, sort_keys=True,
                                          indent=1) + "\n")
    return json.loads(GOLDEN_PATH.read_text())


def _mismatches(expected: Dict[str, Any],
                actual: Dict[str, Any]) -> List[str]:
    return [f"{key}: expected {expected.get(key)}, got {actual.get(key)}"
            for key in sorted(set(expected) | set(actual))
            if expected.get(key) != actual.get(key)]


def test_verifier_reports_match_the_unmemoized_verifier():
    golden = _golden()["verify"]
    assert len(golden) > 150
    assert any(case["races"] for case in golden.values())
    problems = _mismatches(golden, verify_cases())
    assert not problems, "\n".join(problems[:20])


def test_gate_reports_are_unchanged():
    golden = _golden()["gate"]
    assert sum("sha256" in case for case in golden.values()) == 52
    problems = _mismatches(golden, gate_cases())
    assert not problems, "\n".join(problems[:20])


@pytest.fixture
def enumerations(monkeypatch) -> List[int]:
    """ids of the graphs whose instances get enumerated, one per call."""
    calls: List[int] = []
    builder = DependenceGraph._enumerate_instances

    def counting(graph):
        calls.append(id(graph))
        return builder(graph)

    monkeypatch.setattr(DependenceGraph, "_enumerate_instances", counting)
    return calls


def test_optimize_enumerates_instances_once_per_graph(enumerations):
    loop = build_app("fold-chain", GATE_PARAMS["fold-chain"])
    graph = DependenceGraph(loop)
    report = optimize(loop, make_scheme("process-oriented"), graph=graph,
                      app="fold-chain")
    # the search scored many candidates, each verified statically
    assert len(report.audit) > 5
    assert enumerations == [id(graph)]

    enumerations.clear()
    optimize(loop, make_scheme("process-oriented"), app="fold-chain")
    assert len(enumerations) == 1  # its own graph, enumerated once


def test_eliminate_cell_validates_with_the_optimizers_instances(
        enumerations):
    """One loop, one graph, one enumeration per ``eliminate`` cell."""
    cell = SweepCell(app="fold-chain", app_params=(("n", 24),),
                     scheme="process-oriented", processors=4,
                     eliminate=True)
    record = execute_cell(cell.config(), cell.key)
    assert record["outcome"] == "ok"
    assert record["metrics"]["elimination"]["supported"]
    assert len(enumerations) == 1


def test_memo_and_window_slice_are_shared_and_exact():
    loop = build_app("example3", GATE_PARAMS["example3"])
    graph = DependenceGraph(loop)
    instances = graph.dependence_instances()
    assert graph.dependence_instances() is instances
    for lpids in ([1, 2, 3, 4], list(range(1, 11)),
                  list(range(1, loop.n_iterations + 1))):
        members = set(lpids)
        expected = tuple(
            instance for instance in instances
            if instance[0][1] != instance[1][1]
            and instance[0][1] in members and instance[1][1] in members)
        window = graph.window_instances(lpids)
        assert window == expected
        assert graph.window_instances(list(lpids)) is window


def test_same_iteration_instances_stay_out_of_the_slice():
    """No registered app has one; sequential execution enforces them."""
    body = [Statement("S1", writes=(ref1("A", 1),)),
            Statement("S2", reads=(ref1("A", 1),), writes=(ref1("B", 1),)),
            Statement("S3", reads=(ref1("B", 1, -1),))]
    loop = Loop("intra", bounds=((1, 12),), body=body)
    graph = DependenceGraph(loop)
    assert any(src[1] == dst[1]
               for src, dst, *_rest in graph.dependence_instances())
    report = verify(loop, make_scheme("statement-oriented"), graph=graph)
    window = graph.window_instances(range(1, report.window + 1))
    assert window
    assert all(src[1] != dst[1] for src, dst, *_rest in window)
    assert report.clean
    assert report.stats["instances_checked"] == len(window)
