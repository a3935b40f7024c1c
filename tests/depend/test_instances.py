"""Dependence instances on every registered app, against brute force.

``DependenceGraph.dependence_instances`` trusts the dependence analysis:
a known distance solves the two references' subscript system for every
iteration, so a source inside the bounds touches the sink's address and
the enumerator does not recompute the source's address.  This pins that
invariant on every app of the ``lab.apps`` registry, and checks the
memoized list against an enumeration written here from first
principles: the iteration space in order, guards, and addresses through
``ArrayRef.element`` + ``Loop.flatten`` rather than the loop's lowered
subscripts.
"""

from __future__ import annotations

import copy
from typing import List

import pytest

from repro.analyze.gate import GATE_PARAMS
from repro.depend.graph import DependenceGraph
from repro.lab.apps import APP_BUILDERS, build_app

_KINDS = {"flow": ("W", "R"), "anti": ("R", "W"), "output": ("W", "W")}


def _brute_force(graph: DependenceGraph) -> List[tuple]:
    loop = graph.loop
    space = loop.iteration_space()
    lpid = {index: position + 1 for position, index in enumerate(space)}
    out = []
    for dep in graph.dependences:
        if dep.distance is None:
            continue
        src_stmt = loop.statement(dep.src)
        dst_stmt = loop.statement(dep.dst)
        for index in space:
            source = tuple(i - d for i, d in zip(index, dep.distance))
            if source not in lpid:
                continue
            if not (src_stmt.executes_at(source)
                    and dst_stmt.executes_at(index)):
                continue
            src_addr = loop.flatten(dep.src_ref.array,
                                    dep.src_ref.element(source))
            dst_addr = loop.flatten(dep.dst_ref.array,
                                    dep.dst_ref.element(index))
            assert src_addr == dst_addr, (
                f"{loop.name}: {dep} at {index} touches {dst_addr}, its "
                f"source at {source} touches {src_addr}")
            out.append(((dep.src, lpid[source]), (dep.dst, lpid[index]),
                        dst_addr) + _KINDS[dep.dep_type])
    return out


def _sizes(app: str):
    """The gate's size and, for 1-D loops, a second longer one."""
    params = dict(GATE_PARAMS[app])
    yield params
    if set(params) <= {"n", "stride"}:
        yield dict(params, n=params["n"] + 13)


@pytest.mark.parametrize("app", sorted(APP_BUILDERS))
def test_memoized_instances_equal_brute_force(app):
    for params in _sizes(app):
        graph = DependenceGraph(build_app(app, params))
        expected = _brute_force(graph)
        assert list(graph.dependence_instances()) == expected
        if any(dep.distance is not None and any(dep.distance)
               for dep in graph.dependences):
            assert expected, f"{app}: carried dependences, no instances"


@pytest.mark.parametrize("app", sorted(APP_BUILDERS))
def test_lowered_addresses_survive_copying(app):
    """A deep copy carries the original's lowering table, keyed by the
    original references' ids; it must address exactly like the original."""
    loop = build_app(app, GATE_PARAMS[app])
    refs = [ref for stmt in loop.body for _kind, ref in stmt.refs()]
    space = loop.iteration_space()
    before = [loop.address_of(ref, index) for ref in refs for index in space]
    twin = copy.deepcopy(loop)
    twin_refs = [ref for stmt in twin.body for _kind, ref in stmt.refs()]
    assert not any(ref is twin_ref
                   for ref, twin_ref in zip(refs, twin_refs))
    assert [twin.address_of(ref, index)
            for ref in twin_refs for index in space] == before
