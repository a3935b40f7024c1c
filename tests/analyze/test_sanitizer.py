"""Dynamic race sanitizer: clean placements stay clean across schedules;
hand-built unsynchronized traces and starved placements are flagged; an
untraced run is refused rather than called race-free; and the
vector-clock check matches a brute-force reference race for race.

Tests parametrized on ``oracle`` run the sanitizer's vector clocks
(``"vc"``, :func:`check_trace`) or the brute-force per-event reference
clocks defined below (``"ref"``) over the same event stream."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import (apply_mutant, check_trace, dynamic_check,
                           enumerate_mutants)
from repro.analyze.sanitizer import RaceEvent, event_stream
from repro.lab.apps import build_app
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim import Machine, MachineConfig
from repro.sim.engine import AccessRecord


def _races(result, oracle):
    """Race-check one run with the named oracle."""
    if oracle == "vc":
        return check_trace(result)
    return reference_races(event_stream(result))


@pytest.mark.parametrize("oracle", ["ref", "vc"])
@pytest.mark.parametrize("schedule", ["self", "cyclic", "block"])
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_shipped_placements_sanitize_clean(scheme_name, schedule, oracle):
    loop = build_app("fig2.1", {"n": 12})
    instrumented = make_scheme(scheme_name).instrument(loop)
    verdict = dynamic_check(instrumented, schedule=schedule)
    assert verdict.verdict == "clean", verdict.races[:2]
    assert not verdict.killed
    assert _races(verdict.result, oracle) == []


def test_clean_across_seedsized_machines():
    """Fewer processors than iterations: tasks queue and interleave."""
    loop = build_app("example2", {"n": 6, "m": 3})
    instrumented = make_scheme("reference-based").instrument(loop)
    for processors in (2, 5):
        verdict = dynamic_check(instrumented, processors=processors)
        assert verdict.verdict == "clean"


@pytest.mark.parametrize("oracle", ["ref", "vc"])
def test_hand_built_racy_trace_is_flagged(oracle):
    """Two tasks touch one element with no sync edge between them."""

    class FakeResult:
        trace = [
            AccessRecord(commit=5, kind="W", addr=("A", 1), value=1,
                         task="p0", tag=None, seq=1),
            AccessRecord(commit=6, kind="R", addr=("A", 1), value=1,
                         task="p1", tag=None, seq=2),
        ]
        sync_trace = []

    races = _races(FakeResult(), oracle)
    assert len(races) == 1
    assert races[0].addr == ("A", 1)
    assert {races[0].first_task, races[0].second_task} == {"p0", "p1"}
    assert "A" in races[0].describe()


@pytest.mark.parametrize("oracle", ["ref", "vc"])
def test_release_acquire_chain_suppresses_the_race(oracle):
    """The same access pair, now ordered through a sync variable."""

    class FakeResult:
        trace = [
            AccessRecord(commit=5, kind="W", addr=("A", 1), value=1,
                         task="p0", tag=None, seq=1),
            AccessRecord(commit=9, kind="R", addr=("A", 1), value=1,
                         task="p1", tag=None, seq=4),
        ]
        sync_trace = [
            (2, "rel", 7, 1, "p0"),
            (3, "acq", 7, 1, "p1"),
        ]

    assert _races(FakeResult(), oracle) == []


def test_engine_trace_from_real_run_checks_clean():
    loop = build_app("fig2.1", {"n": 10})
    instrumented = make_scheme("statement-oriented").instrument(loop)
    machine = Machine(MachineConfig(processors=4, record_trace=True))
    result = machine.run(instrumented)
    assert result.sync_trace, "engine must record sync events"
    assert check_trace(result) == []


def test_oracles_agree_on_real_runs():
    """Same RunResult, vector clocks and reference: identical races."""
    for scheme_name in scheme_names():
        loop = build_app("example3", {"n": 10})
        instrumented = make_scheme(scheme_name).instrument(loop)
        machine = Machine(MachineConfig(processors=10, record_trace=True))
        result = machine.run(instrumented)
        assert _races(result, "vc") == _races(result, "ref")


def test_starved_waiter_surfaces_as_deadlock_verdict():
    """Deleting a load-bearing sync write kills via diagnosis, not hang."""
    loop = build_app("fig2.1", {"n": 10})
    instrumented = make_scheme("reference-based").instrument(loop)
    deletes = [m for m in enumerate_mutants(instrumented)
               if m.kind.startswith("delete")]
    assert deletes
    verdict = dynamic_check(apply_mutant(instrumented, deletes[0]))
    assert verdict.killed
    assert verdict.verdict in ("deadlock", "race", "corruption")


# -- untraced runs ---------------------------------------------------------

def _racy_run(**config):
    """A weakened-wait mutant of tridiag that races on 4 processors."""
    loop = build_app("tridiag", {"n": 8})
    instrumented = make_scheme("statement-oriented").instrument(loop)
    (mutant,) = [m for m in enumerate_mutants(instrumented)
                 if m.label == "weaken-wait:var0:p3#0"]
    machine = Machine(MachineConfig(processors=4, **config))
    return machine.run(apply_mutant(instrumented, mutant))


@pytest.mark.parametrize("config", [
    {"metrics": "counters", "sync_tap": True},
    {"record_trace": True},
])
def test_racy_run_is_flagged_when_traced(config):
    races = check_trace(_racy_run(**config))
    assert [race.addr for race in races] == [("X", 3)]


@pytest.mark.parametrize("config", [
    {"metrics": "counters"},
    {"record_trace": False},
])
def test_untraced_run_is_refused_not_called_race_free(config):
    """No tap and no trace: 'no races' would be vacuous, so raise."""
    with pytest.raises(ValueError, match="sync_tap=True"):
        check_trace(_racy_run(**config))


def test_empty_tap_from_a_tapped_run_is_checkable():
    """The tap was on and recorded nothing: that is a real empty run."""
    assert check_trace(_Stream([])) == []


# -- brute-force reference ---------------------------------------------------

#: two prologue tasks (exercise the boot rule) + three loop tasks
TASKS = ("init0", "init1", "p0", "p1", "p2")
VARS = ("v0", "v1")
ADDRS = (("A", 0), ("A", 1), ("B", 0))
KINDS = ("R", "W", "acq", "rel", "upd")

#: realistic prologue structure: every init-task event precedes every
#: loop-task event, as the machine guarantees (it runs each ``init*``
#: task to completion before the loop starts).  The sanitizer's clocks
#: tick per release (epochs), so they agree with the per-event
#: reference only on such streams: an init task working on *after*
#: boot -- impossible in a real trace -- would be ordered by the boot
#: join's epoch snapshot.
PHASED_OPS = st.tuples(
    st.lists(st.tuples(st.integers(0, 1),                  # init tasks
                       st.sampled_from(KINDS), st.integers(0, 2)),
             max_size=15),
    st.lists(st.tuples(st.integers(2, len(TASKS) - 1),     # loop tasks
                       st.sampled_from(KINDS), st.integers(0, 2)),
             min_size=1, max_size=40),
).map(lambda phases: phases[0] + phases[1])


class _Stream:
    """RunResult stand-in carrying a hand-built tap stream."""

    def __init__(self, tap):
        self.tap = tap
        self.trace = []
        self.sync_trace = []


class _BruteForce:
    """Fine-grained vector clocks: tick on every event, full snapshots.

    Per-task knowledge of others, an own-event counter bumped at every
    recorded event, release accumulating (knowledge + own tick) into the
    variable, acquire joining the variable back, and the prologue boot
    rule (the first non-``init`` task joins everything every existing
    task has done).
    """

    def __init__(self):
        self.clocks = {}          # task -> knowledge {task: tick}
        self.ticks = {}           # task -> own event counter
        self.var_clocks = {}      # var -> accumulated released clock
        self.booted = False
        self.boot = {}

    def task(self, name):
        if name not in self.clocks:
            if not self.booted and not name.startswith("init"):
                self.booted = True
                for other, clock in self.clocks.items():
                    self._join(self.boot, clock)
                    if self.ticks[other] > self.boot.get(other, 0):
                        self.boot[other] = self.ticks[other]
            self.clocks[name] = dict(self.boot) if self.booted else {}
            self.ticks[name] = 0
        return self.clocks[name]

    @staticmethod
    def _join(into, other):
        for task, tick in other.items():
            if tick > into.get(task, 0):
                into[task] = tick

    def step(self, name):
        """Record one event; return ((name, tick), full snapshot)."""
        self.ticks[name] += 1
        snapshot = dict(self.clocks[name])
        snapshot[name] = self.ticks[name]
        return (name, self.ticks[name]), snapshot

    def acquire(self, name, var):
        self._join(self.clocks[name], self.var_clocks.get(var, {}))

    def release(self, name, var):
        target = self.var_clocks.setdefault(var, {})
        self._join(target, self.clocks[name])
        if self.ticks[name] > target.get(name, 0):
            target[name] = self.ticks[name]

    @staticmethod
    def precedes(label, snapshot):
        """Event ``label=(task, tick)`` happens-before ``snapshot``."""
        task, tick = label
        return snapshot.get(task, 0) >= tick


def reference_races(events):
    """Race check on the brute-force clocks: the last write, and the
    reads since it, must each happen-before a conflicting access."""
    bf = _BruteForce()
    last_write = {}   # addr -> (label, seq)
    reads = {}        # addr -> {task: (label, seq)}
    races = []
    for seq, kind, where, task in events:
        bf.task(task)
        if kind in ("acq", "upd"):
            bf.acquire(task, where)
        label, snapshot = bf.step(task)
        if kind in ("rel", "upd"):
            bf.release(task, where)
        if kind not in ("R", "W"):
            continue
        writer = last_write.get(where)
        if writer is not None and writer[0][0] != task \
                and not bf.precedes(writer[0], snapshot):
            races.append(RaceEvent(where, writer[0][0], "W", writer[1],
                                   task, kind, seq))
        if kind == "R":
            reads.setdefault(where, {})[task] = (label, seq)
            continue
        for reader, (read, rseq) in reads.get(where, {}).items():
            if reader != task and not bf.precedes(read, snapshot):
                races.append(RaceEvent(where, reader, "R", rseq,
                                       task, "W", seq))
        last_write[where] = (label, seq)
        reads[where] = {}
    return races


def _events(ops):
    return [(seq, kind,
             ADDRS[where % len(ADDRS)] if kind in ("R", "W")
             else VARS[where % len(VARS)],
             TASKS[task])
            for seq, (task, kind, where) in enumerate(ops)]


def _check(events):
    return check_trace(_Stream([event[1:] for event in events]))


@given(PHASED_OPS)
@settings(max_examples=300, deadline=None)
def test_check_trace_matches_brute_force_reference(ops):
    """Same races, same order, as the per-event vector clocks."""
    events = _events(ops)
    assert _check(events) == reference_races(events)


def test_boot_rule_orders_prologue_before_loop_tasks():
    """Everything init tasks did before the loop precedes every loop
    task; init work after a later release is not implied."""
    events = [(0, "W", ("A", 0), "init0"),
              (1, "W", ("A", 1), "init1"),
              (2, "R", ("A", 0), "p0"),      # first loop task: boot join
              (3, "R", ("A", 1), "p1"),
              (4, "rel", "v0", "init0"),
              (5, "W", ("B", 0), "init0"),
              (6, "R", ("B", 0), "p0")]
    races = _check(events)
    assert races == reference_races(events)
    assert [(race.addr, race.first_task) for race in races] == [
        (("B", 0), "init0")]


def test_update_is_acquire_step_release():
    """``upd`` imports the variable's past and publishes its own."""
    events = [(0, "W", ("A", 0), "p0"),
              (1, "rel", "v0", "p0"),
              (2, "W", ("A", 1), "p0"),      # after p0's release
              (3, "W", ("B", 0), "p1"),      # before p1's update
              (4, "upd", "v0", "p1"),        # acquires p0's release
              (5, "R", ("A", 0), "p1"),      # ordered
              (6, "R", ("A", 1), "p1"),      # race: never published
              (7, "acq", "v0", "p2"),        # acquires p1's update
              (8, "R", ("B", 0), "p2"),      # ordered by the update
              (9, "R", ("A", 0), "p2")]      # ordered transitively
    races = _check(events)
    assert races == reference_races(events)
    assert [(race.addr, race.first_seq, race.second_seq)
            for race in races] == [(("A", 1), 2, 6)]


def test_unreleased_acquire_is_a_noop():
    events = [(0, "W", ("A", 0), "p0"),
              (1, "acq", "never-released", "p1"),
              (2, "R", ("A", 0), "p1")]
    races = _check(events)
    assert races == reference_races(events)
    assert [(race.first_task, race.second_task) for race in races] == [
        ("p0", "p1")]
