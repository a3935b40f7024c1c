"""The statement-oriented scheme (section 3.2): Alliant Advance/Await.

Each source statement ``Sa`` gets one *statement counter* ``SC[a]``
shared by every iteration.  After process ``i`` executes ``Sa`` it
performs ``Advance(a)``: wait until ``SC[a] = i-1``, then set it to
``i``.  "Hence, when sc=i, all of the process j, j<i, must have
completed the execution of Sa" -- the update order is strictly
sequential, which is exactly the *horizontal sharing* the paper
criticizes: one slow iteration stalls the Advance chain of every later
iteration, even when the data dependences themselves would allow
progress.

Before a sink statement ``Sb`` with source distance D, process ``i``
performs ``Await(D, a)``: wait until ``SC[a] >= i - D``.

Counters live on the broadcast synchronization bus (the Alliant
concurrency control bus): local-image waits are free, Advances cost one
broadcast.  Because Advance serializes each statement's completions, the
stronger *monotonic* coverage pruning is sound here (a later iteration's
Advance implies all earlier iterations are done).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..depend.graph import DependenceGraph, SyncArc
from ..depend.model import Loop
from ..sim.memory import SharedMemory
from ..sim.ops import SyncWrite, WaitUntil
from ..sim.sync_bus import BroadcastSyncFabric, SyncFabric
from .base import (FENCE, InstrumentedLoop, StatementTemplate, SyncScheme,
                   at_least)


class StatementOrientedLoop(InstrumentedLoop):
    """A loop synchronized with per-statement counters."""

    def __init__(self, loop: Loop, graph: DependenceGraph,
                 arcs: List[SyncArc], charge_init: bool) -> None:
        super().__init__(loop, graph)
        self.arcs = arcs
        self.charge_init = charge_init
        self.source_sids: List[str] = [
            stmt.sid for stmt in loop.body
            if any(arc.src == stmt.sid for arc in arcs)]
        #: statement counters are allocated first on a fresh fabric, so
        #: their ids are known before any run (asserted in
        #: build_fabric) and the templates can name them.
        self._sc_vars: Dict[str, int] = {
            sid: var for var, sid in enumerate(self.source_sids)}
        self._first_pid = 1

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        fabric = BroadcastSyncFabric()
        initial = self._first_pid - 1  # "sc is set to k-1 if the first
        for sid in self.source_sids:   # iteration is k"
            var = fabric.alloc(1, init=initial)[0]
            assert var == self._sc_vars[sid], "fabric allocation drifted"
        return fabric

    def prologue(self) -> List[Generator]:
        if not self.charge_init or not self.source_sids:
            return []

        def init() -> Generator:
            for sid in self.source_sids:
                yield SyncWrite(self._sc_vars[sid], self._first_pid - 1)

        return [init()]

    @property
    def sync_vars(self) -> int:
        return len(self.source_sids)

    # ------------------------------------------------------------------

    def _build_templates(self) -> list:
        """``(statement, awaits, advance)`` per body statement.

        ``awaits`` holds ``(var, dist, reason prefix)`` per incoming arc,
        ``advance`` is ``(var, reason prefix)`` for a source statement
        (None otherwise); :meth:`_body` binds both to its pid.
        """
        templates = []
        for stmt in self.loop.body:
            awaits = tuple(
                (self._sc_vars[arc.src], arc.distance,
                 f"Await({arc.distance},{arc.src}) by p")
                for arc in self.arcs if arc.dst == stmt.sid)
            var = self._sc_vars.get(stmt.sid)
            advance = (None if var is None
                       else (var, f"Advance({stmt.sid}) by p"))
            templates.append(
                (StatementTemplate(self.loop, stmt), awaits, advance))
        return templates

    def make_process(self, pid: int) -> Generator:
        return self._body(pid)

    def make_replay_process(self, iteration: int,
                            checkpoint: Optional[dict] = None) -> Generator:
        """Resume an iteration past its already-Advanced statements.

        An Advance is the scheme's non-idempotent signal (it transfers
        the counter from ``pid-1`` to ``pid`` exactly once in the
        chain), so each carries a checkpoint naming the next body
        position.  Positions before it are skipped entirely on replay;
        the rest re-execute, which is safe because an un-Advanced
        statement's successors are still blocked on the counter.
        """
        skip = 0 if checkpoint is None else checkpoint["stmt"]
        return self._body(iteration, skip_stmt=skip)

    def _body(self, pid: int, skip_stmt: int = 0) -> Generator:
        index = self.loop.index_of_lpid(pid)
        checkpoints = self.checkpoints_enabled
        first_pid = self._first_pid
        for stmt_pos, (template, awaits, advance) in enumerate(
                self.templates()):
            if stmt_pos < skip_stmt:
                continue  # Advance already landed for this position
            # sink first: Await(D, a) -- wait until SC[a] >= pid - D,
            # skipped past the loop boundary
            for var, dist, reason in awaits:
                if pid - dist >= first_pid:
                    yield WaitUntil(var, at_least(pid - dist),
                                    reason=f"{reason}{pid}")
            if template.executes_at(index):
                yield from template.issue(index, pid)
            if advance is None:
                continue
            # Fence even when the guard skipped the statement: arc
            # pruning treats Advance as proof that everything
            # program-order-before it in this process is complete AND
            # visible, so earlier statements' posted writes must drain
            # before the counter moves.  (A fence with no outstanding
            # writes is free.)
            yield FENCE
            # Advance runs on every path (Example 3's rule), or sinks of
            # skipped sources would deadlock the Advance chain: wait
            # until SC[a] = pid-1, then set it to pid.
            var, reason = advance
            yield WaitUntil(var, at_least(pid - 1), reason=f"{reason}{pid}")
            yield SyncWrite(var, pid, coverable=False,
                            checkpoint=({"iter": pid, "stmt": stmt_pos + 1}
                                        if checkpoints else None))


class StatementOrientedScheme(SyncScheme):
    """Factory for statement-counter synchronization.

    ``prune`` defaults to ``"monotonic"``, which is sound for this scheme
    (see module docstring); pass ``"exact"`` or ``"none"`` for ablations.
    """

    name = "statement-oriented"
    supports_variable_index = False

    def __init__(self, prune: str = "monotonic",
                 charge_init: bool = True) -> None:
        self.prune = prune
        self.charge_init = charge_init

    def instrument(self, loop: Loop,
                   graph: Optional[DependenceGraph] = None,
                   arcs: Optional[List[SyncArc]] = None
                   ) -> StatementOrientedLoop:
        graph = graph or DependenceGraph(loop)
        if arcs is None:
            if self.prune == "none":
                arcs = graph.sync_arcs()
            else:
                arcs = graph.pruned_sync_arcs(mode=self.prune)
        return StatementOrientedLoop(loop, graph, arcs,
                                     charge_init=self.charge_init)
