"""The process-oriented scheme (section 4) as a pluggable SyncScheme.

One process counter per iteration, folded onto X hardware counters on the
broadcast synchronization bus.  Two primitive styles:

``"basic"``  (Fig. 4.2)
    ``get_PC`` before the first counter update, ``set_PC`` after each
    non-final source statement, ``release_PC`` after the last.
``"improved"``  (Fig. 4.3)
    ``load_index`` at loop entry, ``mark_PC`` (skips when ownership has
    not arrived) after non-final sources, ``transfer_PC`` at the end --
    ownership is only ever *waited for* at the final transfer.

Branches follow Example 3: source *positions* advance the step cursor
whether or not the statement executed, and (eagerly, by default) the
cursor is published so sinks of skipped sources proceed as soon as
possible.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..core.branches import StepCursor
from ..core.codegen import SyncPlan, build_sync_plan
from ..core.folding import choose_counters
from ..core.improved import ImprovedPrimitives
from ..core.primitives import get_pc, release_pc, set_pc
from ..core.process_counter import ProcessCounterFile, pc_at_least
from ..depend.graph import DependenceGraph, SyncArc
from ..depend.model import Loop
from ..sim.memory import SharedMemory
from ..sim.ops import SyncWrite, WaitUntil
from ..sim.cache_fabric import CachedSyncFabric
from ..sim.sync_bus import BroadcastSyncFabric, SyncFabric
from .base import FENCE, InstrumentedLoop, StatementTemplate, SyncScheme


class ProcessOrientedLoop(InstrumentedLoop):
    """A loop synchronized with process counters."""

    def __init__(self, loop: Loop, graph: DependenceGraph, plan: SyncPlan,
                 n_counters: int, style: str, split_fields: bool,
                 split_order: str, eager_branch_marks: bool,
                 coverage: bool, charge_init: bool,
                 fabric_kwargs: Optional[dict] = None,
                 fabric: str = "broadcast") -> None:
        super().__init__(loop, graph)
        self.plan = plan
        self.style = style
        self.eager_branch_marks = eager_branch_marks
        self.coverage = coverage
        self.charge_init = charge_init
        self.fabric_kwargs = dict(fabric_kwargs or {})
        if fabric not in ("broadcast", "cached"):
            raise ValueError(f"unknown fabric {fabric!r}")
        self.fabric_kind = fabric
        self.counters = ProcessCounterFile(
            n_counters=n_counters, first_pid=1,
            split_fields=split_fields, split_order=split_order)
        self._fabric: Optional[SyncFabric] = None

    def _build_templates(self) -> list:
        """``(statement, waits, source_step, is_last_source)`` per plan
        statement, ``waits`` holding ``(dist, step, reason prefix)``.

        Counters are allocated first on a fresh fabric, so the counter
        of iteration ``source`` is variable ``(source - first_pid) % X``
        (asserted in build_fabric) and :meth:`_process` binds each wait
        to its pid without asking the counter file.
        """
        return [(StatementTemplate(self.loop, self.loop.statement(p.sid)),
                 tuple((wait.dist, wait.step,
                        f"wait_PC({wait.dist},{wait.step}) by p")
                       for wait in p.waits),
                 p.source_step, p.is_last_source)
                for p in self.plan.statements]

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        if self.fabric_kind == "cached":
            # section 6's coherent-cache option: PCs as cacheable
            # memory words with write-invalidate coherence
            fabric: SyncFabric = CachedSyncFabric(memory,
                                                  **self.fabric_kwargs)
        else:
            fabric = BroadcastSyncFabric(coverage=self.coverage,
                                         **self.fabric_kwargs)
        self.counters.allocate(fabric)
        assert self.counters._vars == range(0, self.counters.n_counters), \
            "fabric allocation drifted from the templates' wait vars"
        self._fabric = fabric
        return fabric

    @property
    def needs_counters(self) -> bool:
        """A DOALL plan emits no waits or marks: no counters needed."""
        return self.plan.n_sources > 0

    def prologue(self) -> List[Generator]:
        """Counter initialization: X broadcast writes, if charged.

        The paper's point is that initializing X registers is negligible
        next to initializing one key per array element; charging it makes
        the comparison honest.  A DOALL needs no counters at all.
        """
        if not self.charge_init or not self.needs_counters:
            return []

        def init() -> Generator:
            for slot in range(self.counters.n_counters):
                pid = self.counters.initial_owner(slot)
                yield SyncWrite(self.counters.var_of(pid), (pid, 0))

        return [init()]

    @property
    def sync_vars(self) -> int:
        return self.counters.n_counters if self.needs_counters else 0

    def make_process(self, iteration: int) -> Generator:
        return self._process(iteration)

    def make_replay_process(self, iteration: int,
                            checkpoint: Optional[dict] = None) -> Generator:
        """Resume an iteration past its already-published PC updates.

        Each counter write carries a checkpoint naming the next plan
        position plus the ownership state (``acquired``/``owned``,
        ``last_step``).  Replay walks the plan from the top so the step
        cursor is recomputed deterministically, but emits nothing for
        positions before the journalled one: their data ops committed
        before the journalled signal (program order), and un-published
        marks there are signed off by the journalled (higher) step or by
        the final transfer, exactly as in lazy-mark mode.
        """
        skip = 0 if checkpoint is None else checkpoint["stmt"]
        return self._process(iteration, skip_stmt=skip, restore=checkpoint)

    def _ckpt(self, pid: int, stmt_pos: int, **state) -> Optional[dict]:
        if not self.checkpoints_enabled:
            return None
        payload = {"iter": pid, "stmt": stmt_pos}
        payload.update(state)
        return payload

    # ------------------------------------------------------------------
    # emission: one loop body, bound to its pid as it issues
    # ------------------------------------------------------------------

    def _process(self, pid: int, skip_stmt: int = 0,
                 restore: Optional[dict] = None) -> Generator:
        basic = self.style == "basic"
        cursor = StepCursor(self.plan.n_sources,
                            eager=self.eager_branch_marks)
        if basic:
            acquired = bool(restore and restore.get("acquired"))
        else:
            # load_index: myPC and the owned flag live in processor
            # registers.
            primitives = ImprovedPrimitives(self.counters, pid)
            if restore:
                primitives.owned = bool(restore.get("owned"))
                primitives.last_step = restore.get("last_step", 0)
        index = self.loop.index_of_lpid(pid)
        first_pid = self.counters.first_pid
        n = self.counters.n_counters
        for stmt_pos, (template, waits, source_step,
                       is_last_source) in enumerate(self.templates()):
            replay_skip = stmt_pos < skip_stmt
            executed = template.executes_at(index)
            if not replay_skip:
                for dist, step, reason in waits:
                    source = pid - dist
                    if source >= first_pid:  # else: loop-boundary sink
                        yield WaitUntil((source - first_pid) % n,
                                        pc_at_least((source, step)),
                                        reason=f"{reason}{pid}")
                if executed:
                    yield from template.issue(index, pid)
            if source_step is None:
                continue
            # Requirement (1) of section 2.2: the source's effect must be
            # globally visible before its completion is signalled.  The
            # fence runs even when a guard skipped this source: arc
            # pruning lets sinks infer *earlier* statements' completion
            # from this step, so their posted writes must drain before
            # the step is published.  (No outstanding writes: free.)
            if not replay_skip:
                yield FENCE
            step = cursor.advance(executed)
            if replay_skip:
                continue  # signal landed pre-crash; cursor stays in sync
            if basic:
                if step is None and not is_last_source:
                    continue
                if not acquired:
                    yield from get_pc(self.counters, pid)
                    acquired = True
                checkpoint = self._ckpt(pid, stmt_pos + 1, acquired=True)
                if is_last_source:
                    yield from release_pc(self.counters, pid,
                                          current_step=cursor.published,
                                          checkpoint=checkpoint)
                else:
                    yield from set_pc(self.counters, pid, step,
                                      checkpoint=checkpoint)
            elif is_last_source:
                primitives.last_step = cursor.published
                yield from primitives.transfer_pc(
                    checkpoint=self._ckpt(pid, stmt_pos + 1, owned=True,
                                          last_step=cursor.published))
            elif step is not None:
                yield from primitives.mark_pc(
                    step,
                    checkpoint=self._ckpt(pid, stmt_pos + 1, owned=True,
                                          last_step=step))


class ProcessOrientedScheme(SyncScheme):
    """Factory for process-counter synchronization.

    Parameters
    ----------
    n_counters:
        X, the number of hardware process counters; default: the paper's
        sizing rule (power of two, ``2 * processors``).
    style:
        ``"basic"`` (Fig. 4.2) or ``"improved"`` (Fig. 4.3).
    split_fields / split_order:
        Model the two PC fields as separate bus writes (section 6).
    eager_branch_marks:
        Publish steps for skipped sources immediately (Example 3's
        "inform the sinks to proceed as soon as possible").
    coverage:
        Enable the bus write-coverage optimization.
    fabric:
        Where the counters live: ``"broadcast"`` (dedicated bus with
        local register images, the Alliant-style default) or
        ``"cached"`` (section 6's coherent-cache option:
        :class:`~repro.sim.cache_fabric.CachedSyncFabric`).
    fabric_kwargs:
        Extra fabric timing parameters (``bus_service``, ``propagation``,
        ``issue_cost`` for broadcast; ``poll_interval``, ``capacity`` for
        cached) for hardware ablations.
    prune:
        Dependence-coverage pruning mode: "exact" (default) or "none".
    charge_init:
        Whether to simulate the X-register initialization prologue.
    """

    name = "process-oriented"
    supports_variable_index = True

    def __init__(self, n_counters: Optional[int] = None,
                 style: str = "improved",
                 processors: int = 8,
                 split_fields: bool = False,
                 split_order: str = "step_first",
                 eager_branch_marks: bool = True,
                 coverage: bool = True,
                 prune: str = "exact",
                 charge_init: bool = True,
                 fabric_kwargs: Optional[dict] = None,
                 fabric: str = "broadcast") -> None:
        if style not in ("basic", "improved"):
            raise ValueError(f"unknown primitive style {style!r}")
        if fabric not in ("broadcast", "cached"):
            raise ValueError(f"unknown fabric {fabric!r}")
        self.fabric = fabric
        self.n_counters = n_counters or choose_counters(processors)
        self.style = style
        self.split_fields = split_fields
        self.split_order = split_order
        self.eager_branch_marks = eager_branch_marks
        self.coverage = coverage
        self.prune = prune
        self.charge_init = charge_init
        self.fabric_kwargs = dict(fabric_kwargs or {})

    def instrument(self, loop: Loop,
                   graph: Optional[DependenceGraph] = None,
                   arcs: Optional[List[SyncArc]] = None
                   ) -> ProcessOrientedLoop:
        graph = graph or DependenceGraph(loop)
        plan = build_sync_plan(loop, graph, prune=self.prune, arcs=arcs)
        return ProcessOrientedLoop(
            loop, graph, plan,
            n_counters=self.n_counters, style=self.style,
            split_fields=self.split_fields, split_order=self.split_order,
            eager_branch_marks=self.eager_branch_marks,
            coverage=self.coverage, charge_init=self.charge_init,
            fabric_kwargs=self.fabric_kwargs, fabric=self.fabric)
