"""Span recording around the program's public entry points, from outside.

The traced run wraps the entry points of each layer (``apps``,
``depend``, ``schemes``, ``compiler``, ``sim``, ``analyze``, ``lab``) in
a :class:`SpanRecorder`; nothing inside ``src/`` is edited.  A span is
``(id, parent, name, cell, start, end, counts)``: ids are unique across
processes, the parent is the innermost open span on the same thread,
and the cell id is inherited from the enclosing span unless the wrapper
sets it.  Spans are kept in memory.  Pool workers are forked from a
process that already has the wrappers installed, so they record too;
since a worker is killed rather than allowed to exit, each worker
appends its spans to a spool file when a cell finishes, and the parent
reads the spool after the round.

:func:`self_times` turns spans into each layer's self time: a span's
duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pathlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One timed call into a layer; ``counts`` holds what it measured."""

    id: str
    parent: Optional[str]
    name: str
    cell: Optional[str]
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """The spool-file form; the inverse of :meth:`from_json`."""
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "cell": self.cell, "start": self.start, "end": self.end,
                "counts": self.counts}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_json`."""
        return cls(**data)


class SpanRecorder:
    """In-memory span store; fork-aware, thread-aware."""

    def __init__(self, spool: Optional[pathlib.Path] = None) -> None:
        self.spool = spool
        self.spans: List[Span] = []
        self._pid = self._owner = os.getpid()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        if os.getpid() != self._pid:
            # a forked worker: drop what the parent had recorded
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, cell: Optional[str] = None) -> Span:
        """Start a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if cell is None and parent is not None:
            cell = parent.cell
        span = Span(id=f"{self._pid}:{next(self._ids)}",
                    parent=parent.id if parent else None, name=name,
                    cell=cell, start=time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """End ``span`` and keep it."""
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def in_worker(self) -> bool:
        """True inside a process forked after the recorder was made."""
        return self._owner != os.getpid()

    def flush_to_spool(self) -> None:
        """Append this process's spans to its spool file, then forget them."""
        if self.spool is None or not self.spans:
            return
        path = self.spool / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")
        self.spans = []

    def collect(self) -> List[Span]:
        """Every span: this process's plus every worker's spool."""
        spans = list(self.spans)
        if self.spool is not None and self.spool.is_dir():
            for path in sorted(self.spool.glob("*.jsonl")):
                for line in path.read_text(encoding="utf-8").splitlines():
                    spans.append(Span.from_json(json.loads(line)))
        return spans


#: what a wrapper may add to its span from the call's result:
#: ``counter(args, kwargs, result) -> {name: value}``
Counter = Callable[[tuple, dict, Any], Dict[str, float]]
#: picks the cell id from the call's arguments
CellOf = Callable[[tuple, dict], Optional[str]]


def wrap(recorder: SpanRecorder, fn: Callable, name: str, *,
         counter: Optional[Counter] = None,
         cell_of: Optional[CellOf] = None,
         flush: bool = False) -> Callable:
    """``fn`` wrapped in a span named ``name``.

    ``flush`` marks a worker's top-level entry point: when the outermost
    span of a forked worker closes, its spans go to the spool.
    """
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name, cell_of(args, kwargs) if cell_of
                             else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if counter is not None:
            span.counts.update(counter(args, kwargs, result))
        if flush and span.parent is None and recorder.in_worker():
            recorder.flush_to_spool()
        return result
    return traced


class Patches:
    """Installs wrappers over every binding of a target, and undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def function(self, module: Any, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
        """Rebind ``module.attr`` in every loaded ``repro`` module.

        Modules that did ``from x import f`` hold their own binding of
        ``f``, so each one that holds the same object is rebound.
        """
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def method(self, cls: type, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def undo(self) -> None:
        """Restore every original binding, newest first."""
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo = []


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Self time in seconds per span name.

    A span's self time is its duration minus the union of the intervals
    its direct children cover (children are clipped to the parent, and
    overlapping children -- from threads -- are not double-subtracted).
    """
    spans = list(spans)
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[str, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            low = max(child.start, cursor)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start
                                                    - covered)
    return out


def outermost(spans: Iterable[Span], name: str) -> List[Span]:
    """Spans named ``name`` not nested in another span of that name."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent) if span.parent else None
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent) if parent.parent else None
        if parent is None:
            out.append(span)
    return out
