"""Spans recorded around the calls into each layer's public functions.

The traced run wraps the entry points listed in ``ENTRY_POINTS`` with a
recorder that keeps, per call, its name, start and end
(``perf_counter_ns``), the span open when it began (its parent) and the
benchmark operation it belongs to. Nothing inside the program changes:
the wrappers are installed on the classes for the traced phase only and
removed afterwards. Spans stay in memory and are written out when the
run ends.

Each thread keeps its own stack of open spans. The cooperative
scheduler runs each request on a worker thread of its own, and a worker
yields with its spans still open while another runs, so a span's parent
is the innermost open span of its own thread. A worker thread's first
span takes as parent the ``CooperativeScheduler.run`` span that started
it: concurrent workers become overlapping siblings under it. A parked
worker sits in ``CooperativeScheduler.checkpoint``, whose span marks
time its thread is not running (see ``self_times``).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Any, Iterable, Sequence

#: (module, class, method, span name). A span's layer is its name up to
#: the last dot.
ENTRY_POINTS = (
    ("repro.runtime.workflow", "Runtime", "execute_request", "runtime.execute_request"),
    ("repro.runtime.scheduler", "CooperativeScheduler", "run", "runtime.scheduler.run"),
    ("repro.runtime.scheduler", "CooperativeScheduler", "checkpoint", "runtime.scheduler.checkpoint"),
    ("repro.core.interposition", "InterpositionLayer", "txn_began", "core.interposition.txn_began"),
    ("repro.core.interposition", "InterpositionLayer", "statement_executed", "core.interposition.statement_executed"),
    ("repro.core.interposition", "InterpositionLayer", "txn_committed", "core.interposition.txn_committed"),
    ("repro.core.interposition", "InterpositionLayer", "txn_aborted", "core.interposition.txn_aborted"),
    ("repro.core.interposition", "InterpositionLayer", "request_started", "core.interposition.request_started"),
    ("repro.core.interposition", "InterpositionLayer", "request_finished", "core.interposition.request_finished"),
    ("repro.core.interposition", "InterpositionLayer", "handler_called", "core.interposition.handler_called"),
    ("repro.core.interposition", "InterpositionLayer", "side_effect", "core.interposition.side_effect"),
    ("repro.core.tracer", "Trod", "flush", "core.provenance.flush"),
    ("repro.core.provenance", "ProvenanceStore", "ingest", "core.provenance.ingest"),
    ("repro.core.provenance", "ProvenanceStore", "query", "core.provenance.query"),
    ("repro.core.provenance", "ProvenanceStore", "restore_into", "core.provenance.restore_into"),
    ("repro.core.replay", "ReplayEngine", "replay_request", "core.replay.replay_request"),
    ("repro.core.retroactive", "RetroactiveEngine", "run", "core.retroactive.run"),
    ("repro.db.database", "Database", "execute", "db.sql.execute"),
    ("repro.db.txn.manager", "TransactionManager", "commit", "db.txn.commit"),
    ("repro.db.txn.manager", "TransactionManager", "abort", "db.txn.abort"),
    ("repro.db.sharding", "ShardedDatabase", "execute", "db.sharding.execute"),
    ("repro.db.sharding", "ShardedDatabase", "select_routed", "db.sharding.select_routed"),
    ("repro.db.multistore", "GlobalTransaction", "commit", "db.multistore.commit"),
    ("repro.db.sharding", "ShardedDatabase", "catch_up_replicas", "db.replication.catch_up"),
    ("repro.db.replication", "ShardedReadRouter", "execute", "db.replication.route"),
    ("repro.db.connection", "Connection", "execute", "db.connection.execute"),
    ("repro.db.connection", "ConnectionTransaction", "execute", "db.connection.txn_execute"),
    ("repro.db.connection", "ConnectionTransaction", "commit", "db.connection.txn_commit"),
)

# Span record fields (a list per span keeps recording cheap).
NAME, START, END, PARENT, OP = range(5)

#: Spans whose method starts worker threads; a worker's first span is
#: their child.
SPAWNS = frozenset({"runtime.scheduler.run"})

#: Spans during which a worker is parked while another worker runs.
WAITS = frozenset({"runtime.scheduler.checkpoint"})


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class SpanRecorder:
    """Installs the wrappers and collects spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: Spans are recorded only while enabled (the measured rounds).
        self.enabled = False
        self.op = 0
        self._local = threading.local()
        #: Open spawning spans (any thread), innermost last.
        self._spawning: list[int] = []
        self._patched: list[tuple[type, str, Any]] = []

    def install(self, entry_points: Iterable[tuple[str, str, str, str]] = ENTRY_POINTS) -> None:
        for module, cls_name, method, name in entry_points:
            owner = getattr(importlib.import_module(module), cls_name)
            original = owner.__dict__[method]
            setattr(owner, method, self._wrap(original, name))
            self._patched.append((owner, method, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, method, original = self._patched.pop()
            setattr(owner, method, original)

    def next_op(self) -> None:
        """Called as each benchmark operation starts."""
        self.op += 1

    def _open(self) -> list[int]:
        """The running thread's stack of open spans."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Any, name: str) -> Any:
        spans = self.spans
        spawning = self._spawning
        spawns = name in SPAWNS
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            # No lock around the shared lists: the cooperative scheduler
            # lets one thread at a time run the program.
            open_ = self._open()
            if open_:
                parent = open_[-1]
            else:
                parent = spawning[-1] if spawning else -1
            index = len(spans)
            spans.append([name, clock(), 0, parent, self.op])
            open_.append(index)
            if spawns:
                spawning.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][END] = clock()
                open_.pop()
                if spawns:
                    spawning.remove(index)

        return wrapper

    def write(self, path: str) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")


def _union(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        elif end > start:
            merged.append((start, end))
    return merged


def _length(intervals: list[tuple[int, int]]) -> int:
    return sum(end - start for start, end in intervals)


def self_times(spans: Sequence[Sequence[Any]]) -> list[int]:
    """Each span's running time less the part of it its children cover.

    A span runs for its duration less the times its thread is parked
    inside it: the wait spans (``WAITS``) beneath it in its own thread,
    up to the span that started the thread. A wait span's own time is
    nobody's. Children may overlap one another (workers under one
    scheduler span); the union of their running times, clipped to the
    parent's interval, is subtracted.
    """
    parked: dict[int, list[tuple[int, int]]] = {}
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if span[NAME] not in WAITS:
            if parent >= 0:
                children.setdefault(parent, []).append(index)
            continue
        while parent >= 0 and spans[parent][NAME] not in SPAWNS:
            parked.setdefault(parent, []).append((span[START], span[END]))
            parent = spans[parent][PARENT]

    def running(index: int) -> list[tuple[int, int]]:
        start, end = spans[index][START], spans[index][END]
        out = []
        for p_start, p_end in _union(parked.get(index, [])):
            if p_start > start:
                out.append((start, p_start))
            start = max(start, p_end)
        if end > start:
            out.append((start, end))
        return out

    out = []
    for index, span in enumerate(spans):
        if span[NAME] in WAITS:
            out.append(0)
            continue
        start, end = span[START], span[END]
        covered = [
            (max(c_start, start), min(c_end, end))
            for child in children.get(index, ())
            for c_start, c_end in running(child)
        ]
        out.append(_length(running(index)) - _length(_union(covered)))
    return out


def has_ancestor(spans: Sequence[Sequence[Any]], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


class SpanSummary:
    """Per-layer and per-name totals over the spans ``spans[first:stop]``
    (one phase of a run; a phase's spans have their parents in it)."""

    def __init__(self, spans: Sequence[Sequence[Any]], first: int = 0, stop: int | None = None):
        self.spans = spans
        self.indexes = range(first, len(spans) if stop is None else stop)
        selfs = self_times(spans)
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        for index in self.indexes:
            span, own = spans[index], selfs[index]
            name = span[NAME]
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            self.total_ns[name] = self.total_ns.get(name, 0) + span[END] - span[START]
            self.calls[name] = self.calls.get(name, 0) + 1

    def layer_self_ns(self, layer: str) -> int:
        return sum(ns for name, ns in self.self_ns.items() if layer_of(name) == layer)

    def count_under(self, name: str, ancestor: str) -> int:
        return sum(
            1
            for index in self.indexes
            if self.spans[index][NAME] == name and has_ancestor(self.spans, index, ancestor)
        )
