"""Span recorder for traced runs: wraps public functions from outside.

Nothing under ``src/`` knows about it.  ``install_*`` replaces public
functions and methods of ``repro.core`` and ``repro.serve`` with
wrappers that record a span per call: name,
start, end, parent, trace id, and busy time.  Busy time is the CPU time
of the calling thread: for a plain function during the call, for a
coroutine during the steps it ran on the event loop, so time spent in
other tasks while it awaited is not charged to it.  Self time is busy
time minus the busy time of the direct children.

Per-event functions (``insert``, ``cell_state``, listener calls) would
swamp memory as spans, so they are *leaves*: each call adds its count
and duration to a per-(name, parent name) aggregate and to the parent's
child time.  Spans stay in memory and are written once, by ``dump``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import selectors
import threading
import time
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

ns = time.perf_counter_ns
cpu_ns = time.thread_time_ns

# Span record fields (a list, so it can be filled in place).
NAME, START, END, PARENT, TRACE, BUSY, CHILD = range(7)


class Recorder:
    """In-memory spans of one process.

    Each thread has its own stack of open spans (the server applies
    ingest batches on a thread of its own), and busy time is the
    thread's CPU time, so a thread waiting for the GIL is not busy.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[List[Any]] = []
        self.leaves: Dict[Tuple[str, str], List[int]] = {}
        self.counts: Dict[str, int] = {}
        self.trace = 0
        self._next_trace = 1 << 20
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def stack(self) -> List[int]:
        """Indices of this thread's open spans, innermost last."""
        try:
            return self._local.stack  # type: ignore[no-any-return]
        except AttributeError:
            self._local.stack, self._local.cpu0 = [], []
            return self._local.stack  # type: ignore[no-any-return]

    def new_trace(self) -> int:
        with self._lock:
            self._next_trace += 1
            return self._next_trace

    # ------------------------------------------------------------ recording
    def open(self, name: str, trace: Optional[int] = None) -> int:
        stack = self.stack
        parent = stack[-1] if stack else -1
        if trace is None:
            trace = self.spans[parent][TRACE] if parent >= 0 else self.trace
        with self._lock:
            self.spans.append([name, ns(), 0, parent, trace, 0, 0])
            index = len(self.spans) - 1
        stack.append(index)
        self._local.cpu0.append(cpu_ns())
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = ns()
        busy = cpu_ns() - self._local.cpu0[-1]
        span[BUSY] += busy
        self._pop(span[PARENT], busy)

    def _pop(self, outer: int, busy: int) -> None:
        self.stack.pop()
        self._local.cpu0.pop()
        if outer >= 0:
            self.spans[outer][CHILD] += busy

    def leaf(self, name: str, elapsed: int, amount: int = 1) -> None:
        parent_name = ""
        if self.stack:
            top = self.spans[self.stack[-1]]
            top[CHILD] += elapsed
            parent_name = top[NAME]
        entry = self.leaves.setdefault((name, parent_name), [0, 0, 0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += amount

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # --------------------------------------------------------- coroutines
    def stepped(self, name: str, coro: Any, trace: int) -> Generator[Any, Any, Any]:
        """Drive ``coro`` and charge only its own loop steps to a span."""
        index = -1
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            # Each step runs inside whatever span is open now (the loop
            # callback that resumed the coroutine), which is charged for it.
            outer = self.stack[-1] if self.stack else -1
            if index < 0:
                index = self.open(name, trace)
            else:
                self.stack.append(index)
                self._local.cpu0.append(cpu_ns())
            try:
                yielded = coro.throw(error) if error is not None else coro.send(value)
            except StopIteration as stop:
                self._suspend(index, outer, final=True)
                return stop.value
            except BaseException:
                self._suspend(index, outer, final=True)
                raise
            self._suspend(index, outer, final=False)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc

    def _suspend(self, index: int, outer: int, final: bool) -> None:
        span = self.spans[index]
        busy = cpu_ns() - self._local.cpu0[-1]
        span[BUSY] += busy
        if final:
            span[END] = ns()
        self._pop(outer, busy)

    # ------------------------------------------------------------- output
    def dump(self, path: str, **extra: Any) -> None:
        doc = {
            "pid": self.pid,
            "spans": self.spans,
            "leaves": [[n, p, *v] for (n, p), v in self.leaves.items()],
            "counts": self.counts,
            **extra,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


# ------------------------------------------------------------------ wrappers
def wrap(
    rec: Recorder,
    owner: Any,
    attr: str,
    name: str,
    after: Optional[Callable[[Any, Tuple[Any, ...], List[Any]], None]] = None,
    trace: Optional[Callable[[Tuple[Any, ...]], Optional[int]]] = None,
) -> None:
    """Record a span around every call of ``owner.attr``.

    ``trace(args)`` may pick the span's trace id; ``after(result, args,
    span)`` runs once the span is closed.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = rec.open(name, trace(args) if trace else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(result, args, rec.spans[index])
        return result

    setattr(owner, attr, wrapper)


def wrap_leaf(
    rec: Recorder,
    owner: Any,
    attr: str,
    name: str,
    amount: Optional[Callable[[Tuple[Any, ...]], int]] = None,
    timer: Callable[[], int] = ns,
) -> None:
    """Aggregate count and time of ``owner.attr`` under its caller's span."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = timer()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leaf(name, timer() - start, amount(args) if amount else 1)

    setattr(owner, attr, wrapper)


def install_core(rec: Recorder, cls: type, queue: Optional["QueueClock"] = None) -> None:
    """Spans on the kernel class ``cls`` (``repro.core``).

    With a ``queue``, each ``insert_many`` also closes the queue wait of
    the batches it starts to apply and carries the first one's trace id.
    """

    def events(_result: Any, args: Tuple[Any, ...], _span: List[Any]) -> None:
        rec.count("core.insert_many.events", len(args[1]))
        if queue is not None:
            queue.applied += len(args[1])

    wrap(rec, cls, "insert_many", "core.insert_many", after=events,
         trace=(lambda a: queue.starting(len(a[1]))) if queue else None)
    wrap(rec, cls, "end_period", "core.end_period")
    wrap(rec, cls, "top_k", "core.top_k")
    wrap_leaf(rec, cls, "insert", "core.insert")
    wrap_leaf(rec, cls, "cell_state", "core.cell_state")


def install_serve(rec: Recorder, queue: "QueueClock") -> None:
    """Spans on ``repro.serve``: HTTP, routing, ingest queue, index, render."""
    from repro.serve import server
    from repro.serve.index import ServingIndex
    from repro.serve.server import ServingApp

    # Each loop iteration is a top-level span and every callback it runs
    # (accepting, socket reads, task steps) a span under it; the self
    # time of both is asyncio's own work.  Without the iteration span the
    # loop's bookkeeping between callbacks went unattributed, 10% of the
    # server's CPU at 3k queries/s.  Polling for I/O blocks while idle,
    # so it is charged in CPU time.
    wrap(rec, asyncio.base_events.BaseEventLoop, "_run_once", "serve.loop")
    wrap(rec, asyncio.events.Handle, "_run", "serve.loop")
    wrap_leaf(rec, selectors.DefaultSelector, "select", "serve.loop.poll",
              timer=time.thread_time_ns)

    handle = ServingApp.handle

    @functools.wraps(handle)
    async def traced_handle(self: Any, reader: Any, writer: Any) -> None:
        return await _Awaitable(rec.stepped("serve.http", handle(self, reader, writer), rec.new_trace()))

    ServingApp.handle = traced_handle  # type: ignore[method-assign]

    respond = ServingApp.respond

    @functools.wraps(respond)
    def traced_respond(self: Any, method: str, target: str, body: bytes = b"") -> Any:
        path = target.split("?", 1)[0]
        route = "/query" if path.startswith("/query/") else path
        index = rec.open(f"serve.respond:{route}")
        try:
            return respond(self, method, target, body)
        finally:
            rec.close(index)

    ServingApp.respond = traced_respond  # type: ignore[method-assign]
    wrap(rec, ServingApp, "submit", "serve.submit",
         after=lambda n, _a, span: queue.submitted(n, span[TRACE], span[START]))
    wrap(rec, server, "canonical_json", "serve.render")
    for attr in ("query", "top_k", "significant", "tracked"):
        wrap(rec, ServingIndex, attr, "serve.index")
    wrap_leaf(rec, ServingIndex, "cell_touched", "serve.listener")
    wrap_leaf(rec, ServingIndex, "cells_touched", "serve.listener",
              amount=lambda a: len(a[1]))


class _Awaitable:
    def __init__(self, gen: Generator[Any, Any, Any]) -> None:
        self._gen = gen

    def __await__(self) -> Generator[Any, Any, Any]:
        return (yield from self._gen)


class QueueClock:
    """Submit → first ``insert_many`` covering the batch, from outside.

    Batches are applied in submit order, so a batch's first event is at
    a known offset of the applied stream; the ``insert_many`` that
    crosses that offset is the first to cover it, and inherits the
    batch's trace id.
    """

    def __init__(self) -> None:
        self.submitted_events = 0
        self.applied = 0
        self.pending: List[Tuple[int, int, int]] = []  # (start offset, trace, t)
        self.waits: List[int] = []
        self.depth_max = 0
        self.current: Optional[int] = None

    def submitted(self, events: int, trace: int, t: int) -> None:
        self.depth_max = max(self.depth_max, self.submitted_events + events - self.applied)
        self.pending.append((self.submitted_events, trace, t))
        self.submitted_events += events

    def starting(self, events: int) -> Optional[int]:
        """An ``insert_many`` of ``events`` starts now; the trace id of the
        batch holding its first event."""
        trace = self.current
        now = ns()
        while self.pending and self.pending[0][0] < self.applied + events:
            start, batch, t = self.pending.pop(0)
            self.waits.append(now - t)
            if start == self.applied:
                trace = batch
            self.current = batch
        return trace


# ------------------------------------------------------------------ analysis
def self_ns(span: List[Any]) -> int:
    return int(span[BUSY] - span[CHILD])


def load(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        doc: Dict[str, Any] = json.load(fh)
    return doc


def totals(docs: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy and self seconds."""
    out: Dict[str, Dict[str, float]] = {}
    for doc in docs:
        for span in doc["spans"]:
            entry = out.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += span[BUSY] / 1e9
            entry["self_s"] += self_ns(span) / 1e9
        for name, _parent, calls, elapsed, _amount in doc["leaves"]:
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["busy_s"] += elapsed / 1e9
            entry["self_s"] += elapsed / 1e9
    return out


def top_level_s(doc: Dict[str, Any]) -> float:
    """Busy seconds of the program's outermost spans and leaves.

    Spans named ``bench.*`` are the benchmark's own (a pass around the
    calls); they are not the program's, so their children count as
    outermost.
    """
    spans = doc["spans"]

    def outer(parent: int) -> bool:
        return parent < 0 or spans[parent][NAME].startswith("bench.")

    total = sum(
        s[BUSY] for s in spans
        if outer(s[PARENT]) and not s[NAME].startswith("bench.")
    )
    total += sum(
        e for _n, parent, _c, e, _a in doc["leaves"]
        if not parent or parent.startswith("bench.")
    )
    return total / 1e9


def leaf_amount(docs: List[Dict[str, Any]], name: str, parent: Optional[str] = None) -> Tuple[int, int]:
    """``(calls, amount)`` of a leaf, optionally only under ``parent``."""
    calls = amount = 0
    for doc in docs:
        for n, p, c, _e, a in doc["leaves"]:
            if n == name and (parent is None or p == parent):
                calls += c
                amount += a
    return calls, amount
