"""Asyncio HTTP service: concurrent ingest + point and ranked queries.

Stdlib only — a minimal HTTP/1.1 layer: ``run_app`` serves each
connection with one :class:`_Connection`, an ``asyncio.Protocol`` state
machine made by ``loop.create_server``, with no Task and no stream
objects.  One request per connection, and every response is
``Connection: close``, which keeps shutdown exact.  The connection
buffers bytes until the request head — ended by CRLF CRLF within 64 KiB,
``StreamReader.readuntil``'s bound — and the body its
``Content-Length`` declares are whole; a longer head, or one the
client's EOF leaves without CRLF CRLF, is a 400, and so is a body the
client's EOF cuts short.  A body over 16 MiB is refused with a 413
before any of it is read, and so is an ingest whose ``counts`` add up
to more events than such a body could carry.  One ``loop.call_later``
per connection, cancelled by the reply, answers 408 and closes a
connection whose request is not whole within 30 s.  While the ingest
queue holds 4 Mi events, ``POST /ingest`` is answered 503 with
``Retry-After: 1``.  A reply is written in one ``transport.write`` and
ends with a half-close (``write_eof``) right after it, so a client
reading to EOF sees it end before the loop runs the ingest step its
POST has queued; the later ``close()`` would only land after that step
(DESIGN.md §12.4).  ``ServingApp.handle`` feeds a stream pair to the
same state machine, for callers that hold one.

Ingestion and queries share one event loop: ``POST /ingest`` enqueues a
batch and returns immediately; a background worker applies batches
through ``insert_many`` in chunks, yielding to the loop between chunks
so queries interleave.  An ingest's keys are checked and packed once,
in C: the compiled module's ``pack_keys`` refuses a non-int (``bool``
included) or a key outside ``[0, MAX_KEY]`` and packs the rest into a
uint64 buffer, so ``repro serve`` needs that module whichever kernel
it runs.  ``counts`` are packed the same way and expanded with
``np.repeat``; the queue holds the buffers, and the worker hands
memoryview slices of them to ``insert_many``, which the columnar
kernel reads in place.  Queries are answered **synchronously** inside
the connection's data callback — the event loop never switches tasks
mid-answer, so every response reflects one consistent table state
(this is also what lets the oracle self-check compare served bytes
against a full scan of the very same state).

Ranked answers (``/top_k``, ``/significant``) are assembled, not
re-rendered: the app keeps one ``canonical_json`` fragment per position
of the index's ranked prefix, valid for the index epoch it was rendered
in (DESIGN.md §12.2).  A body is the envelope's own ``canonical_json``
with the first ``n`` fragments joined into its ``results`` list, which
is byte-for-byte what encoding the whole payload would give.  Between
two table changes a ranked query therefore costs one envelope render and
a join; the fragments, like the prefix, number at most ``m``.

Endpoints:

* ``GET  /top_k?k=10``          — k most significant items (ranked prefix);
* ``GET  /query/<item>``        — point significance (kernel lookup);
* ``GET  /significant?threshold=x`` — all items ≥ threshold, ranked;
* ``POST /ingest``              — JSON ``{"items": [...], "counts": [...]}``;
* ``POST /snapshot``            — checkpoint now (also rotates);
* ``GET  /stats``               — ingest/queue/index/snapshot counters;
* ``GET  /metrics``             — Prometheus text via :mod:`repro.obs`;
* ``GET  /healthz``             — liveness.

A SIGTERM/SIGINT stops accepting connections, drains every queued
batch, writes a final snapshot (when a store is configured) and exits
cleanly — the kill-and-restart test in ``tests/test_serve_server.py``
drives this end to end through the CLI.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import signal
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as _np

from repro import obs
from repro.core import ckernel
from repro.core.ltc import LTC
from repro.core.serialize import MAX_KEY
from repro.serve.index import Report, ServingIndex
from repro.serve.oracle import (
    canonical_json,
    oracle_query,
    oracle_significant,
    oracle_top_k,
    query_payload,
    reports_payload,
)
from repro.serve.snapshots import SnapshotStore

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4; charset=utf-8"

#: Events applied per worker step before yielding back to the loop.
_INGEST_CHUNK = 4096

#: Furthest into a connection's bytes a request head may end (the
#: default limit of ``asyncio.StreamReader``, whose bound it keeps).
_HEAD_LIMIT = 64 * 1024

#: Bytes ``ServingApp.handle`` asks its reader for at a time.
_READ_SIZE = 64 * 1024

#: Largest request body read; a longer Content-Length is answered 413.
_MAX_BODY = 16 * 1024 * 1024

#: Most events one ``POST /ingest`` may carry: what a maximal plain body
#: holds (two bytes per event, as in ``1,``).  A request whose ``counts``
#: add up to more is answered 413 before anything is expanded.
_MAX_EVENTS = _MAX_BODY // 2

#: Seconds a client has to send a whole request, head and body; a
#: connection that is silent, or sends a request only in part, is
#: answered 408 and closed when they run out.
_READ_DEADLINE_S = 30.0

#: Events the ingest queue may hold before ``POST /ingest`` is refused
#: with 503 and ``Retry-After`` (4 Mi, far above a healthy backlog).
_MAX_QUEUED = 4 * 1024 * 1024

#: The integers a route accepts, in ASCII digits only, as
#: :func:`_content_length` reads a length: ``int()`` would also take
#: ``_``, a ``+`` sign, whitespace and Unicode digits.
_ITEM = re.compile(r"-?[0-9]+")
_COUNT = re.compile(r"[0-9]+")

#: Queue item: a batch of events, or ``None`` = drain-and-exit sentinel.
_Batch = Optional[Sequence[int]]
Response = Tuple[int, str, bytes]

#: An ingest whose ``counts`` add up to more than :data:`_MAX_EVENTS`.
_TOO_MANY: Response = (413, _JSON, canonical_json({"error": "too many events"}))

#: A Content-Length over :data:`_MAX_BODY`, refused before any body is read.
_BODY_TOO_LARGE: Response = (413, _JSON, canonical_json({"error": "body too large"}))

#: The request was not whole within :data:`_READ_DEADLINE_S`.
_TIMED_OUT: Response = (408, _JSON, canonical_json({"error": "request timeout"}))

#: The ingest queue is full: the one reply sent with ``Retry-After``.
_QUEUE_FULL: Response = (
    503, _JSON, canonical_json({"error": "ingest queue full, retry later"})
)


class OracleMismatch(AssertionError):
    """A served answer diverged from the full-scan oracle (self-check)."""


class ServingApp:
    """Routing, ingest worker and snapshot rotation around one LTC."""

    def __init__(
        self,
        ltc: LTC,
        *,
        snapshots: Optional[SnapshotStore] = None,
        snapshot_every: int = 0,
        check_oracle: bool = False,
        ingest_chunk: int = _INGEST_CHUNK,
    ) -> None:
        self.ltc = ltc
        self.index = ServingIndex(ltc)
        self.snapshots = snapshots
        #: Batches between automatic snapshots (0 = only at shutdown).
        self.snapshot_every = snapshot_every
        #: Compare every served answer to the full-scan oracle (bench
        #: identity gate / differential tests; costs a table scan per
        #: query, so off in production).
        self.check_oracle = check_oracle
        self.ingest_chunk = ingest_chunk
        # Checks and packs an ingest's keys; needs the compiled module
        # whichever kernel the table runs.
        self._pack_keys = ckernel.load().pack_keys
        self.ingested = 0
        self.queued = 0
        self.batches = 0
        self.periods = 0
        self.snapshots_written = 0
        self.snapshot_failures = 0
        self.oracle_checks = 0
        # Rendered report fragments, one per ranked-prefix position of
        # index epoch ``_frag_epoch``.
        self._frags: List[bytes] = []
        self._frag_epoch = -1
        # Count-based period driving: one end_period() every
        # items_per_period applied events, exactly as StreamModel.play
        # drives a batch run.  A restored checkpoint resumes mid-period.
        self._period_len = ltc.config.items_per_period
        self._fill = ltc.period_fill
        self._queue: "asyncio.Queue[_Batch]" = asyncio.Queue()
        self._worker: Optional["asyncio.Task[None]"] = None
        # The null registry hands back no-op metrics when observability
        # is disabled, so these register unconditionally; the per-request
        # inc is control-plane cost, not kernel hot path.
        reg = obs.registry()
        self._m_requests = reg.counter(
            "serve_requests_total", "HTTP requests served"
        )
        self._m_events = reg.counter(
            "serve_ingest_events_total", "events applied by the ingest worker"
        )
        self._m_snapshots = reg.counter(
            "serve_snapshots_total", "snapshots written"
        )

    # ---------------------------------------------------------------- ingest
    def submit(
        self, items: Sequence[int], counts: Optional[Sequence[int]] = None
    ) -> int:
        """Queue one batch for the worker; returns the event count.

        ``items`` is a sequence of keys or, from ``POST /ingest``, their
        uint64 buffer; ``counts[i]`` arrivals of ``items[i]`` expand into
        one with ``np.repeat``.
        """
        if counts is not None:
            items = memoryview(_np.repeat(items, counts))
        self._queue.put_nowait(items)
        self.queued += len(items)
        return len(items)

    def start(self) -> None:
        """Start the ingest worker (must run inside an event loop)."""
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(
                self._run_worker()
            )

    async def _run_worker(self) -> None:
        while True:
            batch = await self._queue.get()
            try:
                if batch is None:
                    return
                await self._apply(batch)
            finally:
                self._queue.task_done()

    async def _apply(self, items: Sequence[int]) -> None:
        total = len(items)
        i = 0
        while i < total:
            take = min(self.ingest_chunk, total - i, self._period_len - self._fill)
            part = items[i : i + take]
            # Chunked insert_many is replay-identical to one call (the
            # CLOCK accumulator carries across calls), so yielding
            # between chunks changes only query interleaving.  Chunks
            # additionally split at period boundaries so end_period
            # lands after exactly items_per_period applied events.
            self.ltc.insert_many(part)
            self._fill += take
            i += take
            self.ingested += take
            self.queued -= take
            self._m_events.inc(take)
            if self._fill == self._period_len:
                self.ltc.end_period()
                self._fill = 0
                self.periods += 1
            await asyncio.sleep(0)
        self.batches += 1
        if (
            self.snapshots is not None
            and self.snapshot_every > 0
            and self.batches % self.snapshot_every == 0
        ):
            # A failed periodic snapshot (a full disk, a count the image
            # cannot hold) must not end the worker, or every later batch
            # would stay queued; the next scheduled snapshot tries again.
            try:
                self.save_snapshot()
            except (OSError, ValueError):
                self.snapshot_failures += 1

    async def shutdown(self) -> None:
        """Drain queued batches, stop the worker, write a final snapshot."""
        if self._worker is not None:
            self._queue.put_nowait(None)
            await self._worker
            self._worker = None
        if self.snapshots is not None:
            self.save_snapshot()

    def save_snapshot(self) -> Optional[str]:
        """Checkpoint now through the configured store (rotates)."""
        if self.snapshots is None:
            return None
        path = self.snapshots.save(self.ltc)
        self.snapshots_written += 1
        self._m_snapshots.inc()
        return path.name

    # --------------------------------------------------------------- routing
    def respond(self, method: str, target: str, body: bytes = b"") -> Response:
        """Answer one request synchronously (single consistent state)."""
        self._m_requests.inc()
        try:
            parts = urlsplit(target)
        except ValueError:  # e.g. an unclosed "[" of an IPv6 authority
            return self._bad_request("malformed request target")
        path = parts.path
        query = parse_qs(parts.query)
        if path == "/top_k":
            if method != "GET":
                return self._method_not_allowed()
            raw = query.get("k")
            k = _strict_int(raw[0], _COUNT) if raw else 10
            if k is None:
                return self._bad_request("k must be a non-negative integer")
            served = self._ranked_json({"k": k}, self.index.top_k(k))
            return self._answer(served, lambda: oracle_top_k(self.ltc, k))
        if path.startswith("/query/"):
            if method != "GET":
                return self._method_not_allowed()
            item = _strict_int(path[len("/query/") :], _ITEM)
            if item is None:
                return self._bad_request("item must be an integer")
            tracked, sig, f, p = self.index.query(item)
            served = canonical_json(query_payload(item, tracked, sig, f, p))
            return self._answer(served, lambda: oracle_query(self.ltc, item))
        if path == "/significant":
            if method != "GET":
                return self._method_not_allowed()
            threshold = self._float_param(query, "threshold")
            # NaN and ±inf have no JSON encoding to echo back.
            if threshold is None or not math.isfinite(threshold):
                return self._bad_request("threshold must be a finite number")
            served = self._ranked_json(
                {"threshold": threshold}, self.index.significant(threshold)
            )
            return self._answer(
                served, lambda: oracle_significant(self.ltc, threshold)
            )
        if path == "/ingest":
            if method != "POST":
                return self._method_not_allowed()
            return self._ingest(body)
        if path == "/snapshot":
            if method != "POST":
                return self._method_not_allowed()
            if self.snapshots is None:
                return 503, _JSON, canonical_json(
                    {"error": "no snapshot store configured"}
                )
            return 200, _JSON, canonical_json({"snapshot": self.save_snapshot()})
        if path == "/stats":
            return 200, _JSON, canonical_json(self.stats())
        if path == "/metrics":
            if not obs.is_enabled():
                return 503, _JSON, canonical_json(
                    {"error": "observability disabled"}
                )
            text = obs.export.prometheus_text(obs.registry())
            return 200, _TEXT, text.encode()
        if path == "/healthz":
            return 200, _JSON, canonical_json({"status": "ok"})
        return 404, _JSON, canonical_json({"error": f"no route for {path}"})

    def stats(self) -> Dict[str, Any]:
        """Service counters (``GET /stats``; smoke tests poll ``queued``)."""
        return {
            "ingested": self.ingested,
            "queued": self.queued,
            "batches": self.batches,
            "periods": self.periods,
            "tracked": self.index.tracked(),
            "repairs": self.index.epoch,
            "heap_size": self.index.held(),
            "snapshots_written": self.snapshots_written,
            "snapshot_failures": self.snapshot_failures,
            "oracle_checks": self.oracle_checks,
        }

    def _ranked_json(
        self, envelope: Dict[str, Any], reports: List[Report]
    ) -> bytes:
        """``canonical_json`` of ``envelope`` with ``results`` = ``reports``.

        ``reports`` is a head of the index's ranked prefix, so position
        ``i`` renders the same in every answer of one epoch.
        """
        if self._frag_epoch != self.index.epoch:
            self._frag_epoch = self.index.epoch
            self._frags = []
        frags = self._frags
        if len(frags) < len(reports):
            fresh = reports[len(frags) :]
            # One encoder call for the whole extension, cut into one
            # slice per report: the objects are flat and hold only
            # numbers, so each ends at its first "}".
            rendered = canonical_json(reports_payload(fresh))
            start = 1
            for _ in fresh:
                end = rendered.index(b"}", start) + 1
                frags.append(rendered[start:end])
                start = end + 1
        empty = canonical_json({**envelope, "results": []})
        head, _, tail = empty.partition(b"[]")
        return b"%s[%s]%s" % (head, b",".join(frags[: len(reports)]), tail)

    def _answer(self, served: bytes, oracle: Callable[[], Any]) -> Response:
        if self.check_oracle:
            expect = canonical_json(oracle())
            self.oracle_checks += 1
            if served != expect:
                raise OracleMismatch(
                    f"served answer diverged from full-scan oracle:\n"
                    f"  served: {served[:512]!r}\n"
                    f"  oracle: {expect[:512]!r}"
                )
        return 200, _JSON, served

    def _ingest(self, body: bytes) -> Response:
        try:
            doc = json.loads(body.decode())
        except (ValueError, RecursionError):  # RecursionError: deep nesting
            return self._bad_request("body must be JSON")
        if not isinstance(doc, dict) or not isinstance(doc.get("items"), list):
            return self._bad_request('body must be {"items": [...]}')
        items = doc["items"]
        counts = doc.get("counts")
        if counts is not None and (
            not isinstance(counts, list) or len(counts) != len(items)
        ):
            return self._bad_request("counts must parallel items")
        # One C pass per list checks exact types (JSON booleans decode to
        # bool, an int subclass, and must not be queued as keys 1 and 0)
        # and the range, and packs the keys into a uint64 buffer.  Keys a
        # checkpoint cannot store would fail every later snapshot (the
        # shutdown one included), or restore as an empty cell.
        try:
            keys = self._pack_keys(items)
        except TypeError:
            return self._bad_request("items must be integers")
        except ValueError:
            return self._bad_request(f"items must lie in [0, {MAX_KEY}]")
        repeats = None
        if counts is not None:
            try:
                packed = _np.asarray(self._pack_keys(counts))
            except TypeError:
                return self._bad_request("counts must be non-negative integers")
            except ValueError:  # a negative count, or one past 2**64 - 2
                if min(counts) < 0:
                    return self._bad_request("counts must be non-negative integers")
                return _TOO_MANY
            # Checked before np.repeat: a few bytes of counts would
            # otherwise expand to an unbounded batch.  The maximum goes
            # first: with every count at most _MAX_EVENTS (2**23), the
            # uint64 sum of any list that fits in memory cannot wrap.
            if len(packed) and (
                packed.max() > _MAX_EVENTS or packed.sum() > _MAX_EVENTS
            ):
                return _TOO_MANY
            repeats = packed.astype(_np.intp)
        if self.queued >= _MAX_QUEUED:
            return _QUEUE_FULL
        queued = self.submit(keys, repeats)
        return 200, _JSON, canonical_json(
            {"queued": queued, "pending": self.queued}
        )

    @staticmethod
    def _float_param(
        query: Dict[str, List[str]], name: str
    ) -> Optional[float]:
        raw = query.get(name)
        if not raw or "_" in raw[0] or not raw[0].isascii():
            return None
        try:
            return float(raw[0])
        except ValueError:
            return None

    @staticmethod
    def _bad_request(message: str) -> Response:
        return 400, _JSON, canonical_json({"error": message})

    @staticmethod
    def _method_not_allowed() -> Response:
        return 405, _JSON, canonical_json({"error": "method not allowed"})

    # ------------------------------------------------------------------ http
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection given as a stream pair: ``reader``'s bytes
        go to the :class:`_Connection` that ``run_app`` serves, with
        ``writer`` as its transport."""
        conn = _Connection(self)
        conn.connection_made(writer)  # type: ignore[arg-type]
        try:
            while data := await reader.read(_READ_SIZE):
                conn.data_received(data)
            conn.eof_received()
        except OSError:  # a reset while reading: the peer went away
            pass
        finally:
            conn.connection_lost(None)
            writer.close()


class _Connection(asyncio.Protocol):
    """One connection: read one request, answer it, half-close, close.

    Bytes are buffered until the head (ended by CRLF CRLF) and the body
    its ``Content-Length`` declares are whole; the app then answers
    synchronously and the reply ends the connection.  Bytes that arrive
    after a request, or after its answer, are dropped.
    """

    def __init__(self, app: ServingApp) -> None:
        self._app = app
        #: ``None`` once the connection is answered or gone.
        self._transport: Optional[asyncio.WriteTransport] = None
        self._buf = bytearray()
        #: Where the search for CRLF CRLF resumes (as in ``readuntil``).
        self._scanned = 0
        #: ``(method, target, body length)`` once the head is read.
        self._head: Optional[Tuple[str, str, int]] = None
        self._deadline: Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        self._deadline = asyncio.get_running_loop().call_later(
            _READ_DEADLINE_S, self._reply, _TIMED_OUT
        )

    def data_received(self, data: bytes) -> None:
        if self._transport is not None:
            self._buf += data
            self._advance(eof=False)

    def eof_received(self) -> None:
        if self._transport is not None:
            self._advance(eof=True)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._forget()

    def _forget(self) -> None:
        """Stop serving: drop the transport and cancel the deadline."""
        self._transport = None
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None

    def _advance(self, eof: bool) -> None:
        """Answer the request once it is whole, or refuse it, from what
        has been buffered; ``eof`` once the client has ended its side."""
        buf = self._buf
        if self._head is None:
            end = buf.find(b"\r\n\r\n", self._scanned)
            if end < 0 and len(buf) - 3 <= _HEAD_LIMIT:
                self._scanned = max(0, len(buf) - 3)
                if eof:
                    # A bare connect is dropped, a truncated (or bare-LF)
                    # head is refused.
                    self._reply(
                        ServingApp._bad_request("malformed request") if buf else None
                    )
                return
            refusal = self._read_head(end)
            if refusal is not None:
                self._reply(refusal)
                return
        method, target, length = self._head
        if len(buf) < length:
            if eof:
                self._reply(ServingApp._bad_request("body shorter than Content-Length"))
            return
        body = bytes(buf[:length])
        try:
            response = self._app.respond(method, target, body)
        except OracleMismatch:
            self._reply(None)
            raise
        except Exception as exc:  # route bugs become 500s, not hangups
            response = 500, _JSON, canonical_json({"error": str(exc)})
        self._reply(response)

    def _read_head(self, end: int) -> Optional[Response]:
        """Take the head that ends at ``end`` (-1: none yet) off the
        buffer into ``_head``, or return the answer that refuses it."""
        # StreamReader.readuntil's bound: the head must end within
        # _HEAD_LIMIT bytes, and is refused as soon as it is known not to.
        if not 0 <= end <= _HEAD_LIMIT:
            return ServingApp._bad_request("request head too large")
        request, *fields = self._buf[:end].decode("latin-1").split("\r\n")
        del self._buf[: end + 4]
        head = request.split()
        if len(head) < 2:
            return ServingApp._bad_request("malformed request")
        length = _content_length(fields)
        if length is None:
            return ServingApp._bad_request(
                "Content-Length must be one non-negative integer"
            )
        if length > _MAX_BODY:
            return _BODY_TOO_LARGE
        self._head = head[0], head[1], length
        return None

    def _reply(self, response: Optional[Response]) -> None:
        """Send ``response`` (``None``: nothing), half-close and close;
        a no-op once the connection is answered or gone."""
        transport = self._transport
        if transport is None:
            return
        self._forget()
        self._buf = bytearray()
        try:
            if response is not None:
                transport.write(_render(response))
                # Half-close here, not at close(): the transport closes
                # its socket from a call_soon callback, queued behind the
                # worker wakeup a POST has just made, so a client reading
                # to EOF would otherwise wait out the whole batch
                # (DESIGN.md §12.4).
                transport.write_eof()
        except OSError:
            # The peer went away: a reset, or (ENOTCONN) a half-close
            # after it had already closed its end.
            pass
        finally:
            transport.close()


def _render(response: Response) -> bytes:
    """The bytes of one ``Connection: close`` reply."""
    status, ctype, payload = response
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        + ("Retry-After: 1\r\n" if response is _QUEUE_FULL else "")
        + "Connection: close\r\n\r\n"
    ).encode("latin-1")
    return head + payload


def _strict_int(raw: str, pattern: "re.Pattern[str]") -> Optional[int]:
    """``raw`` as an int if ``pattern`` matches all of it, else ``None``
    (also past ``int()``'s 4300-digit limit)."""
    if pattern.fullmatch(raw) is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _content_length(fields: List[str]) -> Optional[int]:
    """The body length a request head declares (0 when it declares none).

    ``None`` for a value that is not ``1*DIGIT`` (``int()`` would also
    take a sign, underscores, and Unicode digits or whitespace) and for
    repeated fields that disagree (RFC 9112 §6.3).  A value over
    :data:`_MAX_BODY` may come back as ``_MAX_BODY + 1``.
    """
    lengths: "set[int]" = set()
    for field in fields:
        name, _, value = field.partition(":")
        if name.strip().lower() != "content-length":
            continue
        value = value.strip(" \t")
        if not (value.isascii() and value.isdigit()):
            return None
        # int() refuses strings over 4300 digits, and past 18 significant
        # digits the value is over the cap anyway.
        digits = value.lstrip("0")
        lengths.add(int(digits or "0") if len(digits) <= 18 else _MAX_BODY + 1)
    if len(lengths) > 1:
        return None
    return lengths.pop() if lengths else 0


async def run_app(
    app: ServingApp,
    host: str = "127.0.0.1",
    port: int = 8421,
    *,
    ready: Optional[Callable[[str, int], None]] = None,
    stop_event: Optional[asyncio.Event] = None,
) -> None:
    """Serve ``app`` until SIGTERM/SIGINT (or ``stop_event``), then drain.

    ``port`` 0 binds an ephemeral port; ``ready(host, actual_port)`` is
    called once listening (the CLI prints it so harnesses can connect).
    """
    app.start()
    server = await asyncio.get_running_loop().create_server(
        lambda: _Connection(app), host, port
    )
    actual_port = port
    for sock in server.sockets:
        actual_port = sock.getsockname()[1]
        break
    stop = stop_event if stop_event is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: List[signal.Signals] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread / platforms without signal support
    try:
        if ready is not None:
            ready(host, actual_port)
        await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        server.close()
        await server.wait_closed()
        await app.shutdown()
