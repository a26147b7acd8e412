"""Asyncio HTTP service: concurrent ingest + O(1)/O(k) queries.

Stdlib only — a minimal HTTP/1.1 layer over ``asyncio.start_server``
(every response is ``Connection: close``, which keeps shutdown exact).
Ingestion and queries share one event loop: ``POST /ingest`` enqueues a
batch and returns immediately; a background worker applies batches
through ``insert_many`` in chunks, yielding to the loop between chunks
so queries interleave.  Queries are answered **synchronously** inside
the handler — the event loop never switches tasks mid-answer, so every
response reflects one consistent table state (this is also what lets
the oracle self-check compare served bytes against a full scan of the
very same state).

Endpoints:

* ``GET  /top_k?k=10``          — k most significant items (index heap);
* ``GET  /query/<item>``        — point significance (index dict probe);
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
import signal
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.core.ltc import LTC
from repro.serve.index import ServingIndex
from repro.serve.oracle import (
    canonical_json,
    oracle_query,
    oracle_significant,
    oracle_top_k,
    query_payload,
    reports_payload,
)
from repro.serve.snapshots import SnapshotStore
from repro.summaries.base import expand_counts

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4; charset=utf-8"

#: Events applied per worker step before yielding back to the loop.
_INGEST_CHUNK = 4096

#: Queue item: a batch of events, or ``None`` = drain-and-exit sentinel.
_Batch = Optional[List[int]]
Response = Tuple[int, str, bytes]


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
        self.ingested = 0
        self.queued = 0
        self.batches = 0
        self.periods = 0
        self.snapshots_written = 0
        self.oracle_checks = 0
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
    def submit(self, items: List[int], counts: Optional[List[int]] = None) -> int:
        """Queue one batch for the worker; returns the event count."""
        if counts is not None:
            items = list(expand_counts(items, counts))
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

    async def _apply(self, items: List[int]) -> None:
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
            self.save_snapshot()

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
        parts = urlsplit(target)
        path = parts.path
        query = parse_qs(parts.query)
        if path == "/top_k":
            if method != "GET":
                return self._method_not_allowed()
            k = self._int_param(query, "k", 10)
            if k is None or k < 0:
                return self._bad_request("k must be a non-negative integer")
            payload = {"k": k, "results": reports_payload(self.index.top_k(k))}
            return self._answer(payload, lambda: oracle_top_k(self.ltc, k))
        if path.startswith("/query/"):
            if method != "GET":
                return self._method_not_allowed()
            try:
                item = int(path[len("/query/") :])
            except ValueError:
                return self._bad_request("item must be an integer")
            tracked, sig, f, p = self.index.query(item)
            payload = query_payload(item, tracked, sig, f, p)
            return self._answer(payload, lambda: oracle_query(self.ltc, item))
        if path == "/significant":
            if method != "GET":
                return self._method_not_allowed()
            threshold = self._float_param(query, "threshold")
            if threshold is None:
                return self._bad_request("threshold must be a number")
            payload = {
                "threshold": float(threshold),
                "results": reports_payload(self.index.significant(threshold)),
            }
            return self._answer(
                payload, lambda: oracle_significant(self.ltc, threshold)
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
            "repairs": self.index.repairs,
            "heap_size": self.index.heap_size(),
            "snapshots_written": self.snapshots_written,
            "oracle_checks": self.oracle_checks,
        }

    def _answer(self, payload: Any, oracle: Callable[[], Any]) -> Response:
        served = canonical_json(payload)
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
        except (ValueError, UnicodeDecodeError):
            return self._bad_request("body must be JSON")
        if not isinstance(doc, dict) or not isinstance(doc.get("items"), list):
            return self._bad_request('body must be {"items": [...]}')
        items = doc["items"]
        counts = doc.get("counts")
        if counts is not None and (
            not isinstance(counts, list) or len(counts) != len(items)
        ):
            return self._bad_request("counts must parallel items")
        # ``type(x) is int``, not isinstance: JSON booleans decode to bool,
        # an int subclass, and must not be queued as keys 1 and 0.
        if not all(type(x) is int for x in items):
            return self._bad_request("items must be integers")
        if counts is not None and not all(
            type(c) is int and c >= 0 for c in counts
        ):
            return self._bad_request("counts must be non-negative integers")
        queued = self.submit(items, counts)
        return 200, _JSON, canonical_json(
            {"queued": queued, "pending": self.queued}
        )

    @staticmethod
    def _int_param(
        query: Dict[str, List[str]], name: str, default: int
    ) -> Optional[int]:
        raw = query.get(name)
        if not raw:
            return default
        try:
            return int(raw[0])
        except ValueError:
            return None

    @staticmethod
    def _float_param(
        query: Dict[str, List[str]], name: str
    ) -> Optional[float]:
        raw = query.get(name)
        if not raw:
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
        """One connection: parse a request, answer, close."""
        try:
            request = await reader.readline()
            if not request:
                return
            head = request.decode("latin-1").split()
            if len(head) < 2:
                await self._write(writer, self._bad_request("malformed request"))
                return
            method, target = head[0], head[1]
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        length = int(value.strip())
                    except ValueError:
                        length = 0
            body = await reader.readexactly(length) if length else b""
            try:
                response = self.respond(method, target, body)
            except OracleMismatch:
                raise
            except Exception as exc:  # route bugs become 500s, not hangups
                response = 500, _JSON, canonical_json({"error": str(exc)})
            await self._write(writer, response)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, response: Response) -> None:
        status, ctype, payload = response
        reason = _REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + payload)
        await writer.drain()


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
    server = await asyncio.start_server(app.handle, host, port)
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
