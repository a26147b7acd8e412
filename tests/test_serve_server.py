"""ServingApp HTTP behaviour, shutdown draining, kill-and-restart recovery.

In-process tests drive the asyncio server on an ephemeral port; the
recovery test runs the real CLI in a subprocess, SIGKILLs it mid-life,
and restarts from the rotated snapshot directory.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import obs
from repro.core.config import LTCConfig
from repro.core.kernels import build_ltc
from repro.serve import server
from repro.serve.server import ServingApp, run_app
from repro.serve.snapshots import SnapshotStore

REPO = Path(__file__).resolve().parents[1]


def _cfg(**kw):
    base = dict(num_buckets=8, bucket_width=2, items_per_period=64)
    base.update(kw)
    return LTCConfig(**base)


async def _http(port, method, path, body=b""):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), payload


async def _raw(port, data, *, half_close=False):
    """Send ``data`` as is, optionally half-close, read the reply to EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    if half_close:
        writer.write_eof()
    await writer.drain()
    raw = await reader.read()
    writer.close()
    return raw


class _Server:
    """Run one app on an ephemeral port inside the current loop."""

    def __init__(self, app):
        self.app = app
        self.port = None
        self.stop = asyncio.Event()
        self.task = None

    async def __aenter__(self):
        started = asyncio.Event()

        def ready(_host, port):
            self.port = port
            started.set()

        self.task = asyncio.ensure_future(
            run_app(self.app, "127.0.0.1", 0, ready=ready, stop_event=self.stop)
        )
        await started.wait()
        return self

    async def __aexit__(self, *exc):
        self.stop.set()
        await self.task


class TestEndpoints:
    def test_round_trip_over_http(self, tmp_path):
        async def scenario():
            app = ServingApp(
                build_ltc(_cfg()),
                snapshots=SnapshotStore(tmp_path, retain=2),
                check_oracle=True,
            )
            async with _Server(app) as srv:
                body = json.dumps({"items": list(range(10)) * 40}).encode()
                status, payload = await _http(srv.port, "POST", "/ingest", body)
                assert status == 200 and json.loads(payload)["queued"] == 400
                while json.loads((await _http(srv.port, "GET", "/stats"))[1])["queued"]:
                    await asyncio.sleep(0.005)
                status, payload = await _http(srv.port, "GET", "/top_k?k=3")
                assert status == 200
                assert len(json.loads(payload)["results"]) == 3
                status, payload = await _http(srv.port, "GET", "/query/5")
                assert status == 200 and json.loads(payload)["tracked"] is True
                status, payload = await _http(
                    srv.port, "GET", "/significant?threshold=1"
                )
                assert status == 200 and json.loads(payload)["results"]
                status, _ = await _http(srv.port, "GET", "/healthz")
                assert status == 200
                status, payload = await _http(srv.port, "POST", "/snapshot")
                assert status == 200 and json.loads(payload)["snapshot"]

        asyncio.run(scenario())

    def test_error_statuses(self):
        async def scenario():
            app = ServingApp(build_ltc(_cfg()))
            async with _Server(app) as srv:
                assert (await _http(srv.port, "GET", "/nope"))[0] == 404
                assert (await _http(srv.port, "POST", "/top_k"))[0] == 405
                assert (await _http(srv.port, "GET", "/query/abc"))[0] == 400
                assert (await _http(srv.port, "GET", "/top_k?k=-1"))[0] == 400
                assert (await _http(srv.port, "GET", "/significant"))[0] == 400
                assert (await _http(srv.port, "POST", "/ingest", b"{"))[0] == 400
                assert (
                    await _http(
                        srv.port, "POST", "/ingest", b'{"items": ["x"]}'
                    )
                )[0] == 400
                assert (await _http(srv.port, "POST", "/snapshot"))[0] == 503

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "length",
        [b"-5", b"abc", b"", b"+5", b"1_0", b"\x0b7", b"7\xa0", b"\xb2"],
    )
    def test_bad_content_length_is_400(self, length):
        # A negative length used to reach readexactly() and drop the
        # connection unanswered; a non-numeric one was read as 0 and the
        # request answered as if it had no body.  The value is 1*DIGIT:
        # int() also took a sign, underscores and Unicode whitespace, and
        # the server then waited for a body the client never sent.
        async def scenario():
            app = ServingApp(build_ltc(_cfg()))
            async with _Server(app) as srv:
                raw = await asyncio.wait_for(
                    _raw(
                        srv.port,
                        b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                        b"Content-Length: " + length + b"\r\n\r\n",
                    ),
                    timeout=5,
                )
                assert int(raw.split()[1]) == 400

        asyncio.run(scenario())

    def test_conflicting_content_lengths_are_400(self):
        # RFC 9112 §6.3: differing repeats are unrecoverable framing
        # errors.  Equal repeats declare one length.
        async def scenario():
            app = ServingApp(build_ltc(_cfg()))
            async with _Server(app) as srv:
                raw = await _raw(
                    srv.port,
                    b"GET /healthz HTTP/1.1\r\nContent-Length: 3\r\n"
                    b"Content-Length: 5\r\n\r\n",
                    half_close=True,
                )
                assert int(raw.split()[1]) == 400
                raw = await _raw(
                    srv.port,
                    b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\n"
                    b"Content-Length: 02\r\n\r\n{}",
                )
                assert int(raw.split()[1]) == 200

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "length",
        [str(16 * 1024 * 1024 + 1).encode(), b"1000000000000", b"9" * 5000],
        ids=["cap+1", "1e12", "5000-digits"],
    )
    def test_oversize_body_is_413_before_reading_it(self, length):
        # The body used to go straight to readexactly(): the server
        # buffered until EOF for any length the client named.  The reply
        # must come while the client still holds its side open.
        async def scenario():
            app = ServingApp(build_ltc(_cfg()))
            async with _Server(app) as srv:
                raw = await asyncio.wait_for(
                    _raw(
                        srv.port,
                        b"POST /ingest HTTP/1.1\r\nContent-Length: " + length
                        + b"\r\n\r\n",
                    ),
                    timeout=5,
                )
                assert int(raw.split()[1]) == 413
                assert b"body too large" in raw
                assert app.batches == 0

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "fields",
        [
            b"X-Pad: " + b"a" * 70_000 + b"\r\n",  # one line over 64 KiB
            b"X: y\r\n" * 12_000,  # many lines, 72 KiB in all
        ],
        ids=["long-line", "many-lines"],
    )
    def test_oversize_head_is_400(self, fields):
        # The head is read in one read bounded by the stream's 64 KiB
        # limit.  A longer line used to raise ValueError out of handle()
        # (no reply, a logged traceback); any number of lines was read.
        async def scenario():
            app = ServingApp(build_ltc(_cfg()))
            async with _Server(app) as srv:
                raw = await _raw(
                    srv.port, b"GET /healthz HTTP/1.1\r\n" + fields + b"\r\n"
                )
                assert int(raw.split()[1]) == 400
                assert b"too large" in raw

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /healthz HTTP/1.1\n\n",  # bare LF (RFC 9112 §2.2: a MAY)
            b"GET /healthz HTTP/1.1\r\nHost: t\n\n",
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n",  # no blank line
        ],
        ids=["bare-lf", "bare-lf-end", "truncated"],
    )
    def test_head_without_crlf_crlf_is_400(self, head):
        # Only CRLF CRLF ends a head: a client that sends anything else
        # and then ends its side is refused, not answered 200.
        async def scenario():
            app = ServingApp(build_ltc(_cfg()))
            async with _Server(app) as srv:
                raw = await _raw(srv.port, head, half_close=True)
                assert int(raw.split()[1]) == 400
                assert b"malformed request" in raw

        asyncio.run(scenario())

    def test_peer_closing_unread_is_not_an_error(self):
        # A client that closes before reading makes the server's
        # half-close fail with ENOTCONN; that is a departed peer, not an
        # unhandled exception in the connection callback.
        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, ctx: errors.append(ctx)
            )
            app = ServingApp(build_ltc(_cfg()))
            async with _Server(app) as srv:

                def client():
                    with socket.create_connection(("127.0.0.1", srv.port)) as s:
                        s.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")

                for _ in range(20):
                    await asyncio.to_thread(client)
                await asyncio.sleep(0.05)
            assert errors == []

        asyncio.run(scenario())

    def test_reply_ends_before_the_batch_is_applied(self):
        # close() only schedules the socket close, behind the worker
        # wakeup that the POST queued; the reply must end (FIN) before
        # that worker step runs, not after its insert_many.
        app = ServingApp(build_ltc(_cfg()))
        eof_seen = threading.Event()
        waits = []
        insert_many = app.ltc.insert_many

        def gated_insert_many(items, *args, **kwargs):
            # Blocks the event loop: the client thread can only see EOF
            # here if the server had already ended the reply.
            waits.append(eof_seen.wait(2.0))
            return insert_many(items, *args, **kwargs)

        app.ltc.insert_many = gated_insert_many
        body = json.dumps({"items": list(range(10))}).encode()

        async def scenario():
            async with _Server(app) as srv:

                def client():
                    addr = ("127.0.0.1", srv.port)
                    with socket.create_connection(addr, timeout=10) as s:
                        s.sendall(
                            b"POST /ingest HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                            % len(body) + body
                        )
                        raw = b""
                        while chunk := s.recv(65536):
                            raw += chunk
                    eof_seen.set()
                    return raw

                raw = await asyncio.to_thread(client)
                assert int(raw.split()[1]) == 200
                await asyncio.wait_for(app._queue.join(), 10)

        asyncio.run(scenario())
        assert waits == [True]
        assert app.ingested == 10

    @pytest.mark.parametrize("threshold", ["nan", "NaN", "inf", "-inf", "1e400"])
    def test_non_finite_threshold_is_400(self, threshold):
        # NaN and ±inf have no JSON spelling: answering would emit
        # invalid JSON such as {"threshold":NaN}.
        app = ServingApp(build_ltc(_cfg()))
        app.ltc.insert_many(list(range(10)))
        status, _, payload = app.respond(
            "GET", f"/significant?threshold={threshold}"
        )
        assert status == 400
        json.loads(payload)

    @pytest.mark.parametrize(
        "target",
        [
            "/query/5_000",
            "/query/+5000",
            "/query/\u0665",
            "/query/ 5",
            "/query/--5",
            "/query/" + "9" * 5000,
            "/top_k?k=1_0",
            "/top_k?k=+3",
            "/top_k?k=%2B3",
            "/top_k?k=-0",
            "/top_k?k=\u0663",
            "/top_k?k=%D9%A3",
            "/top_k?k=3%20",
            "/significant?threshold=1_0",
            "/significant?threshold=\u0663",
            "/significant?threshold=%D9%A3.5",
        ],
    )
    def test_route_numbers_are_ascii_digits(self, target):
        # int() and float() take underscores, signs, surrounding
        # whitespace and Unicode digits, and parse_qs turns "+" into a
        # space; all of these used to answer 200.
        app = ServingApp(build_ltc(_cfg()))
        app.ltc.insert_many(list(range(10)))
        status, _, payload = app.respond("GET", target)
        assert status == 400
        assert "error" in json.loads(payload)

    @pytest.mark.parametrize(
        "target",
        [
            "/query/-5",
            "/query/007",
            "/query/18446744073709551616",
            "/top_k?k=0",
            "/top_k?k=0012",
            "/top_k?k=1000000000000000000",
            "/significant?threshold=-2.5",
            "/significant?threshold=1e3",
        ],
    )
    def test_route_numbers_in_ascii_digits_are_served(self, target):
        app = ServingApp(build_ltc(_cfg()), check_oracle=True)
        app.ltc.insert_many(list(range(10)))
        status, _, _ = app.respond("GET", target)
        assert status == 200

    @pytest.mark.parametrize(
        "doc",
        [
            {"items": [True, False, 1]},
            {"items": [1, 2], "counts": [-3, 1]},
            {"items": [1], "counts": ["x"]},
            {"items": [1], "counts": [True]},
            {"items": [1], "counts": [1.5]},
            {"items": [1.0]},
        ],
    )
    def test_ingest_rejects_bad_payloads(self, doc):
        # bool is an int subclass, and bad counts must be refused before
        # np.repeat sees them: all are client errors, none queued.
        app = ServingApp(build_ltc(_cfg()))
        status, _, payload = app.respond(
            "POST", "/ingest", json.dumps(doc).encode()
        )
        assert status == 400, payload
        assert app.queued == 0

    @pytest.mark.parametrize("field", ["items", "counts"])
    @pytest.mark.parametrize(
        "value", [True, 1.5, "1", None, [1]], ids=repr
    )
    def test_ingest_rejects_non_int_values(self, field, value):
        # Every non-int JSON value, in either list, is a 400: bool is an
        # int subclass, so exact types are what is checked.
        doc = {"items": [1, 2], "counts": [1, 1]}
        doc[field] = [1, value]
        app = ServingApp(build_ltc(_cfg()))
        status, _, payload = app.respond(
            "POST", "/ingest", json.dumps(doc).encode()
        )
        assert status == 400, payload
        assert field.encode() in payload
        assert app.queued == 0

    @pytest.mark.parametrize(
        "key", [-1, 2**64 - 1, 2**70], ids=["negative", "empty-key", "2**70"]
    )
    def test_ingest_rejects_keys_a_checkpoint_cannot_store(self, tmp_path, key):
        # A negative key or one past 2**64 - 1 used to be queued, then
        # failed every /snapshot (and the shutdown snapshot) with a
        # struct.error; 2**64 - 1, the checkpoint's empty-cell key, was
        # stored and then lost on restore.  All are client errors.
        async def scenario():
            app = ServingApp(
                build_ltc(_cfg(kernel="columnar")),
                snapshots=SnapshotStore(tmp_path, retain=2),
            )
            async with _Server(app) as srv:
                body = json.dumps({"items": [key, 5, 6]}).encode()
                status, payload = await _http(srv.port, "POST", "/ingest", body)
                assert status == 400, payload
                assert str(2**64 - 2).encode() in payload
                stats = json.loads((await _http(srv.port, "GET", "/stats"))[1])
                assert stats["queued"] == 0
                status, _ = await _http(srv.port, "POST", "/snapshot")
                assert status == 200

        asyncio.run(scenario())

    def test_ingest_accepts_zero_counts(self):
        app = ServingApp(build_ltc(_cfg()))
        body = json.dumps({"items": [4, 5, 6], "counts": [2, 0, 1]}).encode()
        status, _, payload = app.respond("POST", "/ingest", body)
        assert status == 200
        assert json.loads(payload)["queued"] == 3

    def test_counts_beyond_a_maximal_body_are_413(self, monkeypatch):
        # A 44-byte body {"items":[1,2],"counts":[30000000,30000000]} used
        # to expand and queue 60M events.  No request may carry more events
        # than a maximal 16 MiB plain body (two bytes an event), and the
        # check must come before anything is expanded.
        cap = 16 * 1024 * 1024 // 2
        expanded = []
        # submit is where counts expand (np.repeat): it must not be reached.
        monkeypatch.setattr(
            ServingApp, "submit",
            lambda self, items, counts=None: expanded.append(len(items)) or 0,
        )
        app = ServingApp(build_ltc(_cfg()))
        body = json.dumps({"items": [1, 2], "counts": [cap, 1]}).encode()
        status, _, payload = app.respond("POST", "/ingest", body)
        assert status == 413, payload
        assert app.queued == 0 and not expanded

    def test_full_queue_is_503_with_retry_after(self, monkeypatch):
        # The ingest queue used to grow without bound.  With the worker
        # not started, fill it to the bound: the next POST is refused with
        # Retry-After and queues nothing; once the worker drains it, the
        # same POST is accepted.  The other 503s carry no Retry-After.
        monkeypatch.setattr(server, "_MAX_QUEUED", 1000)

        async def scenario():
            app = ServingApp(build_ltc(_cfg()))
            listener = await asyncio.start_server(app.handle, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            body = json.dumps({"items": list(range(10))}).encode()
            post = (
                b"POST /ingest HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body) + body
            )
            try:
                app.submit([7] * 1000)
                head = (await _raw(port, post)).partition(b"\r\n\r\n")[0]
                assert int(head.split()[1]) == 503
                assert b"\r\nRetry-After: 1" in head
                assert app.queued == 1000
                for request in (
                    b"GET /metrics HTTP/1.1\r\n\r\n",
                    b"POST /snapshot HTTP/1.1\r\n\r\n",
                ):
                    head = (await _raw(port, request)).partition(b"\r\n\r\n")[0]
                    assert int(head.split()[1]) == 503
                    assert b"Retry-After" not in head
                app.start()
                await app._queue.join()
                assert app.queued == 0
                head = (await _raw(port, post)).partition(b"\r\n\r\n")[0]
                assert int(head.split()[1]) == 200
                await app.shutdown()
                assert app.ingested == 1010
            finally:
                listener.close()
                await listener.wait_closed()

        asyncio.run(scenario())

    def test_metrics_endpoint_exposes_serve_counters(self):
        async def scenario():
            obs.enable()
            try:
                app = ServingApp(build_ltc(_cfg()))
                async with _Server(app) as srv:
                    await _http(srv.port, "GET", "/healthz")
                    status, payload = await _http(srv.port, "GET", "/metrics")
                    assert status == 200
                    assert b"serve_requests_total" in payload
                    assert b"ltc_inserts_total" in payload
            finally:
                obs.disable()

        asyncio.run(scenario())

    def test_metrics_503_when_disabled(self):
        async def scenario():
            app = ServingApp(build_ltc(_cfg()))
            async with _Server(app) as srv:
                assert (await _http(srv.port, "GET", "/metrics"))[0] == 503

        asyncio.run(scenario())


class TestReadDeadline:
    """Every request must arrive whole within ``_READ_DEADLINE_S``.

    The handler used to await the head and body with no timeout, so a
    client that connected and then stalled held its coroutine and socket
    forever.  The client side here gives up after a few seconds, so a
    missing deadline fails the test instead of hanging it.
    """

    DEADLINE = 0.2

    @pytest.fixture(autouse=True)
    def short_deadline(self, monkeypatch):
        monkeypatch.setattr(server, "_READ_DEADLINE_S", self.DEADLINE)

    def stalled_reply(self, data):
        """Send ``data`` (maybe nothing), keep the connection open, and
        return the reply read to EOF with the seconds it took."""

        async def scenario():
            app = ServingApp(build_ltc(_cfg()))
            async with _Server(app) as srv:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port
                )
                loop = asyncio.get_running_loop()
                started = loop.time()
                writer.write(data)
                await writer.drain()
                try:
                    raw = await asyncio.wait_for(reader.read(), 5.0)
                finally:
                    writer.close()
                return raw, loop.time() - started

        return asyncio.run(scenario())

    def assert_timed_out(self, raw, elapsed):
        assert raw.startswith(b"HTTP/1.1 408 Request Timeout\r\n"), raw
        assert b"request timeout" in raw
        assert self.DEADLINE * 0.9 <= elapsed < self.DEADLINE + 2.0

    def test_silent_connection_is_closed(self):
        self.assert_timed_out(*self.stalled_reply(b""))

    def test_truncated_head_is_408(self):
        self.assert_timed_out(
            *self.stalled_reply(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")
        )

    def test_short_body_is_408(self):
        head = b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
        self.assert_timed_out(*self.stalled_reply(head + b'{"items": [1'))

    def test_deadline_never_fires_after_a_reply(self, monkeypatch):
        # One timer per connection, cancelled by its reply: after 50
        # quick requests and a wait past the deadline, no connection has
        # been written to after it was closed, and the loop's exception
        # handler has seen nothing.
        late = []

        class Watched:
            """A transport that records what is written after close()."""

            def __init__(self, transport):
                self.transport = transport
                self.closed = False

            def write(self, data):
                if self.closed:
                    late.append(data)
                self.transport.write(data)

            def write_eof(self):
                if self.closed:
                    late.append(b"<EOF>")
                self.transport.write_eof()

            def close(self):
                self.closed = True
                self.transport.close()

        made = server._Connection.connection_made
        monkeypatch.setattr(
            server._Connection,
            "connection_made",
            lambda conn, transport: made(conn, Watched(transport)),
        )

        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, ctx: errors.append(ctx)
            )
            app = ServingApp(build_ltc(_cfg()))
            app.ltc.insert_many(list(range(10)))
            async with _Server(app) as srv:
                for i in range(50):
                    path = f"/query/{i % 12}" if i % 2 else "/top_k?k=3"
                    assert (await _http(srv.port, "GET", path))[0] == 200
                await asyncio.sleep(self.DEADLINE * 3)
            return errors

        assert asyncio.run(scenario()) == []
        assert late == []


class TestShutdown:
    def test_shutdown_drains_queue_and_snapshots(self, tmp_path):
        async def scenario():
            app = ServingApp(
                build_ltc(_cfg()), snapshots=SnapshotStore(tmp_path, retain=2)
            )
            async with _Server(app) as srv:
                body = json.dumps({"items": list(range(30)) * 100}).encode()
                for _ in range(3):
                    await _http(srv.port, "POST", "/ingest", body)
            # __aexit__ fired the stop event: every queued batch must have
            # been applied and a final snapshot written.
            assert app.queued == 0
            assert app.ingested == 3 * 3000
            assert app.snapshots_written == 1

        asyncio.run(scenario())
        store = SnapshotStore(tmp_path, retain=2)
        restored = store.restore()
        assert restored is not None and len(restored) > 0

    def test_failed_periodic_snapshot_keeps_ingesting(self, tmp_path, monkeypatch):
        """A periodic save that raises (here ENOSPC) is counted in
        ``/stats``; the worker goes on applying batches.  The shutdown
        snapshot still raises."""
        store = SnapshotStore(tmp_path, retain=2)

        def full_disk(ltc):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store, "save", full_disk)

        async def scenario():
            app = ServingApp(build_ltc(_cfg()), snapshots=store, snapshot_every=1)
            app.start()
            for _ in range(3):
                app.submit(list(range(10)))
                await asyncio.wait_for(app._queue.join(), 10)
            assert app.stats()["queued"] == 0
            assert app.ingested == 30
            assert app.stats()["snapshot_failures"] == 3
            assert not app._worker.done()
            with pytest.raises(OSError):
                await app.shutdown()

        asyncio.run(scenario())


def _spawn_cli(tmp_path, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--num-buckets",
            "8",
            "--bucket-width",
            "2",
            "--items-per-period",
            "64",
            "--snapshot-dir",
            str(tmp_path),
            "--snapshot-every",
            "1",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 30
    port = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"serving on [\d.]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.kill()
        raise AssertionError("server never reported its port")
    return proc, port


def _get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as rsp:
        return json.loads(rsp.read())


def _post(port, path, doc):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(doc).encode(),
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=10) as rsp:
        return json.loads(rsp.read())


@pytest.mark.slow
class TestKillAndRestart:
    def test_sigkill_then_restart_recovers_snapshot(self, tmp_path):
        proc, port = _spawn_cli(tmp_path)
        try:
            _post(port, "/ingest", {"items": list(range(25)) * 80})
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = _get(port, "/stats")
                if stats["queued"] == 0 and stats["snapshots_written"] >= 1:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError(f"never drained: {stats}")
            survivors = _get(port, "/top_k?k=5")
        finally:
            proc.kill()  # SIGKILL: no clean shutdown, no final snapshot
            proc.wait(timeout=10)

        proc2, port2 = _spawn_cli(tmp_path)
        try:
            stats = _get(port2, "/stats")
            assert stats["tracked"] > 0  # state survived the hard kill
            assert _get(port2, "/top_k?k=5") == survivors
        finally:
            proc2.send_signal(signal.SIGTERM)
            out, _ = proc2.communicate(timeout=15)
        assert proc2.returncode == 0
        assert "shutdown:" in out

    def test_sigterm_clean_shutdown_writes_snapshot(self, tmp_path):
        proc, port = _spawn_cli(tmp_path)
        _post(port, "/ingest", {"items": list(range(10)) * 20})
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=15)
        assert proc.returncode == 0
        # the queued batch was drained before exit, then checkpointed
        assert "ingested=200" in out
        restored = SnapshotStore(tmp_path).restore()
        assert restored is not None and len(restored) > 0
