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
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import obs
from repro.core.config import LTCConfig
from repro.core.kernels import build_ltc
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
        # expand_counts sees them: all are client errors, none queued.
        app = ServingApp(build_ltc(_cfg()))
        status, _, payload = app.respond(
            "POST", "/ingest", json.dumps(doc).encode()
        )
        assert status == 400, payload
        assert app.queued == 0

    def test_ingest_accepts_zero_counts(self):
        app = ServingApp(build_ltc(_cfg()))
        body = json.dumps({"items": [4, 5, 6], "counts": [2, 0, 1]}).encode()
        status, _, payload = app.respond("POST", "/ingest", body)
        assert status == 200
        assert json.loads(payload)["queued"] == 3

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
