"""Serving tier: queries/sec under concurrent ingest, with identity gate.

The serving index answers point queries from the kernel's own lookup
and ``top_k`` / ``significant`` from a ranked prefix built by one numpy
scan of the table's columns per table change, kept per index epoch
together with the server's rendered report fragments (DESIGN.md
§12.2); this bench measures what that read path is worth while the
ingest worker keeps applying batches on the same event loop — the
deployment shape of the ROADMAP's north star.  Three numbers per
endpoint:

* **idle qps** — pure read-path speed, nothing ingesting: the table
  does not change between queries, so after the first ranked query a
  ``top_k`` / ``significant`` answer is a slice of the prefix and a
  join of cached fragments, with no scan and no re-rendering;
* **qps under ingest** — queries interleaved with worker chunks, so
  the table changes between queries (~2k events applied since the
  previous one), and every ranked query starts a new epoch: it scans
  the columns, ranks and renders its prefix afresh (this is the
  headline, gated number);
* **full-scan qps** — the same answers computed by the oracle's table
  walk, for the O(k)-vs-O(m) contrast;
* **POST /ingest over a socket** — p50 latency of ``_POSTS`` 2048-event
  POSTs to ``run_app`` on a real socket, each read to EOF by a client in
  its own process, as real clients do.  The POSTs are paced below the
  ingest capacity, so each finds the worker idle and its latency is
  framing and parse alone — unless the reply waits for the batch to be
  applied.  The in-process numbers above call ``app.respond`` and
  cannot see HTTP framing; this one can (DESIGN.md §12.4).  Recorded,
  not gated.

Gates:

* **identity** — a verification pass re-runs queries against the live
  server with ``check_oracle=True``: every served answer must be
  byte-equal to the full-scan oracle or the app raises, across live
  evictions/decrements/replacements (hard gate, always on);
* **queries/sec floor** — point-query qps under ingest must clear
  ``REPRO_SERVING_QPS_FLOOR`` (default 150/s, sized for 1-core hosted
  runners; the nightly job runs a higher floor).

Results land in the ``serving`` section of ``BENCH_throughput.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import sys
import time

from benchmarks.bench_throughput import update_bench_json
from benchmarks.conftest import emit, once
from repro.core.config import LTCConfig
from repro.core.kernels import build_ltc
from repro.serve.server import ServingApp, run_app
from repro.streams.synthetic import zipf_stream

#: Queries timed per endpoint per condition.
_PROBES = 300
#: Events per submitted ingest batch.
_BATCH = 5_000
#: POSTs timed over the socket, events per POST body, and the pause
#: from one POST's start to the next (100/s, ~200k ev/s: well below
#: what the worker applies, so no POST queues behind another's batch).
_POSTS = 120
_POST_EVENTS = 2_048
_POST_EVERY_S = 0.01

#: The socket client, run in its own process so that its wakeups do not
#: wait on the server's GIL: one connection per body (read from stdin,
#: one JSON document per line), each read to EOF; prints the latencies.
_POST_CLIENT = """
import json, socket, sys, time
port, every = int(sys.argv[1]), float(sys.argv[2])
latencies = []
due = time.perf_counter()
for body in sys.stdin.buffer.read().split(b"\\n"):
    request = (
        b"POST /ingest HTTP/1.1\\r\\nHost: bench\\r\\n"
        b"Content-Length: %d\\r\\n\\r\\n" % len(body) + body
    )
    due += every
    time.sleep(max(0.0, due - time.perf_counter()))
    start = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(request)
        while sock.recv(65536):
            pass
    latencies.append(time.perf_counter() - start)
print(json.dumps(latencies))
"""


def _config() -> LTCConfig:
    return LTCConfig(
        num_buckets=512,
        bucket_width=8,
        items_per_period=10_000,
        kernel="columnar",
    )


def _mixed_queries(rng: random.Random, count: int):
    """A realistic endpoint mix keyed by kind (point-heavy)."""
    kinds = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.6:
            kinds.append(("query", f"/query/{rng.randrange(20_000)}"))
        elif roll < 0.9:
            kinds.append(("top_k", f"/top_k?k={rng.choice([10, 50, 100])}"))
        else:
            kinds.append(("significant", "/significant?threshold=25"))
    return kinds


async def _timed_queries(app: ServingApp, kinds, ingesting: bool) -> dict:
    """qps per endpoint kind; yields to the worker between queries.

    Idle, the table does not change, so only the first ranked query of
    a path pays the index's scan (or its extension to a deeper ``k``):
    one untimed settle query per ranked path goes first, and the rate
    measures the read path, not that one scan.  Point queries never
    scan.
    """
    if not ingesting:
        for path in dict.fromkeys(p for kind, p in kinds if kind != "query"):
            status, _, _ = app.respond("GET", path)
            assert status == 200
    per_kind: dict = {}
    for kind, path in kinds:
        start = time.perf_counter()
        status, _, _ = app.respond("GET", path)
        assert status == 200
        elapsed = time.perf_counter() - start
        total, n = per_kind.get(kind, (0.0, 0))
        per_kind[kind] = (total + elapsed, n + 1)
        if ingesting:
            await asyncio.sleep(0)  # let the worker apply a chunk
    return {kind: n / total for kind, (total, n) in per_kind.items()}


async def _socket_ingest(events) -> dict:
    """p50/p90 ``POST /ingest`` latency against ``run_app`` on a socket."""
    app = ServingApp(build_ltc(_config()), ingest_chunk=2_048)
    ready = asyncio.Event()
    stop = asyncio.Event()
    ports = []

    def on_ready(_host: str, port: int) -> None:
        ports.append(port)
        ready.set()

    server = asyncio.get_running_loop().create_task(
        run_app(app, "127.0.0.1", 0, ready=on_ready, stop_event=stop)
    )
    await ready.wait()
    warm = len(events) // 4
    app.submit(events[:warm])
    await app._queue.join()
    bodies = [
        json.dumps({"items": events[i : i + _POST_EVENTS]}).encode()
        for i in range(warm, warm + _POSTS * _POST_EVENTS, _POST_EVENTS)
    ]
    client = await asyncio.create_subprocess_exec(
        sys.executable, "-c", _POST_CLIENT, str(ports[0]), str(_POST_EVERY_S),
        stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
    )
    out, _ = await client.communicate(b"\n".join(bodies))
    stop.set()
    await server
    assert client.returncode == 0
    assert app.ingested == warm + _POSTS * _POST_EVENTS
    millis = sorted(1e3 * t for t in json.loads(out))
    return {
        "posts": len(millis),
        "body_events": _POST_EVENTS,
        "p50_ms": statistics.median(millis),
        "p90_ms": millis[int(0.9 * len(millis))],
    }


def test_serving_queries_under_ingest(benchmark):
    """queries/sec for the three endpoints, idle and under live ingest."""
    stream = zipf_stream(
        num_events=400_000, num_distinct=20_000, skew=1.0, num_periods=40,
        seed=11,
    )
    events = list(stream.events)

    async def scenario() -> dict:
        rng = random.Random(0xD15C)
        app = ServingApp(build_ltc(_config()), ingest_chunk=2_048)
        app.start()

        # Warm the structure with the first quarter of the stream.
        warm = len(events) // 4
        app.submit(events[:warm])
        await app._queue.join()

        idle = await _timed_queries(app, _mixed_queries(rng, _PROBES), False)

        # Keep the worker saturated while the timed queries run.
        feeder_pos = warm
        ingest_t0 = time.perf_counter()
        ingest_base = app.ingested

        async def feeder() -> None:
            nonlocal feeder_pos
            while True:
                if app.queued < 4 * _BATCH:
                    nxt = events[feeder_pos : feeder_pos + _BATCH]
                    feeder_pos = (feeder_pos + _BATCH) % (len(events) - _BATCH)
                    app.submit(nxt)
                await asyncio.sleep(0)

        feed = asyncio.get_running_loop().create_task(feeder())
        try:
            under = await _timed_queries(
                app, _mixed_queries(rng, _PROBES), True
            )
        finally:
            feed.cancel()
        ingest_rate = (app.ingested - ingest_base) / (
            time.perf_counter() - ingest_t0
        )

        # Full-scan contrast: the oracle recomputes the same answers by
        # walking all cells (what serving would cost without the index).
        from repro.serve.oracle import (
            oracle_query,
            oracle_significant,
            oracle_top_k,
        )

        scans = 60
        t0 = time.perf_counter()
        for i in range(scans):
            oracle_query(app.ltc, rng.randrange(20_000))
            oracle_top_k(app.ltc, 50)
            oracle_significant(app.ltc, 25.0)
        scan_qps = 3 * scans / (time.perf_counter() - t0)

        # Identity gate: served bytes must equal the oracle's while the
        # feeder keeps mutating the table under the index.
        app.check_oracle = True
        feed2 = asyncio.get_running_loop().create_task(feeder())
        try:
            for kind, path in _mixed_queries(rng, 120):
                status, _, _ = app.respond("GET", path)  # raises on mismatch
                assert status == 200
                await asyncio.sleep(0)
        finally:
            feed2.cancel()
        app.check_oracle = False
        checks = app.oracle_checks

        await app.shutdown()
        return {
            "idle": idle,
            "under_ingest": under,
            "ingest_events_per_sec": ingest_rate,
            "full_scan_qps": scan_qps,
            "oracle_checks": checks,
            "socket_ingest": await _socket_ingest(events),
        }

    results = once(benchmark, lambda: asyncio.run(scenario()))

    emit(
        "serving",
        ["endpoint", "idle qps", "under-ingest qps"],
        [
            (
                kind,
                f"{results['idle'][kind]:,.0f}",
                f"{results['under_ingest'][kind]:,.0f}",
            )
            for kind in sorted(results["idle"])
        ]
        + [
            ("(ingest)", "-", f"{results['ingest_events_per_sec']:,.0f} ev/s"),
            ("(full scan)", f"{results['full_scan_qps']:,.0f}", "-"),
            (
                "(POST /ingest, socket)",
                "-",
                f"p50 {results['socket_ingest']['p50_ms']:.2f} ms",
            ),
        ],
        title="Serving tier queries/sec (w=512 d=8 columnar, zipf-1.0)",
    )

    floor = float(os.environ.get("REPRO_SERVING_QPS_FLOOR", "150"))
    update_bench_json(
        "serving",
        {
            "config": {
                "num_buckets": 512,
                "bucket_width": 8,
                "kernel": "columnar",
                "distinct": 20_000,
                "ingest_chunk": 2_048,
            },
            "idle_qps": results["idle"],
            "under_ingest_qps": results["under_ingest"],
            "ingest_events_per_sec": results["ingest_events_per_sec"],
            "full_scan_qps": results["full_scan_qps"],
            "oracle_checks": results["oracle_checks"],
            "socket_ingest": results["socket_ingest"],
            "qps_floor": floor,
        },
    )

    assert results["oracle_checks"] >= 120
    gated = results["under_ingest"]["query"]
    assert gated >= floor, (
        f"point-query qps under ingest {gated:,.0f} below the "
        f"REPRO_SERVING_QPS_FLOOR of {floor:,.0f}"
    )
    # The index must actually beat scanning: point queries, even paying
    # the concurrent-ingest share, clear the full-scan rate.
    assert results["idle"]["query"] > results["full_scan_qps"]
