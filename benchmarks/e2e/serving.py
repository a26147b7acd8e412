"""Serve workloads: the real ``repro serve`` CLI driven over sockets.

The server runs in a fresh child process with CLI defaults.  Open-loop
reference segments at fixed rates give the latency metrics, and
closed-loop saturation segments of fixed work give the throughput.
Each segment's timings are scaled to the reference host speed by the
probes a sentinel took on the server's CPU meanwhile (``hostspeed``).
After the load, the server drains and its answers are compared byte for
byte with the full-scan oracle over an in-process replay of the
accepted bodies.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from benchmarks.e2e import hostspeed, inputs, layers, loadgen, spans
from benchmarks.e2e.stats import percentile, summarize

HOST = "127.0.0.1"
READY_TIMEOUT_S = 60.0

#: ``(start, end)`` of a timed interval, in ``time.perf_counter`` seconds.
Span = Tuple[float, float]


def proc_status_kb(pid: int, field: str) -> int:
    """A ``/proc/<pid>/status`` field in kB (``VmHWM`` = peak RSS)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def launch(argv: List[str], cwd: str, env: Dict[str, str],
           cpu: Optional[int]) -> Tuple[subprocess.Popen, int, Span]:
    """Start a server pinned to ``cpu``; ``(process, port, (launch time,
    ready time))``."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True,
                            preexec_fn=hostspeed.pin_to(cpu))
    assert proc.stdout is not None
    deadline = started + READY_TIMEOUT_S
    while True:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
        if line.startswith("serving on "):
            return proc, int(line.rsplit(":", 1)[1]), (started, time.perf_counter())
        if not line:
            stop(proc)
            raise RuntimeError(f"server did not become ready: {argv}")


def stop(proc: subprocess.Popen) -> None:
    """SIGTERM (the server drains and exits) and wait; kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def timed_setup(argv: List[str], cwd: str, env: Dict[str, str], cpu: Optional[int]) -> Span:
    """Launch a server, wait until it is ready and stop it; ``(launch
    time, ready time)``."""
    proc, _, span = launch(argv, cwd, env, cpu)
    stop(proc)
    return span


def build_inputs(wl: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Events, JSON bodies, the query mix and the gate's point keys."""
    st = wl["stream"]
    events = inputs.zipf_events(st["num_events"], st["num_distinct"], st["skew"], seed)
    size = wl["body_events"]
    bodies = [
        json.dumps({"items": events[i : i + size].tolist()}).encode()
        for i in range(0, len(events) - size + 1, size)
    ]
    rng = np.random.default_rng([seed, 1])
    mix = wl["query_mix"]
    draws = rng.random(4096)
    keys = events[rng.integers(0, len(events), size=len(draws))]
    ks = rng.choice(mix["top_k_values"], size=len(draws))
    paths = []
    for u, key, k in zip(draws, keys, ks):
        if u < mix["point"]:
            paths.append(f"/query/{int(key)}")
        elif u < mix["point"] + mix["top_k"]:
            paths.append(f"/top_k?k={int(k)}")
        else:
            paths.append(f"/significant?threshold={mix['threshold']}")
    gate_keys = [int(x) for x in events[rng.integers(0, len(events), size=wl["gate_queries"])]]
    return {"events": events, "bodies": bodies, "paths": paths, "gate_keys": gate_keys}


def _lat_ms(values: List[float]) -> Dict[str, float]:
    return {k: (v * 1000.0 if k not in ("n", "tail_p") else v) for k, v in summarize(values).items()}


class Session:
    """Both lanes against one running server."""

    def __init__(
        self, wl: Dict[str, Any], port: int, pid: int, data: Dict[str, Any], traced: bool
    ) -> None:
        self.port, self.pid, self.traced = port, pid, traced
        self.gate_keys: List[int] = data["gate_keys"]
        self.ingest = loadgen.IngestLane(HOST, port, data["bodies"], wl["body_events"])
        self.query = loadgen.QueryLane(HOST, port, data["paths"])
        self.samples: List[loadgen.Sample] = []

    async def step(self, ingest_eps: float, query_qps: float, duration: float) -> Dict[str, Any]:
        """Both lanes open-loop at fixed rates for one step."""
        t0 = loadgen.clock() + 0.01
        (posts, lags), queries = await asyncio.gather(
            self.ingest.step(ingest_eps, t0, duration),
            self.query.step(query_qps, t0, duration),
        )
        self.samples += posts + queries
        return {
            "lags": lags,
            "post_latency": [s.latency for s in posts],
            "query_latency": [s.latency for s in queries],
            "late": [s.sent - s.due for s in posts + queries if s.sent is not None],
        }

    async def get(self, path: str) -> bytes:
        status, payload = await loadgen.http(HOST, self.port, "GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return payload

    async def drain(self) -> Dict[str, Any]:
        await self.ingest.settle()
        for _ in range(500):
            stats: Dict[str, Any] = json.loads(await self.get("/stats"))
            if stats["queued"] == 0:
                return stats
            await asyncio.sleep(0.01)
        raise RuntimeError("server did not drain its ingest queue")


def saturation_work(wl: Dict[str, Any], seconds: float) -> int:
    """Batches (ingest) or queries per saturation segment.

    The work is fixed by the run length, not by how fast this run goes:
    the server's state (table contents, answer sizes) then follows the
    same path in every run of a seed, so a fast run does not leave a
    bigger table behind for its later segments to pay for.
    """
    sat = wl["saturation"]
    per_segment = sat["nominal_rate"] * sat["share"] * seconds / wl["cycles"]
    if sat["lane"] == "ingest":
        per_segment /= wl["body_events"]
    return max(1, round(per_segment))


async def _measure(wl: Dict[str, Any], seconds: float, sess: Session) -> Dict[str, Any]:
    """Warm-up, then cycles of an open-loop reference segment and a
    closed-loop saturation segment, each kept with its time span.

    The warm-up ingests ``warmup_events`` as fast as the server takes
    them, untimed, so the table is full before anything is timed.
    Interleaving spreads both measurements over the whole run, so a slow
    phase of the host is shared by both instead of landing on one.
    """
    ref, sat, window = wl["reference"], wl["saturation"], wl["ingest_window"]
    ingest_lane = sat["lane"] == "ingest"
    work = saturation_work(wl, seconds)
    warmup = max(1, wl["warmup_events"] // wl["body_events"])
    posts, _, _ = await sess.ingest.saturate(loadgen.clock(), warmup, window)
    sess.samples += posts
    reference: List[Dict[str, Any]] = []
    saturation: List[Dict[str, Any]] = []
    peak_rss_mb = 0.0
    for cycle in range(wl["cycles"]):
        began = loadgen.clock()
        res = await sess.step(ref["ingest_eps"], ref["query_qps"], ref["share"] * seconds / wl["cycles"])
        reference.append(dict(res, span=(began, loadgen.clock())))
        if cycle == 0:
            peak_rss_mb = proc_status_kb(sess.pid, "VmHWM") / 1024.0
        t0 = loadgen.clock() + 0.01
        if ingest_lane:
            samples, done, took = await sess.ingest.saturate(t0, work, window)
        else:
            samples, done, took = await sess.query.saturate(t0, work, sat["connections"])
        sess.samples += samples
        saturation.append({"rate": done / took, "span": (t0, loadgen.clock())})
    stats = await sess.drain()
    served = {
        "top_k": await sess.get("/top_k?k=100"),
        "significant": await sess.get(f"/significant?threshold={wl['query_mix']['threshold']}"),
        "query": [await sess.get(f"/query/{key}") for key in sess.gate_keys],
    }
    return {
        "reference": reference,
        "saturation": saturation,
        "peak_rss_mb": peak_rss_mb,
        "stats": stats,
        "served": served,
        "metrics_text": (await sess.get("/metrics")).decode() if sess.traced else "",
    }


LATENCIES = ("lags", "post_latency", "query_latency")


def at_reference_speed(measured: Dict[str, Any], probes: hostspeed.ProbeLog
                       ) -> Tuple[Dict[str, List[float]], List[float]]:
    """Reference-segment latencies and saturation rates, each segment
    scaled by the server CPU's speed factor over its own span."""
    latencies: Dict[str, List[float]] = {key: [] for key in LATENCIES}
    for seg in measured["reference"]:
        f = probes.factor(*seg["span"])
        for key in LATENCIES:
            latencies[key] += [v / f for v in seg[key]]
    rates = [seg["rate"] * probes.factor(*seg["span"]) for seg in measured["saturation"]]
    return latencies, rates


def expected_answers(wl: Dict[str, Any], events: np.ndarray, gate_keys: List[int]) -> Tuple[Dict[str, Any], List[Tuple[int, float]]]:
    """Oracle answers over an in-process replay, and the exact top-100."""
    from repro.core.config import LTCConfig
    from repro.core.kernels import build_ltc
    from repro.serve.oracle import canonical_json, oracle_query, oracle_significant, oracle_top_k

    cfg = wl["server"]
    ltc = build_ltc(LTCConfig(**cfg))
    period = cfg["items_per_period"]
    items = events.tolist()
    for start, end in inputs.period_bounds(len(items), period):
        ltc.insert_many(items[start:end])
        if end - start == period:
            ltc.end_period()
    expect = {
        "top_k": canonical_json(oracle_top_k(ltc, 100)),
        "significant": canonical_json(oracle_significant(ltc, float(wl["query_mix"]["threshold"]))),
        "query": [canonical_json(oracle_query(ltc, key)) for key in gate_keys],
    }
    return expect, inputs.exact_top_k(events, period, 100, cfg["alpha"], cfg["beta"])


def check(served: Dict[str, Any], expect: Dict[str, Any]) -> List[str]:
    """Every mismatch between served and expected answers, described."""
    errors = []
    for name in ("top_k", "significant"):
        if served[name] != expect[name]:
            errors.append(f"{name}: served answer differs from the oracle")
    bad = sum(a != b for a, b in zip(served["query"], expect["query"]))
    if bad or len(served["query"]) != len(expect["query"]):
        errors.append(f"query: {bad} of {len(expect['query'])} point answers differ")
    return errors


def run(name: str, wl: Dict[str, Any], seed: int, seconds: float, trace: bool,
        out_dir: str, root: str, setup_repeats: int) -> Dict[str, Any]:
    data = build_inputs(wl, seed)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    plain = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    spans_path = os.path.join(out_dir, f"spans-{name}-server.json")
    argv = plain
    if trace:
        argv = [sys.executable, os.path.join(root, "benchmarks", "e2e", "traced_serve.py"),
                spans_path, "--port", "0"]
    # The load generator and the server each get a CPU of their own: left
    # to the scheduler, they shared or swapped CPUs and the saturation
    # rate's spread roughly doubled.  The sentinel probes the server's CPU.
    allowed = os.sched_getaffinity(0)
    gen_cpu, server_cpu = hostspeed.split_cpus()
    if gen_cpu is not None:
        os.sched_setaffinity(0, {gen_cpu})
    try:
        sentinel = hostspeed.Sentinel(server_cpu)
        try:
            setups = [timed_setup(plain, root, env, server_cpu) for _ in range(setup_repeats)]
            proc, port, _ = launch(argv, root, env, server_cpu)
            gen_cpu0 = time.process_time()
            wall0 = time.perf_counter()
            try:
                sess = Session(wl, port, proc.pid, data, trace)
                measured = asyncio.run(_measure(wl, seconds, sess))
            finally:
                stop(proc)
            gen_cpu_util = (time.process_time() - gen_cpu0) / (time.perf_counter() - wall0)
        finally:
            probes = sentinel.stop()
    finally:
        os.sched_setaffinity(0, allowed)
    scaled, rates = at_reference_speed(measured, probes)

    size = wl["body_events"]
    accepted = sess.ingest.accepted
    replayed = np.concatenate([data["events"][i * size : (i + 1) * size] for i in accepted])
    expect, exact = expected_answers(wl, replayed, data["gate_keys"])
    errors = check(measured["served"], expect)
    if measured["stats"]["ingested"] != len(replayed):
        errors.append(f"ingested {measured['stats']['ingested']} events, accepted {len(replayed)}")
    if proc.returncode != 0:
        errors.append(f"server exited with code {proc.returncode}")
    top_items = [r["item"] for r in json.loads(measured["served"]["top_k"])["results"]]

    latency = {
        "ingest_lag": _lat_ms(scaled["lags"]),
        "ingest_post": _lat_ms(scaled["post_latency"]),
        "query": _lat_ms(scaled["query_latency"]),
    }
    raw_rates = [seg["rate"] for seg in measured["saturation"]]
    write = wl["saturation"]["lane"] == "ingest"
    # serve-write's second latency is the POST reply, not the query: its
    # rare queries either repair a whole batch's cells or none, so their
    # median falls between two modes and jumps from run to run.
    primary, aux = ("ingest_lag", "ingest_post") if write else ("query", "ingest_lag")
    attempted = sum(s.attempted for s in sess.samples)
    failed = sum(s.failed for s in sess.samples)
    named: Dict[str, Tuple[float, str]] = {
        ("ingest_saturated_eps" if write else "query_saturated_qps"):
            (statistics.median(rates), "events/s" if write else "queries/s"),
    }
    for series, summary in latency.items():
        for p in ("p50", "p75", "p90"):
            named[f"{series}_{p}_ms"] = (summary[p], "ms")
    named["failed_frac"] = (failed / max(1, attempted), "ratio")
    named["saturated_unscaled_per_s"] = (statistics.median(raw_rates), "1/s")
    named["host_speed_factor"] = (probes.overall(), "ratio")
    late = [v for seg in measured["reference"] for v in seg["late"]]
    result: Dict[str, Any] = {
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(probes.scaled(*span) for span in setups),
            "peak_rss_mb": measured["peak_rss_mb"],
            "throughput_per_s": statistics.median(rates),
            "p50_ms": latency[primary]["p50"],
            "aux_p50_ms": latency[aux]["p50"],
            "precision": inputs.precision(top_items, exact),
        },
        "named": named,
        "details": {
            "setups_s": [end - start for start, end in setups],
            "latency_ms": latency,
            "saturated_segments": rates,
            "saturated_segments_unscaled": raw_rates,
            "segment_speed_factors": [probes.factor(*seg["span"]) for seg in measured["saturation"]],
            "events_accepted": len(replayed),
            "significant_items": len(json.loads(measured["served"]["significant"])["results"]),
            "stats": measured["stats"],
        },
        "generator": {
            "late_p90_ms": percentile(late, 90) * 1000.0,
            "cpu_util": gen_cpu_util,
        },
    }
    if trace:
        doc = spans.load(spans_path)
        os.remove(spans_path)
        result["per_layer"] = layers.serve(
            doc, measured["stats"], measured["metrics_text"], result["generator"]
        )
        result["spans"] = [doc]
    return result
