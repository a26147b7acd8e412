"""Per-layer metrics from the spans of a traced run.

Each function returns ``{name: (value, unit)}``.  Every workload reports
the ``core.*``, ``process.*`` and ``trace.*`` metrics; a layer the
workload does not run reports 0.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Tuple

from benchmarks.e2e import spans
from benchmarks.e2e.stats import percentile

Metrics = Dict[str, Tuple[float, str]]

#: The program's own ``repro.obs`` kernel counters.
OBS_COUNTERS = (
    "ltc_inserts_total",
    "ltc_significance_decrements_total",
    "ltc_evictions_total",
    "ltc_harvests_total",
)


def obs_counters(text: str) -> Dict[str, float]:
    """Kernel counters from Prometheus text (summed over label sets)."""
    out = {name: 0.0 for name in OBS_COUNTERS}
    for line in text.splitlines():
        match = re.match(r"^(\w+)(?:\{[^}]*\})?\s+(\S+)$", line)
        if match and match.group(1) in out:
            out[match.group(1)] += float(match.group(2))
    return out


def registry_counters() -> Dict[str, float]:
    """The same counters read from this process's live registry."""
    from repro import obs

    out = {name: 0.0 for name in OBS_COUNTERS}
    for metric in obs.registry().metrics():
        if metric.kind == "counter" and metric.name in out:
            out[metric.name] += float(metric.value)
    return out


def core(doc: Dict[str, Any], counters: Dict[str, float]) -> Metrics:
    """``repro.core`` metrics shared by every workload."""
    t = spans.totals([doc])
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    im, ins = t.get("core.insert_many", zero), t.get("core.insert", zero)
    events = doc["counts"].get("core.insert_many.events", 0)
    inserts = max(1.0, counters["ltc_inserts_total"])
    out: Metrics = {
        "core.insert_many.calls": (im["calls"], "count"),
        "core.insert_many.events": (events, "count"),
        "core.insert_many.self_s": (im["self_s"], "s"),
        "core.insert_many.eps": (events / im["busy_s"] if im["busy_s"] else 0.0, "events/s"),
        "core.end_period.self_s": (t.get("core.end_period", zero)["self_s"], "s"),
        "core.top_k.self_s": (t.get("core.top_k", zero)["self_s"], "s"),
        "core.insert.eps": (ins["calls"] / ins["busy_s"] if ins["busy_s"] else 0.0, "events/s"),
        "core.decrements_per_event": (counters["ltc_significance_decrements_total"] / inserts, "ratio"),
        "core.evictions_per_event": (counters["ltc_evictions_total"] / inserts, "ratio"),
        "core.harvests": (counters["ltc_harvests_total"], "count"),
        "serve.listener.slots": (float(spans.leaf_amount([doc], "serve.listener")[1]), "count"),
        "serve.index.repairs": (0.0, "count"),
    }
    return out


def serve(doc: Dict[str, Any], stats: Dict[str, Any], metrics_text: str,
          generator: Dict[str, float]) -> Metrics:
    """Serve layers: HTTP, decode, queue, listener, index, render."""
    t = spans.totals([doc])
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    http = t.get("serve.http", zero)
    ingest = t.get("serve.respond:/ingest", zero)
    queries = sum(t.get(f"serve.respond:{r}", zero)["calls"] for r in ("/query", "/top_k", "/significant"))
    waits = [w / 1e6 for w in doc["queue_waits_ns"]] or [0.0]
    cell_reads = spans.leaf_amount([doc], "core.cell_state", "serve.index")[0]
    out = core(doc, obs_counters(metrics_text))
    out.update({
        "serve.loop.self_ms_per_req": (1000 * t.get("serve.loop", zero)["self_s"] / max(1, http["calls"]), "ms"),
        "serve.loop.poll_ms_per_req": (1000 * t.get("serve.loop.poll", zero)["self_s"] / max(1, http["calls"]), "ms"),
        "serve.http.self_ms_per_req": (1000 * http["self_s"] / max(1, http["calls"]), "ms"),
        "serve.ingest.decode_ms_per_batch": (1000 * ingest["self_s"] / max(1, ingest["calls"]), "ms"),
        "serve.queue.wait_p50_ms": (percentile(waits, 50), "ms"),
        "serve.queue.wait_p90_ms": (percentile(waits, 90), "ms"),
        "serve.queue.depth_max_events": (float(doc["queue_depth_max"]), "count"),
        "serve.listener.self_s": (t.get("serve.listener", zero)["self_s"], "s"),
        "serve.index.self_ms_per_query": (1000 * t.get("serve.index", zero)["self_s"] / max(1, queries), "ms"),
        "serve.index.cell_state_reads_per_query": (cell_reads / max(1, queries), "ratio"),
        "serve.index.repairs": (float(stats["repairs"]), "count"),
        "serve.index.heap_size_end": (float(stats["heap_size"]), "count"),
        "serve.render.ms_per_req": (1000 * t.get("serve.render", zero)["busy_s"] / max(1, http["calls"]), "ms"),
        "process.cpu_util": (doc["cpu_s"] / doc["wall_s"], "ratio"),
        "trace.attributed_frac": (spans.top_level_s(doc) / doc["cpu_s"], "ratio"),
        "bench.generator.late_p90_ms": (generator["late_p90_ms"], "ms"),
        "bench.generator.cpu_util": (generator["cpu_util"], "ratio"),
    })
    return out


def library(doc: Dict[str, Any], counters: Dict[str, float], cpu_s: float,
            wall_s: float) -> Metrics:
    """The library workload: ``repro.core`` plus process-level attribution."""
    out = core(doc, counters)
    out["process.cpu_util"] = (cpu_s / wall_s, "ratio")
    out["trace.attributed_frac"] = (spans.top_level_s(doc) / cpu_s, "ratio")
    return out
