"""Parent side of the library workload: inputs, child launches, gates."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from benchmarks.e2e import hostspeed, inputs, layers, spans
from benchmarks.e2e.stats import summarize

CHILD_TIMEOUT_S = 170.0


def make_events(wl: Dict[str, Any], seed: int) -> np.ndarray:
    st = wl["stream"]
    return inputs.network_like_events(
        st["num_events"], st["num_distinct"], seed, num_periods=st["num_periods"]
    )


Span = Tuple[float, float]


def _launch(spec_path: str, root: str, env: Dict[str, str],
            cpu: Optional[int]) -> Tuple[Span, str]:
    """Run one child pinned to ``cpu``; ``((launch time, ready time), its
    last line)``."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(root, "benchmarks", "e2e", "child.py"), spec_path],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        preexec_fn=hostspeed.pin_to(cpu),
    )
    assert proc.stdout is not None
    try:
        first = proc.stdout.readline()
        ready = (started, time.perf_counter())
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:  # timed out, or this run is being stopped
            proc.kill()
            proc.communicate()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"library child failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def _reference_top_k(wl: Dict[str, Any], events: np.ndarray) -> List[List[Any]]:
    """``top_k`` of a ``kernel="reference"`` run over the same batches."""
    from repro.core.config import LTCConfig
    from repro.core.kernels import build_ltc

    period = len(events) // wl["stream"]["num_periods"]
    cfg = LTCConfig(items_per_period=period, **dict(wl["ltc"], kernel="reference"))
    ltc = build_ltc(cfg)
    items = events.tolist()
    for start in range(0, len(items), period):
        ltc.insert_many(items[start : start + period])
        ltc.end_period()
    return [list(r) for r in ltc.top_k(wl["k"])]


def _at_reference_speed(passes: List[List[Span]], probes: hostspeed.ProbeLog
                        ) -> Tuple[List[float], List[float]]:
    """Every step's seconds and every pass's total, at the reference speed."""
    steps: List[float] = []
    totals: List[float] = []
    for spans_of_pass in passes:
        scaled = [probes.scaled(start, end) for start, end in spans_of_pass]
        steps += scaled
        totals.append(sum(scaled))
    return steps, totals


def run(name: str, wl: Dict[str, Any], seed: int, seconds: float, trace: bool,
        out_dir: str, root: str, setup_repeats: int) -> Dict[str, Any]:
    work = os.path.join(out_dir, f"work-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    events = make_events(wl, seed)
    events_path = os.path.join(work, "events.npy")
    np.save(events_path, events)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    spec = {"workload": name, "wl": wl, "seconds": seconds, "trace": trace,
            "events": events_path, "out_dir": work}
    setup_path, run_path = os.path.join(work, "setup.json"), os.path.join(work, "run.json")
    for path, setup_only in ((setup_path, True), (run_path, False)):
        with open(path, "w") as fh:
            json.dump(dict(spec, setup_only=setup_only), fh)
    # The child runs on a CPU of its own, which the sentinel probes.
    _, cpu = hostspeed.split_cpus()
    sentinel = hostspeed.Sentinel(cpu)
    try:
        setups = [_launch(setup_path, root, env, cpu)[0] for _ in range(setup_repeats)]
        _, line = _launch(run_path, root, env, cpu)
    finally:
        probes = sentinel.stop()
    res = json.loads(line)
    period_s, period_pass_s = _at_reference_speed(res["period_spans"], probes)
    block_s, block_pass_s = _at_reference_speed(res["block_spans"], probes)
    raw_pass_s = [sum(end - start for start, end in spans) for spans in res["period_spans"]]

    period = len(events) // wl["stream"]["num_periods"]
    exact = inputs.exact_top_k(events, period, wl["k"], wl["ltc"]["alpha"], wl["ltc"]["beta"])
    reported = [r[0] for r in res["top_k"]]
    precision = inputs.precision(reported, exact)
    errors = []
    if res["top_k"] != _reference_top_k(wl, events):
        errors.append("top_k differs from the kernel='reference' run")
    if precision < wl["precision_floor"]:
        errors.append(f"precision {precision:.3f} below floor {wl['precision_floor']}")
    primary = summarize([s * 1000.0 for s in period_s])
    aux = summarize([s * 1000.0 for s in block_s])
    events_per_s = len(events) / statistics.median(period_pass_s)
    named = {
        "events_per_s": (events_per_s, "events/s"),
        "per_event_eps": (len(events) / statistics.median(block_pass_s), "events/s"),
        "period_p75_ms": (primary["p75"], "ms"),
        "period_p90_ms": (primary["p90"], "ms"),
        "block_p75_ms": (aux["p75"], "ms"),
        "block_p90_ms": (aux["p90"], "ms"),
        "failed_frac": (0.0, "ratio"),
        "events_per_s_unscaled": (len(events) / statistics.median(raw_pass_s), "events/s"),
        "host_speed_factor": (probes.overall(), "ratio"),
    }
    result: Dict[str, Any] = {
        "correct": not errors,
        "errors": errors,
        "attempted": res["attempted"],
        "failed": 0,
        "metrics": {
            "setup_s": statistics.median(probes.scaled(*span) for span in setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "throughput_per_s": events_per_s,
            "p50_ms": primary["p50"],
            "aux_p50_ms": aux["p50"],
            "precision": precision,
        },
        "named": named,
        "details": {
            "setups_s": [end - start for start, end in setups],
            "primary_ms": primary,
            "aux_ms": aux,
            "passes_s": period_pass_s,
            "passes_s_unscaled": raw_pass_s,
        },
    }
    if trace:
        doc = spans.load(os.path.join(work, "spans.json"))
        result["per_layer"] = layers.library(doc, res["obs"], res["cpu_s"], res["wall_s"])
        result["spans"] = [doc]
    shutil.rmtree(work)
    return result
