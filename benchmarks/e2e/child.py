"""The library workload, run in a fresh child process.

Usage: ``python benchmarks/e2e/child.py SPEC.json``.  The child imports
``repro``, builds the structure, prints ``ready`` (the parent times
set-up up to that line), then loads the int64 events file the parent
wrote, runs alternating closed-loop passes for the run, and prints one
JSON result line with the ``(start, end)`` of every timed step; the
parent scales them to the reference host speed.  With ``setup_only`` it
exits after ``ready``.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

clock = time.perf_counter


def _cpu() -> float:
    """CPU seconds of this process."""
    t = os.times()
    return t.user + t.system


def _vmhwm_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise KeyError("VmHWM")


class Passes:
    """Closed-loop passes of one body.

    In traced runs each pass is a ``bench.*`` span with its own trace id.
    """

    def __init__(self, rec: Any, name: str, first_trace: int, body: Callable[[], None]) -> None:
        self.rec, self.name, self.trace, self.body = rec, name, first_trace, body
        self.count = 0

    def once(self) -> None:
        self.trace += 1
        index = None
        if self.rec is not None:
            self.rec.trace = self.trace
            index = self.rec.open(self.name, self.trace)
        self.body()
        if index is not None:
            self.rec.close(index)
        self.count += 1


def alternate(kinds: List[Passes], deadline: float, minimum: int) -> None:
    """Run one pass of each kind in turn until the deadline (and ``minimum``).

    Alternating spreads every kind over the whole run, so a slow phase of
    the host does not land on one kind only.
    """
    while clock() < deadline or any(k.count < minimum for k in kinds):
        for kind in kinds:
            kind.once()


def timed_steps(steps: Iterable[Callable[[], None]]) -> List[Tuple[float, float]]:
    """Run ``steps`` in order; ``(start, end)`` of each."""
    spans = []
    for step in steps:
        began = clock()
        step()
        spans.append((began, clock()))
    return spans


def batch_paper(spec: Dict[str, Any], rec: Any, events: Any, t0: float) -> Dict[str, Any]:
    from repro.core.config import LTCConfig
    from repro.core.kernels import build_ltc

    wl, seconds = spec["wl"], spec["seconds"]
    period = len(events) // wl["stream"]["num_periods"]
    cfg = LTCConfig(items_per_period=period, **wl["ltc"])
    items = events.tolist()
    bounds = [(s, min(s + period, len(items))) for s in range(0, len(items), period)]
    period_spans: List[List[Tuple[float, float]]] = []
    reports: List[Any] = []

    def batch_pass() -> None:
        ltc = build_ltc(cfg)

        def one_period(start: int, end: int) -> Callable[[], None]:
            def step() -> None:
                ltc.insert_many(items[start:end])
                ltc.end_period()
            return step

        period_spans.append(timed_steps(one_period(start, end) for start, end in bounds))
        reports[:] = [tuple(r) for r in ltc.top_k(wl["k"])]

    # Per-event passes cover the whole stream, as the batch passes do:
    # over a prefix, the time depended on which keys the seed put there.
    n_event = len(items)
    block = wl["per_event_block"]
    block_spans: List[List[Tuple[float, float]]] = []

    def per_event_pass() -> None:
        ltc = build_ltc(cfg)
        insert, end_period = ltc.insert, ltc.end_period

        def one_block(start: int) -> Callable[[], None]:
            def step() -> None:
                for index in range(start, min(start + block, n_event)):
                    insert(items[index])
                    if (index + 1) % period == 0:
                        end_period()
            return step

        block_spans.append(timed_steps(one_block(start) for start in range(0, n_event, block)))

    cpu0, wall0 = _cpu(), clock()
    batched = Passes(rec, "bench.pass", 0, batch_pass)
    single = Passes(rec, "bench.per_event", 1000, per_event_pass)
    alternate([batched, single], t0 + seconds, wl["min_passes"])
    return {
        "period_spans": period_spans,
        "block_spans": block_spans,
        "attempted": batched.count + single.count,
        "top_k": reports,
        "cpu_s": _cpu() - cpu0,
        "wall_s": clock() - wall0,
    }


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    rec: Optional[Any] = None
    if spec["trace"]:
        from benchmarks.e2e import layers, spans
        from repro import obs

        obs.enable()
        rec = spans.Recorder()
    import numpy as np

    from repro.core.config import LTCConfig
    from repro.core.kernels import build_ltc

    ltc = build_ltc(LTCConfig(**spec["wl"]["ltc"]))
    if rec is not None:
        spans.install_core(rec, type(ltc))
    print("ready", flush=True)
    if spec["setup_only"]:
        return 0
    t0 = clock()
    events = np.load(spec["events"])
    result = batch_paper(spec, rec, events, t0)
    result["peak_rss_mb"] = _vmhwm_mb()
    if rec is not None:
        result["obs"] = layers.registry_counters()
        rec.dump(os.path.join(spec["out_dir"], "spans.json"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
