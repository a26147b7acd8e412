"""Insertion throughput (the paper's speed claim, §I/§V).

The paper's numbers are C++ on a Xeon; absolute Python Mops are not
comparable, so this bench reports *relative* throughput.  Shape to
reproduce: LTC processes insertions in the same speed class as the
counter-based algorithms and is not slower than the multi-hash
sketch+heap pipelines by more than a small factor; PIE pays for its
per-insert fountain encoding.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

import numpy as np

from benchmarks.conftest import emit, once
from repro.experiments.configs import (
    default_algorithms_frequent,
    default_algorithms_persistent,
)
from repro.metrics.memory import MemoryBudget, kb
from repro.metrics.throughput import (
    ThroughputResult,
    measure_query_throughput,
    measure_throughput,
    run_per_event,
)

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_throughput.json"


def update_bench_json(section: str, payload: dict) -> None:
    """Merge one benchmark's payload into ``BENCH_throughput.json``.

    The file holds one entry per benchmark under ``sections`` so each
    bench (batched, columnar, baselines, obs, serving) refreshes its own
    numbers without clobbering the others'.  Every section records the
    ``cores`` it ran on, since a throughput figure means little without
    the core count behind it.
    """
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except ValueError:
            data = {}
    sections = data.get("sections", {})
    sections[section] = {**payload, "cores": usable_cores()}
    BENCH_JSON.write_text(
        json.dumps(
            {
                "generated_at": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
                "sections": sections,
            },
            indent=2,
        )
        + "\n"
    )


def usable_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - non-Linux


#: Alternated (per-event, batched) pairs behind every gated batch ratio.
PAIRS = 5


def alternated_pairs(factory, per_event, batched, pairs=PAIRS):
    """Time ``per_event(s)`` and ``batched(s)`` on fresh ``factory()``
    instances, back to back in ``pairs`` pairs whose order swaps each time.

    A shared host's speed shifts by up to 1.4x within seconds, so two
    best-of-N figures timed in turn can disagree by more than a gate's
    margin; the two runs of one pair see nearly the same host.  Each run
    is timed in process CPU seconds, which leave out the time other
    tenants hold the core.  Returns the per-event and batched seconds
    and the last pair's two instances, for a differential check outside
    the timed region.
    """
    sides = (per_event, batched)
    seconds = ([], [])
    last = [None, None]
    for pair in range(pairs):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            summary = factory()
            start = time.process_time()
            sides[side](summary)
            seconds[side].append(time.process_time() - start)
            last[side] = summary
    return seconds, last


def median_ratio(seconds) -> float:
    """Median over the pairs of per-event seconds / batched seconds."""
    return statistics.median(p / b for p, b in zip(*seconds))


def median_results(name, events, seconds):
    """Per-event and batched results at each side's median seconds."""
    return tuple(
        ThroughputResult(
            name=name,
            events=events,
            seconds=statistics.median(times),
            mode=mode,
        )
        for mode, times in zip(("per-event", "batched"), seconds)
    )


def test_throughput_frequent(benchmark, bench_caida):
    stream, _ = bench_caida
    budget = MemoryBudget(kb(8))
    # The line-up's LTC row is the reference kernel: every ratio here is
    # over the paper-faithful update.
    factories = dict(
        default_algorithms_frequent(budget, stream, 100, kernel="reference")
    )
    # The production kernel with the O(1) hit path (same behaviour,
    # differentially tested) — included to show the Python-level headroom.
    from repro.core.columnar import ColumnarLTC
    from repro.core.config import LTCConfig

    factories["ColumnarLTC"] = lambda: ColumnarLTC(
        LTCConfig(
            num_buckets=budget.ltc_buckets(8),
            bucket_width=8,
            alpha=1.0,
            beta=0.0,
            items_per_period=stream.period_length,
        )
    )

    def run():
        return {
            name: measure_throughput(factory, stream, name=name, repeats=2)
            for name, factory in factories.items()
        }

    results = once(benchmark, run)
    emit(
        "throughput",
        ["algorithm", "Mops", "relative to LTC"],
        [
            (name, f"{r.mops:.3f}", f"{r.mops / results['LTC'].mops:.2f}x")
            for name, r in results.items()
        ],
        title="Throughput, frequent-items line-up (caida, 8KB)",
    )
    ltc = results["LTC"].mops
    # Pure-Python caveat (DESIGN.md §3): dict-based counter algorithms
    # (Freq, LC) benefit from C-implemented dicts, so only the relative
    # claims that survive the language change are asserted — LTC's single
    # hash + d-cell scan beats every multi-hash sketch+heap pipeline.
    assert ltc > results["CU"].mops
    assert ltc > results["Count"].mops
    # CM and LTC are the same speed class in Python; allow 2x noise.
    assert ltc * 2.0 > results["CM"].mops
    # The indexed kernel, driven per event, is in the same speed class as
    # the reference (its edge shows on hit-heavy streams and in batches;
    # here the claim is only "never materially slower").
    assert results["ColumnarLTC"].mops >= ltc * 0.6


#: ``test_throughput_batched``'s floor on per-event ``ColumnarLTC.insert``
#: over per-event ``LTC.insert``: under half the lowest of 20 runs on a
#: shared 2-vCPU VM (26.0x; median 33.5x).
PER_EVENT_FLOOR = 12.0

#: ``test_throughput_batched``'s floor on batched ``ColumnarLTC`` fed
#: ``uint64`` arrays over the same keys fed as lists (1.31-1.45x in 20
#: runs on a shared 2-vCPU VM): the array path is never the slower one.
UINT64_FLOOR = 1.0


def test_throughput_batched(benchmark):
    """Per-event vs batched ingestion — the amortised fast path.

    A Zipf-1.0 stream with ample table capacity (the hit-heavy regime the
    batch path targets) is driven through both modes for the LTC family,
    and through ``update``/``update_many`` for the sketches.  Results are
    printed, appended to ``benchmarks/results/``, and written as
    machine-readable ``BENCH_throughput.json`` at the repo root so later
    PRs can track the perf trajectory.

    Gate (also the CI throughput smoke): batched must never be slower
    than per-event, ``ColumnarLTC.insert_many`` must run at least 3.9x
    per-event ``LTC.insert`` (the old bar of 2x per-event
    ``FastLTC.insert``, which ran 1.97x ``LTC.insert`` in the last
    committed run of this bench), per-event ``ColumnarLTC.insert``, the
    compiled kernel's own method, at least ``PER_EVENT_FLOOR`` times
    per-event ``LTC.insert``, and batched ``ColumnarLTC`` fed ``uint64``
    arrays at least ``UINT64_FLOOR`` times the same keys fed as lists.
    The sketches' speedups, CU's gated floor among them, are medians of
    ``PAIRS`` alternated pairs (:func:`alternated_pairs`).
    """
    from repro.core.columnar import ColumnarLTC
    from repro.core.config import LTCConfig
    from repro.core.ltc import LTC
    from repro.sketches.count_min import CountMinSketch
    from repro.sketches.count_sketch import CountSketch
    from repro.sketches.cu import CUSketch
    from repro.streams.synthetic import zipf_stream

    stream = zipf_stream(
        num_events=100_000, num_distinct=1_000, skew=1.0, num_periods=5, seed=42
    )
    config = LTCConfig(
        num_buckets=128,
        bucket_width=8,
        alpha=1.0,
        beta=1.0,
        items_per_period=stream.period_length,
    )
    summaries = {
        "LTC": lambda: LTC(config),
        "ColumnarLTC": lambda: ColumnarLTC(config),
    }
    sketches = {
        "CM": lambda: CountMinSketch(width=2_048, rows=3),
        "CU": lambda: CUSketch(width=2_048, rows=3),
        "Count": lambda: CountSketch(width=2_048, rows=3),
    }

    def sketch_pairs(factory):
        """``update`` per event against ``update_many`` per period, in
        alternated pairs."""

        def per_event(sketch):
            update = sketch.update
            for item in stream.events:
                update(item)

        def batched(sketch):
            for period in stream.iter_periods():
                sketch.update_many(period)

        seconds, _ = alternated_pairs(factory, per_event, batched)
        return seconds

    def run():
        results = {}
        for name, factory in summaries.items():
            results[name] = (
                measure_throughput(factory, stream, name=name, repeats=3),
                measure_throughput(
                    factory, stream, name=name, repeats=3, batched=True
                ),
            )
        sketch_seconds = {
            name: sketch_pairs(factory) for name, factory in sketches.items()
        }
        return results, sketch_seconds

    def measure_key_inputs():
        """Batched ColumnarLTC Mops over the same periods as lists of
        ints and as ``uint64`` arrays, alternated, best of 5 each."""
        periods = [list(period) for period in stream.iter_periods()]
        inputs = {
            "list": periods,
            "uint64": [np.asarray(period, dtype=np.uint64) for period in periods],
        }
        best = dict.fromkeys(inputs, float("inf"))
        for _ in range(5):
            for kind, batches in inputs.items():
                ltc = ColumnarLTC(config)
                start = time.perf_counter()
                for batch in batches:
                    ltc.insert_many(batch)
                    ltc.end_period()
                best[kind] = min(best[kind], time.perf_counter() - start)
        return {kind: len(stream) / seconds / 1e6 for kind, seconds in best.items()}

    results, sketch_seconds = once(benchmark, run)
    key_inputs = measure_key_inputs()
    uint64_ratio = key_inputs["uint64"] / key_inputs["list"]
    speedups = {
        name: batched.ops / per_event.ops
        for name, (per_event, batched) in results.items()
    }
    for name, seconds in sketch_seconds.items():
        results[name] = median_results(name, len(stream), seconds)
        speedups[name] = median_ratio(seconds)
    per_event_ratio = results["ColumnarLTC"][0].ops / results["LTC"][0].ops
    emit(
        "throughput",
        ["algorithm", "per-event Mops", "batched Mops", "speedup"],
        [
            (
                name,
                f"{per_event.mops:.3f}",
                f"{batched.mops:.3f}",
                f"{speedups[name]:.2f}x",
            )
            for name, (per_event, batched) in results.items()
        ],
        title="Batched vs per-event ingestion (zipf-1.0, ample capacity)",
    )
    update_bench_json(
        "batched",
        {
            "benchmark": "benchmarks/bench_throughput.py::test_throughput_batched",
            "stream": {
                "kind": "zipf",
                "skew": 1.0,
                "num_events": len(stream),
                "num_distinct": 1_000,
                "num_periods": stream.num_periods,
                "seed": 42,
            },
            "results": [
                result.to_dict() for pair in results.values() for result in pair
            ],
            "speedups": speedups,
            "columnar_per_event_over_ltc": {
                "ratio": per_event_ratio,
                "floor": PER_EVENT_FLOOR,
            },
            "columnar_uint64_over_list": {
                "list_mops": key_inputs["list"],
                "uint64_mops": key_inputs["uint64"],
                "ratio": uint64_ratio,
                "floor": UINT64_FLOOR,
            },
        },
    )
    # The batched path exists purely as an acceleration: never slower.
    for name, speedup in speedups.items():
        assert speedup >= 1.0, f"{name} batched slower than per-event"
    # And the headline claim: the old bar, FastLTC.insert_many >= 2.0x
    # FastLTC.insert, restated over LTC.insert, which FastLTC.insert
    # outran 1.97x (1.254 / 0.638 Mops): 2.0 x 1.97 = 3.9.  The columnar
    # kernel's own per-event path is too fast for a 2.0x ratio over
    # itself (DESIGN.md §11.6), so that ratio is held to the 1.0 floor.
    columnar = results["ColumnarLTC"][1].ops / results["LTC"][0].ops
    assert columnar >= 3.9, (
        f"ColumnarLTC batched is {columnar:.2f}x LTC per-event, below the "
        "3.9x floor"
    )
    # Per event, the columnar kernel's own bound method is one C call,
    # with no Python frame, against the reference's Python update
    # (26-62x, median 33.5x, in 20 runs on a 2-vCPU VM; 18-25x while a
    # Python method forwarded to it, 1.4x for the ctypes wrapper before).
    assert per_event_ratio >= PER_EVENT_FLOOR, (
        f"ColumnarLTC per-event is {per_event_ratio:.2f}x LTC per-event, "
        f"below the {PER_EVENT_FLOOR}x floor"
    )
    # A uint64 array skips the key checks and the tolist() a list pays.
    assert uint64_ratio >= UINT64_FLOOR, (
        f"ColumnarLTC.insert_many of uint64 arrays is {uint64_ratio:.2f}x "
        f"the same keys as lists, below the {UINT64_FLOOR}x floor"
    )
    # CU's conservative update is order-dependent, so its batch path runs
    # the sort-and-segment fixpoint kernel rather than a one-shot fold —
    # still worth a large factor over the per-event loop.  Best-of-3
    # rates timed in turn missed the 5.0x floor in 2 of 32 runs on a
    # shared host; the median of alternated pairs does not.
    cu_floor = float(os.environ.get("REPRO_CU_SPEEDUP_FLOOR", "5.0"))
    assert speedups["CU"] >= cu_floor, (
        f"CU batched speedup {speedups['CU']:.2f}x below the "
        f"{cu_floor:.2f}x floor"
    )


#: Floors of ``test_throughput_columnar``'s e2e-geometry points, as
#: ColumnarLTC over the reference LTC batched on the same calls: about
#: 0.3x of the ratios first measured (37.9x and 25.5x on a shared 2-vCPU
#: VM), leaving room for noisy runners.
POINT_FLOORS = {"paper": 12.0, "serve-write": 8.0}


def test_throughput_columnar(benchmark):
    """The columnar kernel's crossover curve, gated against the reference.

    The workload is period-realistic: 50 CLOCK periods over 500k Zipf-1.0
    events, driven through whole-period ``insert_many`` + ``end_period``.
    A kernel-crossover curve over w in {16, 32, 64, 128, 256, 512, 1024}
    records the columnar kernel's rate: one compiled per-event loop, so
    narrow, contended tables cost more per event only through their
    misses.  The reference LTC, driven through its own batched loop, is
    measured at the gated points.

    Gates (also the CI throughput smoke):

    * **differential** — cells and top-k identical to the reference LTC
      at the gated operating points (always enforced; the deep grid
      lives in ``tests/test_columnar.py``);
    * **speedup** — columnar must beat the reference batched by
      ``REPRO_COLUMNAR_SPEEDUP_FLOOR`` (default 6.7) at the wide
      (w=512) point;
    * **parity** — columnar must reach ``REPRO_COLUMNAR_PARITY_FLOOR``
      (default 3.6) x the reference batched at the miss-heavy (w=128)
      point;
    * **e2e geometries** — two more points, at the geometries of the
      e2e workloads, are gated at fixed floors over the reference
      batched fed the same calls: ``paper`` (w=85, d=8 on a
      ``network_like`` stream, whole-period calls; churn-heavy) and
      ``serve-write`` (w=1024, d=8, Zipf-1.0 over 100k keys, 4096-event
      periods fed in 2048-event calls, as the server's ingest worker
      does).  See ``POINT_FLOORS``.
    """
    from repro.core.columnar import ColumnarLTC
    from repro.core.config import LTCConfig
    from repro.core.ltc import LTC
    from repro.streams.datasets import network_like
    from repro.streams.synthetic import zipf_stream

    stream = zipf_stream(
        num_events=500_000, num_distinct=1_000, skew=1.0, num_periods=50,
        seed=42,
    )
    curve = {
        "w16": 16, "w32": 32, "w64": 64, "w128": 128, "w256": 256,
        "w512": 512, "w1024": 1024,
    }
    gated = {"w512": 512, "w128": 128}

    def config_for(buckets: int) -> LTCConfig:
        return LTCConfig(
            num_buckets=buckets,
            bucket_width=8,
            alpha=1.0,
            beta=1.0,
            items_per_period=stream.period_length,
        )

    def run():
        results = {}
        for label, buckets in curve.items():
            config = config_for(buckets)
            results[label] = {
                "ColumnarLTC": measure_throughput(
                    lambda: ColumnarLTC(config), stream,
                    name=f"ColumnarLTC-{label}", repeats=2, batched=True,
                ),
            }
            if label in gated:
                results[label]["LTC"] = measure_throughput(
                    lambda: LTC(config), stream, name=f"LTC-{label}",
                    repeats=2, batched=True,
                )
        return results

    # Recorded points: label -> (stream description, stream, num_buckets,
    # events per call; None = one call per period).
    paper_desc = {
        "kind": "network_like", "num_events": 500_000, "num_distinct": 100_000,
        "num_periods": 50,
    }
    serve_desc = {
        "kind": "zipf", "skew": 1.0, "num_events": 122 * 4096,
        "num_distinct": 100_000, "num_periods": 122, "seed": 42,
    }
    kernel_points = {
        "paper": (
            paper_desc,
            network_like(num_events=500_000, num_distinct=100_000, num_periods=50),
            85,
            None,
        ),
        "serve-write": (
            serve_desc,
            zipf_stream(
                num_events=122 * 4096, num_distinct=100_000, skew=1.0,
                num_periods=122, seed=42,
            ),
            1024,
            2048,
        ),
    }

    def measure_calls(factory, point_stream, call, name):
        # Fastest of two fresh runs, each period fed in ``call``-event
        # insert_many calls and closed by end_period.
        best = float("inf")
        for _ in range(2):
            summary = factory()
            start = time.perf_counter()
            for period in point_stream.iter_periods():
                step = call or len(period)
                for i in range(0, len(period), step):
                    summary.insert_many(period[i : i + step])
                summary.end_period()
            best = min(best, time.perf_counter() - start)
        return ThroughputResult(
            name=name, events=len(point_stream), seconds=best, mode="batched"
        )

    def run_points():
        results = {}
        for label, (_, point_stream, buckets, call) in kernel_points.items():
            config = LTCConfig(
                num_buckets=buckets, bucket_width=8, alpha=1.0, beta=1.0,
                items_per_period=point_stream.period_length,
            )
            results[label] = {
                name: measure_calls(
                    lambda: cls(config), point_stream, call, f"{name}-{label}"
                )
                for name, cls in (("ColumnarLTC", ColumnarLTC), ("LTC", LTC))
            }
        return results

    results = once(benchmark, run)
    point_results = run_points()
    # Differential gate: outside the timed region, fresh instances at
    # the gated points.
    for label, buckets in gated.items():
        config = config_for(buckets)
        ref, col = LTC(config), ColumnarLTC(config)
        stream.run(ref)
        stream.run(col)
        assert list(ref.cells()) == list(col.cells()), (
            f"columnar diverged from the reference LTC at {label}"
        )
        assert ref.top_k(100) == col.top_k(100)
    speedups = {
        label: point["ColumnarLTC"].ops / point["LTC"].ops
        for label, point in (*results.items(), *point_results.items())
        if "LTC" in point
    }
    emit(
        "throughput",
        ["operating point", "engine", "Mops", "vs LTC"],
        [
            (
                label,
                name,
                f"{result.mops:.3f}",
                f"{result.ops / point['LTC'].ops:.2f}x" if "LTC" in point else "-",
            )
            for label, point in (
                *results.items(),
                *point_results.items(),
            )
            for name, result in point.items()
        ],
        title=(
            "Kernel crossover curve (zipf-1.0, 50 periods, d=8) and the "
            "recorded paper / serve-write points"
        ),
    )
    floor = float(os.environ.get("REPRO_COLUMNAR_SPEEDUP_FLOOR", "6.7"))
    parity_floor = float(
        os.environ.get("REPRO_COLUMNAR_PARITY_FLOOR", "3.6")
    )
    update_bench_json(
        "columnar",
        {
            "benchmark": (
                "benchmarks/bench_throughput.py::test_throughput_columnar"
            ),
            "stream": {
                "kind": "zipf",
                "skew": 1.0,
                "num_events": len(stream),
                "num_distinct": 1_000,
                "num_periods": stream.num_periods,
                "seed": 42,
            },
            "bucket_width": 8,
            "gated_point": "w512",
            "parity_point": "w128",
            "speedup_floor": floor,
            "parity_floor": parity_floor,
            "crossover": [
                {
                    "num_buckets": buckets,
                    "columnar_mops": results[label]["ColumnarLTC"].mops,
                }
                for label, buckets in curve.items()
            ],
            "results": [
                result.to_dict()
                for point in results.values()
                for result in point.values()
            ],
            "speedups_vs_reference": speedups,
            "recorded_points": [
                {
                    "label": label,
                    "num_buckets": buckets,
                    "bucket_width": 8,
                    "stream": desc,
                    "events_per_call": call or point_stream.period_length,
                    "columnar_mops": point_results[label]["ColumnarLTC"].mops,
                    "reference_mops": point_results[label]["LTC"].mops,
                    "floor": POINT_FLOORS[label],
                }
                for label, (desc, point_stream, buckets, call) in kernel_points.items()
            ],
        },
    )
    assert speedups["w512"] >= floor, (
        f"columnar speedup {speedups['w512']:.2f}x over the reference LTC "
        f"is below the {floor:.2f}x floor at the gated point"
    )
    assert speedups["w128"] >= parity_floor, (
        f"columnar {speedups['w128']:.2f}x vs the reference LTC is below "
        f"the {parity_floor:.2f}x floor at the miss-heavy point"
    )
    for label, point_floor in POINT_FLOORS.items():
        assert speedups[label] >= point_floor, (
            f"columnar {speedups[label]:.2f}x vs the reference LTC is below "
            f"the {point_floor:.1f}x floor at the {label} point"
        )


#: Events of the network substitute behind ``test_throughput_baselines``'
#: second point: 20 periods of 1,000, where Space-Saving's and
#: Frequent's 1,024 counters fill in the second period and stay full.
NETWORK_HEAD = 20_000


def baseline_lineup(stream, distinct: int) -> dict:
    """One factory per comparison summary at the 8KB operating point."""
    from repro.combined.two_structure import TwoStructureSignificant
    from repro.persistent.pie import PIE
    from repro.persistent.sketch_persistent import SketchPersistent
    from repro.persistent.small_space import SmallSpacePersistent
    from repro.persistent.ss_persistent import SpaceSavingPersistent
    from repro.sketches.count_min import CountMinSketch
    from repro.sketches.count_sketch import CountSketch
    from repro.sketches.cu import CUSketch
    from repro.sketches.topk import SketchTopK
    from repro.summaries.frequent import Frequent
    from repro.summaries.lossy_counting import LossyCounting
    from repro.summaries.space_saving import SpaceSaving

    budget = MemoryBudget(kb(8))
    per_period = stream.period_length
    return {
        "SS": lambda: SpaceSaving.from_memory(budget),
        "Freq": lambda: Frequent.from_memory(budget),
        "LC": lambda: LossyCounting.from_memory(budget),
        "CM-topk": lambda: SketchTopK.from_memory(CountMinSketch, budget, 100),
        "CU-topk": lambda: SketchTopK.from_memory(CUSketch, budget, 100),
        "Count-topk": lambda: SketchTopK.from_memory(CountSketch, budget, 100),
        "SS+BF": lambda: SpaceSavingPersistent.from_memory(
            budget, expected_per_period=per_period
        ),
        "CM+BF": lambda: SketchPersistent.from_memory(
            CountMinSketch, budget, 100, expected_per_period=per_period
        ),
        "PIE": lambda: PIE.from_memory(budget),
        "SmallSpace": lambda: SmallSpacePersistent.from_memory(
            budget, expected_distinct=distinct
        ),
        "CU+CU": lambda: TwoStructureSignificant.from_memory(
            CUSketch, budget, 100, 1.0, 1.0
        ),
    }


def test_throughput_baselines(benchmark):
    """Per-event vs batched ingestion for *every* comparison summary.

    Each summary in the paper's comparison line-ups (counter-based,
    sketch+heap, persistent, two-structure) is driven through
    :func:`run_per_event` and ``PeriodicStream.run`` in ``PAIRS``
    alternated pairs at the 8KB operating point, at two points on either
    side of the Space-Saving and Frequent fold's selector:

    * **zipf** — the batched bench's Zipf stream, whose 1,000 keys fit
      in 1,024 counters, so those tables never fill and always fold;
    * **network** — the first ``NETWORK_HEAD`` events of the network
      substitute (the paper's churny dataset), whose tables fill in the
      second period and then take the per-event loop.  It adds the
      keyed adapter over Space-Saving and the windowed LTC.

    Results land in the ``baselines`` section of
    ``BENCH_throughput.json``, one entry per point.

    Gates (also the CI throughput smoke):

    * **differential** — for every summary, the batched run's reported
      pairs are identical to the per-event run's (always enforced; the
      deep state equality lives in ``tests/test_batched_baselines.py``);
    * **speedup** — at the zipf point Space-Saving and the CM sketch+heap
      pipeline must beat per-event by ``REPRO_BASELINE_SPEEDUP_FLOOR``
      (default 2.0; the CI smoke exports 1.2 for noisy shared runners,
      the nightly job runs the full 2.0), and at both points no summary
      may read below 0.9x per-event.  Every ratio is the median over the
      pairs.
    """
    from repro.core.keyed import KeyedSummary
    from repro.core.windowed import WindowedLTC
    from repro.streams.datasets import network_like
    from repro.streams.synthetic import zipf_stream
    from repro.summaries.space_saving import SpaceSaving

    zipf = zipf_stream(
        num_events=100_000, num_distinct=1_000, skew=1.0, num_periods=5, seed=42
    )
    network = network_like().head(NETWORK_HEAD)
    network_distinct = len(set(network.events))
    budget = MemoryBudget(kb(8))
    lineups = {
        "zipf": (zipf, baseline_lineup(zipf, 1_000)),
        "network": (
            network,
            {
                **baseline_lineup(network, network_distinct),
                "Keyed-SS": lambda: KeyedSummary(SpaceSaving.from_memory(budget)),
                "Windowed": lambda: WindowedLTC.from_memory(budget, window=3),
            },
        ),
    }

    def run():
        return {
            point: {
                name: alternated_pairs(
                    factory,
                    lambda summary: run_per_event(stream, summary),
                    stream.run,
                )
                for name, factory in factories.items()
            }
            for point, (stream, factories) in lineups.items()
        }

    timings = once(benchmark, run)
    points = {}
    for point, by_name in timings.items():
        stream = lineups[point][0]
        for name, (_, (one, many)) in by_name.items():
            assert one.reported_pairs(100) == many.reported_pairs(100), (
                f"{name}: batched ingestion diverged from per-event at the "
                f"{point} point"
            )
        results = {
            name: median_results(name, len(stream), seconds)
            for name, (seconds, _) in by_name.items()
        }
        speedups = {
            name: median_ratio(seconds) for name, (seconds, _) in by_name.items()
        }
        emit(
            "throughput",
            ["algorithm", "per-event Mops", "batched Mops", "speedup"],
            [
                (
                    name,
                    f"{per_event.mops:.3f}",
                    f"{batched.mops:.3f}",
                    f"{speedups[name]:.2f}x",
                )
                for name, (per_event, batched) in results.items()
            ],
            title=(
                f"Batched vs per-event ingestion, baseline line-ups "
                f"({stream.name}, 8KB; medians of {PAIRS} alternated pairs)"
            ),
        )
        points[point] = (stream, results, speedups)
    floor = float(os.environ.get("REPRO_BASELINE_SPEEDUP_FLOOR", "2.0"))
    parity_floor = 0.9
    update_bench_json(
        "baselines",
        {
            "benchmark": (
                "benchmarks/bench_throughput.py::test_throughput_baselines"
            ),
            "memory_kb": 8,
            "pairs": PAIRS,
            "speedup_floor": floor,
            "parity_floor": parity_floor,
            "points": {
                point: {
                    "stream": {
                        "name": stream.name,
                        "num_events": len(stream),
                        "num_distinct": len(set(stream.events)),
                        "num_periods": stream.num_periods,
                    },
                    "results": [
                        result.to_dict()
                        for pair in results.values()
                        for result in pair
                    ],
                    "speedups": speedups,
                }
                for point, (stream, results, speedups) in points.items()
            },
        },
    )
    # Never materially slower: at the network point SS, Frequent and the
    # windowed LTC run their per-event loop and read about 1.0x, so gate
    # at parity within noise rather than a strict 1.0.
    for point, (_, _, speedups) in points.items():
        for name, speedup in speedups.items():
            assert speedup >= parity_floor, (
                f"{name} batched {speedup:.2f}x per-event at the {point} point"
            )
    # Headline floors on the zipf point, where SS always folds and CM's
    # sketch updates are vectorised.
    zipf_speedups = points["zipf"][2]
    for name in ("SS", "CM-topk"):
        assert zipf_speedups[name] >= floor, (
            f"{name} batched speedup {zipf_speedups[name]:.2f}x below the "
            f"{floor:.2f}x floor"
        )


def test_throughput_obs(benchmark):
    """Observability overhead: the ingest hot paths with metrics on/off.

    The same Zipf workload as the batched bench is driven through the
    reference per-event path (``LTC.insert``) and the production batched
    path (``ColumnarLTC.insert_many``), once with observability disabled
    (the default null-registry state) and once with a live registry
    installed.  The ``obs`` section of ``BENCH_throughput.json`` records
    both numbers and their ratio per engine, and the instrumented run's
    registry snapshot is written to ``BENCH_obs_metrics.json`` (uploaded
    as a CI artifact).

    Gates:

    * **enabled overhead** — disabled/enabled Mops ratio must stay under
      the ceiling (default 1.15x; ``REPRO_OBS_OVERHEAD_CEILING``
      overrides for noisy runners);
    * **disabled overhead** — informational by default: the bench records
      how the metrics-off numbers compare to the ``batched`` section's
      previously recorded Mops (the pre-instrumentation trajectory).
      Setting ``REPRO_OBS_CHECK_BASELINE=1`` turns that into a hard
      ≤ 1.05x assertion — only meaningful on the machine that produced
      the recorded numbers, so CI leaves it off.
    """
    from repro import obs
    from repro.core.columnar import ColumnarLTC
    from repro.core.config import LTCConfig
    from repro.core.ltc import LTC
    from repro.streams.synthetic import zipf_stream

    stream = zipf_stream(
        num_events=100_000, num_distinct=1_000, skew=1.0, num_periods=5, seed=42
    )
    config = LTCConfig(
        num_buckets=128,
        bucket_width=8,
        alpha=1.0,
        beta=1.0,
        items_per_period=stream.period_length,
    )
    cases = [
        ("LTC", lambda: LTC(config), False),
        ("ColumnarLTC", lambda: ColumnarLTC(config), True),
    ]
    snapshot_path = BENCH_JSON.parent / "BENCH_obs_metrics.json"

    def run():
        results = {}
        obs.disable()
        try:
            for name, factory, batched in cases:
                off = measure_throughput(
                    factory, stream, name=f"{name}-off", repeats=3, batched=batched
                )
                obs.enable()
                on = measure_throughput(
                    factory, stream, name=f"{name}-on", repeats=3, batched=batched
                )
                snapshot = obs.registry().snapshot()
                obs.disable()
                results[name] = (off, on, snapshot)
        finally:
            obs.disable()
        return results

    results = once(benchmark, run)
    overheads = {
        name: off.mops / on.mops for name, (off, on, _) in results.items()
    }
    # How the metrics-off numbers compare to the recorded pre-run state
    # of the batched section (same stream, same engines).
    recorded = {}
    if BENCH_JSON.exists():
        try:
            sections = json.loads(BENCH_JSON.read_text()).get("sections", {})
            for entry in sections.get("batched", {}).get("results", []):
                recorded[(entry["name"], entry["mode"])] = entry["mops"]
        except ValueError:
            pass
    baseline_keys = {
        "LTC": ("LTC", "per-event"),
        "ColumnarLTC": ("ColumnarLTC", "batched"),
    }
    disabled_vs_recorded = {
        name: recorded[key] / results[name][0].mops
        for name, key in baseline_keys.items()
        if key in recorded
    }
    emit(
        "throughput",
        ["engine", "metrics off Mops", "metrics on Mops", "overhead"],
        [
            (name, f"{off.mops:.3f}", f"{on.mops:.3f}", f"{overheads[name]:.3f}x")
            for name, (off, on, _) in results.items()
        ],
        title="Observability overhead (zipf-1.0, metrics on vs off)",
    )
    ceiling = float(os.environ.get("REPRO_OBS_OVERHEAD_CEILING", "1.15"))
    update_bench_json(
        "obs",
        {
            "benchmark": "benchmarks/bench_throughput.py::test_throughput_obs",
            "stream": {
                "kind": "zipf",
                "skew": 1.0,
                "num_events": len(stream),
                "num_distinct": 1_000,
                "num_periods": stream.num_periods,
                "seed": 42,
            },
            "overhead_ceiling": ceiling,
            "results": [
                result.to_dict()
                for off, on, _ in results.values()
                for result in (off, on)
            ],
            "overheads": overheads,
            "disabled_vs_recorded": disabled_vs_recorded,
            "snapshot": str(snapshot_path.name),
        },
    )
    # Persist the instrumented run's registry for the CI artifact and
    # for `repro-ltc stats BENCH_obs_metrics.json`.
    from repro.obs.export import write_json_snapshot

    write_json_snapshot(results["ColumnarLTC"][2], snapshot_path)
    # Counters must reflect the instrumented passes (3 repeats x 100k).
    inserts = next(
        m["value"]
        for m in results["ColumnarLTC"][2]["metrics"]
        if m["name"] == "ltc_inserts_total"
    )
    assert inserts == 3 * len(stream)
    for name, overhead in overheads.items():
        assert overhead <= ceiling, (
            f"{name}: metrics-on overhead {overhead:.3f}x exceeds the "
            f"{ceiling:.2f}x ceiling"
        )
    if os.environ.get("REPRO_OBS_CHECK_BASELINE") == "1":
        for name, ratio in disabled_vs_recorded.items():
            assert ratio <= 1.05, (
                f"{name}: metrics-off throughput is {ratio:.3f}x slower than "
                "the recorded pre-instrumentation numbers (> 1.05x)"
            )


def test_query_throughput(benchmark, bench_caida):
    """Point-query latency of populated summaries (items present+absent)."""
    stream, truth = bench_caida
    budget = MemoryBudget(kb(8))
    factories = default_algorithms_frequent(budget, stream, 100, kernel="reference")
    probes = truth.items()[:2_000] + [2**40 + i for i in range(2_000)]

    def run():
        out = {}
        for name, factory in factories.items():
            summary = factory()
            stream.run(summary)
            out[name] = measure_query_throughput(
                summary, probes, name=name, repeats=2
            )
        return out

    results = once(benchmark, run)
    emit(
        "throughput",
        ["algorithm", "queries Mops"],
        [(name, f"{r.mops:.3f}") for name, r in results.items()],
        title="Point-query throughput (caida, 8KB, 50% absent keys)",
    )
    # LTC answers point queries with a single bucket probe — same class
    # as the hash-table baselines, faster than multi-row sketch medians.
    assert results["LTC"].mops > results["Count"].mops


def test_throughput_persistent(benchmark, bench_social):
    stream, _ = bench_social
    budget = MemoryBudget(kb(8))
    factories = default_algorithms_persistent(budget, stream, 100, kernel="reference")

    def run():
        return {
            name: measure_throughput(factory, stream, name=name, repeats=2)
            for name, factory in factories.items()
        }

    results = once(benchmark, run)
    emit(
        "throughput",
        ["algorithm", "Mops", "relative to LTC"],
        [
            (name, f"{r.mops:.3f}", f"{r.mops / results['LTC'].mops:.2f}x")
            for name, r in results.items()
        ],
        title="Throughput, persistent-items line-up (social, 8KB)",
    )
    # PIE's fountain encoding makes it the slowest of the line-up.
    assert results["LTC"].mops > results["PIE"].mops
