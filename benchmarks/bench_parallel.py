"""Multi-core sharded ingestion vs the sequential batched coordinator.

One Zipf stream is item-sharded into 4 site streams; the sequential
``MergingCoordinator`` (batched fast path) and the forked-worker
``ParallelMergingCoordinator`` at 2 and 4 workers ingest the same
partition end-to-end (ingest, serialize, merge).  Results land in the
``parallel`` section of ``BENCH_throughput.json``.

Gates (also the CI parallel smoke):

* **differential** — every parallel report is item-for-item identical to
  the sequential report (always enforced);
* **speedup** — the 4-worker run must beat the sequential path by a
  floor that adapts to the cores actually available (1.5x with >= 4
  cores, 1.05x with 2-3, identity-only on single-core boxes).
  ``REPRO_PARALLEL_SPEEDUP_FLOOR`` overrides the floor, e.g. for CI
  runners with noisy neighbours.
"""

from __future__ import annotations

import os

from benchmarks.bench_throughput import update_bench_json, usable_cores
from benchmarks.conftest import emit, once
from repro.core.config import LTCConfig
from repro.distributed.coordinator import MergingCoordinator
from repro.distributed.parallel import ParallelMergingCoordinator
from repro.distributed.partition import partition_sharded
from repro.metrics.throughput import measure_coordinator_throughput
from repro.streams.synthetic import zipf_stream


def test_throughput_parallel(benchmark):
    stream = zipf_stream(
        num_events=400_000, num_distinct=5_000, skew=1.0, num_periods=8, seed=11
    )
    config = LTCConfig(
        num_buckets=256,
        bucket_width=8,
        alpha=1.0,
        beta=1.0,
        items_per_period=stream.period_length,
    )
    sites = partition_sharded(stream, 4)
    worker_counts = (2, 4)

    def run():
        results = {}
        results["sequential"] = measure_coordinator_throughput(
            lambda: MergingCoordinator(config),
            sites,
            100,
            name="sequential",
            repeats=2,
        )
        for workers in worker_counts:
            results[f"parallel-{workers}w"] = measure_coordinator_throughput(
                lambda w=workers: ParallelMergingCoordinator(
                    config, max_workers=w
                ),
                sites,
                100,
                name=f"parallel-{workers}w",
                repeats=2,
            )
        return results

    results = once(benchmark, run)
    sequential, sequential_report = results["sequential"]
    speedups = {
        name: timing.ops / sequential.ops
        for name, (timing, _) in results.items()
    }
    cores = usable_cores()
    emit(
        "parallel",
        ["engine", "Mops", "speedup vs sequential"],
        [
            (name, f"{timing.mops:.3f}", f"{speedups[name]:.2f}x")
            for name, (timing, _) in results.items()
        ],
        title=(
            f"Forked sharded workers vs sequential coordinator "
            f"(zipf-1.0, 4 shards, {cores} cores, kernel={config.kernel})"
        ),
    )
    floor_env = os.environ.get("REPRO_PARALLEL_SPEEDUP_FLOOR")
    if floor_env is not None:
        floor = float(floor_env)
    elif cores >= 4:
        floor = 1.5
    elif cores >= 2:
        floor = 1.05
    else:
        floor = 0.0
    update_bench_json(
        "parallel",
        {
            "benchmark": "benchmarks/bench_parallel.py::test_throughput_parallel",
            "stream": {
                "kind": "zipf",
                "skew": 1.0,
                "num_events": len(stream),
                "num_distinct": 5_000,
                "num_periods": stream.num_periods,
                "seed": 11,
            },
            "shards": len(sites),
            "cores": cores,
            "kernel": config.kernel,
            "speedup_floor": floor,
            "results": [timing.to_dict() for timing, _ in results.values()],
            "speedups": speedups,
        },
    )
    # Differential gate: every parallel engine must answer identically.
    for name, (_, report) in results.items():
        assert report.top_k == sequential_report.top_k, (
            f"{name} diverged from the sequential coordinator"
        )
        assert report.communication_bytes == sequential_report.communication_bytes
    # Speedup gate, scaled to the hardware actually present.
    assert speedups["parallel-4w"] >= floor, (
        f"parallel-4w speedup {speedups['parallel-4w']:.2f}x below the "
        f"{floor:.2f}x floor ({cores} cores)"
    )
