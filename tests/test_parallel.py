"""Multi-core sharded ingestion: differential + robustness suite.

The parallel engine's contract is *bit-identity* with the sequential
coordinator: a worker process runs exactly the per-site batched loop on
the sites it inherited through fork, so on the same partition the merged
report must match item for item.  The crash tests drive the re-fork
machinery with the engine's fault-injection hook (a worker hard-exits
mid-shard, as if OOM-killed).
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.core.config import LTCConfig
from repro.distributed.coordinator import MergingCoordinator
from repro.distributed.parallel import (
    ParallelMergingCoordinator,
    ShardedPipeline,
    WorkerCrashError,
    ingest_shard,
    worker_processes_available,
)
from repro.distributed.partition import partition_sharded, shard_of
from repro.streams.io import TimeBinnedStream
from repro.streams.synthetic import zipf_stream
from tests.conftest import make_stream

SHARD_SEED = 0xD15C
WORKER_PREFIX = "repro-shard-worker-"

needs_processes = pytest.mark.skipif(
    not worker_processes_available(), reason="platform lacks worker processes"
)
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform lacks the fork start method",
)


@pytest.fixture(scope="module")
def logical_stream():
    return zipf_stream(
        num_events=8_000, num_distinct=1_500, skew=1.1, num_periods=8, seed=21
    )


@pytest.fixture(scope="module")
def config():
    return LTCConfig(
        num_buckets=64,
        bucket_width=8,
        alpha=1.0,
        beta=1.0,
        items_per_period=1,  # overridden per site
    )


@pytest.fixture(scope="module")
def sites(logical_stream):
    return partition_sharded(logical_stream, 4, seed=SHARD_SEED)


@pytest.fixture(scope="module")
def sequential_report(config, sites):
    return MergingCoordinator(config).run(sites, 50)


def assert_reports_equal(parallel, sequential):
    """Field-by-field identity, ignoring the parallel-only crash counter."""
    assert parallel.top_k == sequential.top_k
    assert parallel.communication_bytes == sequential.communication_bytes
    assert parallel.num_sites == sequential.num_sites


def shard_workers():
    return [
        p
        for p in multiprocessing.active_children()
        if p.name.startswith(WORKER_PREFIX)
    ]


class TestDifferential:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_matches_sequential_on_item_shards(
        self, config, sites, sequential_report, workers
    ):
        report = ParallelMergingCoordinator(config, max_workers=workers).run(
            sites, 50
        )
        assert_reports_equal(report, sequential_report)

    def test_single_worker_fallback_matches(
        self, config, sites, sequential_report
    ):
        """max_workers=1 skips processes entirely yet answers identically."""
        report = ParallelMergingCoordinator(config, max_workers=1).run(sites, 50)
        assert_reports_equal(report, sequential_report)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_columnar_kernel_matches_sequential(self, config, sites, workers):
        columnar = config.with_options(kernel="columnar")
        sequential = MergingCoordinator(columnar).run(sites, 50)
        report = ParallelMergingCoordinator(columnar, max_workers=workers).run(
            sites, 50
        )
        assert_reports_equal(report, sequential)

    def test_pipeline_matches_sequential_on_same_split(
        self, config, logical_stream, sequential_report
    ):
        pipeline = ShardedPipeline(
            config, num_shards=4, max_workers=2, seed=SHARD_SEED
        )
        report = pipeline.run(logical_stream, 50)
        assert_reports_equal(report, sequential_report)

    def test_worker_body_equals_batched_site_run(self, config, sites):
        """ingest_shard is literally run(ltc, batched=True) + to_bytes."""
        from repro.core.ltc import LTC
        from repro.core.serialize import to_bytes

        site = sites[0]
        site_config = config.with_options(items_per_period=site.period_length)
        reference = LTC(site_config)
        site.run(reference, batched=True)
        assert ingest_shard(site_config, site) == to_bytes(reference)

    @needs_fork
    def test_forked_workers_never_pickle_a_site(
        self, config, sites, sequential_report, monkeypatch
    ):
        """Under fork the sites reach workers by inheritance, not a pipe."""
        from repro.streams.model import PeriodicStream

        def refuse(self, protocol):
            raise AssertionError("a site stream was pickled")

        monkeypatch.setattr(PeriodicStream, "__reduce_ex__", refuse)
        report = ParallelMergingCoordinator(config, max_workers=2).run(
            sites, 50
        )
        assert_reports_equal(report, sequential_report)

    @needs_processes
    def test_spawn_start_method_matches(
        self, config, sites, sequential_report, monkeypatch
    ):
        """Without fork the same Process arguments are pickled instead."""
        from repro.distributed import parallel as parallel_mod

        monkeypatch.setattr(
            parallel_mod,
            "_mp_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        report = ParallelMergingCoordinator(config, max_workers=2).run(
            sites, 50
        )
        assert_reports_equal(report, sequential_report)

    def test_owned_key_ranges_are_disjoint_and_stable(self, logical_stream):
        """shard_of is the routing function partition_sharded applies."""
        shards = partition_sharded(logical_stream, 4, seed=SHARD_SEED)
        for index, shard in enumerate(shards):
            assert all(
                shard_of(item, 4, SHARD_SEED) == index
                for item in set(shard.events)
            )


class TestCrashRecovery:
    @needs_processes
    def test_single_crash_counts_exactly_one(
        self, config, sites, sequential_report
    ):
        """Regression: one dead worker at 4 shards is one crash, not four.

        The pool-based engine let a single death poison the whole pool —
        finished and unstarted shards' futures raised too, were counted
        as crashes, and were fully re-ingested.  Per-worker processes are
        isolated: the report records exactly the one genuine death.
        """
        coordinator = ParallelMergingCoordinator(
            config, max_workers=4, max_retries=2
        )
        coordinator._crash_plan = {1: 1}  # exactly one worker dies, once
        report = coordinator.run(sites, 50)
        assert_reports_equal(report, sequential_report)
        assert report.worker_crashes == 1

    @needs_processes
    def test_clean_run_reports_zero_crashes(self, config, sites):
        report = ParallelMergingCoordinator(config, max_workers=2).run(sites, 50)
        assert report.worker_crashes == 0

    @needs_processes
    def test_crash_obs_counter_matches_report(self, config, sites):
        from repro import obs

        reg = obs.enable()
        try:
            coordinator = ParallelMergingCoordinator(
                config, max_workers=4, max_retries=2
            )
            coordinator._crash_plan = {2: 1}
            report = coordinator.run(sites, 50)
            values = {
                m["name"]: m["value"]
                for m in reg.snapshot()["metrics"]
                if m["type"] == "counter"
            }
            assert report.worker_crashes == 1
            assert values["coordinator_worker_crashes_total"] == 1
        finally:
            obs.disable()

    @needs_processes
    def test_crash_recovery_on_columnar_kernel(self, config, sites):
        columnar = config.with_options(kernel="columnar")
        sequential = MergingCoordinator(columnar).run(sites, 50)
        coordinator = ParallelMergingCoordinator(
            columnar, max_workers=2, max_retries=2
        )
        coordinator._crash_plan = {0: 1, 3: 2}
        report = coordinator.run(sites, 50)
        assert_reports_equal(report, sequential)
        # Worker 0 (shards 0, 2) dies once; worker 1 (shards 1, 3) twice.
        assert report.worker_crashes == 3

    @needs_processes
    def test_retry_recovers_from_mid_run_crash(
        self, config, sites, sequential_report
    ):
        """A worker dying mid-shard is retried and the answer is unchanged."""
        coordinator = ParallelMergingCoordinator(
            config, max_workers=2, max_retries=2
        )
        coordinator._crash_plan = {1: 1}  # shard 1 dies once, mid-run
        report = coordinator.run(sites, 50)
        assert_reports_equal(report, sequential_report)

    @needs_processes
    def test_persistent_crash_surfaces_clear_error(self, config, sites):
        coordinator = ParallelMergingCoordinator(
            config, max_workers=2, max_retries=1
        )
        coordinator._crash_plan = {0: 99}  # shard 0 dies on every attempt
        with pytest.raises(WorkerCrashError) as excinfo:
            coordinator.run(sites, 50)
        error = excinfo.value
        # The sick shard is named, along with any other shards owned by
        # the same worker (they are rerun together).
        assert 0 in error.shards
        assert error.max_retries == 1
        assert "retries" in str(error)

    @needs_processes
    def test_exhausted_retries_count_every_death(self, config, sites):
        from repro import obs

        reg = obs.enable()
        try:
            coordinator = ParallelMergingCoordinator(
                config, max_workers=2, max_retries=2
            )
            coordinator._crash_plan = {2: 99}
            with pytest.raises(WorkerCrashError) as excinfo:
                coordinator.run(sites, 50)
            values = {
                m["name"]: m["value"]
                for m in reg.snapshot()["metrics"]
                if m["type"] == "counter"
            }
        finally:
            obs.disable()
        # Worker 0 owns shards 0 and 2: three deaths, two re-forks of both.
        assert excinfo.value.shards == [0, 2]
        assert values["coordinator_worker_crashes_total"] == 3
        assert values["coordinator_worker_retries_total"] == 4


class TestWorkerCleanup:
    """No worker process outlives a clean, crashed or aborted run."""

    @needs_processes
    def test_clean_run_leaves_no_workers(self, config, sites, sequential_report):
        report = ParallelMergingCoordinator(config, max_workers=2).run(
            sites, 50
        )
        assert report.top_k == sequential_report.top_k
        assert not shard_workers()

    @needs_processes
    def test_crashed_workers_leave_no_workers(
        self, config, sites, sequential_report
    ):
        """Worker deaths mid-run (as if SIGKILLed) leave nothing behind."""
        coordinator = ParallelMergingCoordinator(
            config, max_workers=4, max_retries=2
        )
        coordinator._crash_plan = {0: 1, 3: 1}
        report = coordinator.run(sites, 50)
        assert report.worker_crashes == 2
        assert report.top_k == sequential_report.top_k
        assert not shard_workers()

    @needs_processes
    def test_aborted_run_leaves_no_workers(self, config, sites):
        """Even WorkerCrashError exhaustion tears every worker down."""
        coordinator = ParallelMergingCoordinator(
            config, max_workers=2, max_retries=1
        )
        coordinator._crash_plan = {1: 99}
        with pytest.raises(WorkerCrashError):
            coordinator.run(sites, 50)
        deadline = time.monotonic() + 10
        while shard_workers() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not shard_workers()


class TestValidation:
    def test_rejects_bad_worker_count(self, config):
        with pytest.raises(ValueError):
            ParallelMergingCoordinator(config, max_workers=0)

    def test_rejects_negative_retries(self, config):
        with pytest.raises(ValueError):
            ParallelMergingCoordinator(config, max_retries=-1)

    def test_rejects_empty_site_list(self, config):
        with pytest.raises(ValueError):
            ParallelMergingCoordinator(config, max_workers=1).run([], 10)

    def test_rejects_bad_shard_count(self, config):
        with pytest.raises(ValueError):
            ShardedPipeline(config, num_shards=0)


class TestShardSlicing:
    def test_iter_periods_on_count_based_remainder(self):
        stream = make_stream([1, 2, 3, 4, 5, 6, 7], num_periods=3)
        periods = [list(p) for p in stream.iter_periods()]
        assert len(periods) == 3
        assert periods[-1] == [5, 6, 7]  # last period absorbs the remainder

    def test_iter_periods_on_time_binned_stream(self):
        stream = TimeBinnedStream(
            events=[10, 11, 12, 13], boundaries=[1, 1, 3], name="tb"
        )
        assert [list(p) for p in stream.iter_periods()] == [
            [10],
            [],
            [11, 12],
            [13],
        ]

    def test_period_slices_agree_with_iter_periods(self, logical_stream):
        """period_slices is the single source of truth for period cuts."""
        streams = [
            logical_stream,
            make_stream([1, 2, 3, 4, 5, 6, 7], num_periods=3),
            TimeBinnedStream(
                events=[10, 11, 12, 13], boundaries=[1, 1, 3], name="tb"
            ),
        ]
        for stream in streams:
            slices = stream.period_slices()
            assert len(slices) == stream.num_periods
            assert [stream.events[s:e] for s, e in slices] == [
                list(p) for p in stream.iter_periods()
            ]
