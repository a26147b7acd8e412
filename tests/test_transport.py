"""Shared-memory transport: lifecycle, crash cleanup, and fallbacks.

The zero-copy ring is the fast path of the persistent-worker engine, so
its failure modes get their own suite: segments must never leak (clean
runs, crashed workers, SIGKILLed attachers, aborted runs), oversized
batches must spill to the pickle path without changing answers, and a
shm-free platform must degrade to pickled chunks transparently.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.config import LTCConfig
from repro.distributed.coordinator import MergingCoordinator
from repro.distributed.parallel import (
    ParallelMergingCoordinator,
    WorkerCrashError,
    worker_processes_available,
)
from repro.distributed.partition import partition_sharded
from repro.distributed.transport import ShmRing, live_segment_names, shm_available
from repro.streams.synthetic import zipf_stream

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared-memory transport unavailable"
)
needs_processes = pytest.mark.skipif(
    not worker_processes_available(), reason="platform lacks worker processes"
)

WORKER_PREFIX = "repro-shard-worker-"


def _dev_shm_entries():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return None
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


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
    return partition_sharded(logical_stream, 4)


@pytest.fixture(scope="module")
def sequential_report(config, sites):
    return MergingCoordinator(config).run(sites, 50)


class TestRingLifecycle:
    @needs_shm
    def test_write_read_roundtrip(self):
        np = pytest.importorskip("numpy")
        ring = ShmRing(slots=4, slot_items=16)
        try:
            assert ring.write(2, np.array([5, 6, 7], dtype=np.int64)) == 3
            assert ring.read_list(2, 3) == [5, 6, 7]
            assert ring.write(0, [1, -2, 2**62]) == 3
            assert ring.read_list(0, 3) == [1, -2, 2**62]
            assert ring.write(1, []) == 0
            assert ring.read_list(1, 0) == []
        finally:
            ring.destroy()

    @needs_shm
    def test_oversized_write_is_rejected(self):
        ring = ShmRing(slots=1, slot_items=4)
        try:
            with pytest.raises(ValueError):
                ring.write(0, list(range(5)))
        finally:
            ring.destroy()

    @needs_shm
    def test_destroy_unlinks_segment_and_registry(self):
        ring = ShmRing(slots=2, slot_items=8)
        name = ring.name
        assert name in live_segment_names()
        entries = _dev_shm_entries()
        if entries is not None:
            assert name in entries
        ring.destroy()
        ring.destroy()  # idempotent
        assert name not in live_segment_names()
        entries = _dev_shm_entries()
        if entries is not None:
            assert name not in entries

    @needs_shm
    def test_attach_reads_creator_data_without_unlinking(self):
        ring = ShmRing(slots=2, slot_items=8)
        try:
            ring.write(1, [41, 42])
            attached = ShmRing.attach(ring.name, slots=2, slot_items=8)
            assert attached.read_list(1, 2) == [41, 42]
            attached.destroy()
            # Non-creator destroy closes its mapping but the segment (and
            # the creator's registry entry) must survive.
            assert ring.name in live_segment_names()
            assert ring.read_list(1, 2) == [41, 42]
        finally:
            ring.destroy()

    @needs_shm
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ShmRing(slots=0, slot_items=8)
        with pytest.raises(ValueError):
            ShmRing(slots=1, slot_items=0)

    @needs_shm
    @needs_processes
    def test_segment_survives_sigkilled_attacher(self):
        """A SIGKILLed worker leaks nothing: the creator still owns cleanup."""
        ring = ShmRing(slots=2, slot_items=8)
        ring.write(0, [7, 8])

        def attach_and_sleep(name):  # pragma: no cover - child process
            attached = ShmRing.attach(name, slots=2, slot_items=8)
            attached.read_list(0, 2)
            time.sleep(60)

        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=attach_and_sleep, args=(ring.name,))
        child.start()
        time.sleep(0.2)
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=10)
        assert child.exitcode == -signal.SIGKILL
        # The creator's handle still works and cleanup still completes.
        assert ring.read_list(0, 2) == [7, 8]
        name = ring.name
        ring.destroy()
        assert name not in live_segment_names()
        entries = _dev_shm_entries()
        if entries is not None:
            assert name not in entries


class TestCoordinatorCleanup:
    @needs_shm
    @needs_processes
    def test_clean_run_leaves_no_segments_or_workers(
        self, config, sites, sequential_report
    ):
        before = _dev_shm_entries()
        report = ParallelMergingCoordinator(
            config, max_workers=2, transport="shm"
        ).run(sites, 50)
        assert report.top_k == sequential_report.top_k
        assert not live_segment_names()
        after = _dev_shm_entries()
        if before is not None:
            assert after <= before
        assert not [
            p
            for p in multiprocessing.active_children()
            if p.name.startswith(WORKER_PREFIX)
        ]

    @needs_shm
    @needs_processes
    def test_crashed_workers_leave_no_segments(self, config, sites):
        """Worker deaths mid-run (as if SIGKILLed) leak no /dev/shm entries."""
        before = _dev_shm_entries()
        coordinator = ParallelMergingCoordinator(
            config, max_workers=4, max_retries=2, transport="shm"
        )
        coordinator._crash_plan = {0: 1, 3: 1}
        report = coordinator.run(sites, 50)
        assert report.worker_crashes == 2
        assert not live_segment_names()
        after = _dev_shm_entries()
        if before is not None:
            assert after <= before

    @needs_shm
    @needs_processes
    def test_aborted_run_cleans_up_segments_and_workers(self, config, sites):
        """Even WorkerCrashError exhaustion tears everything down."""
        before = _dev_shm_entries()
        coordinator = ParallelMergingCoordinator(
            config, max_workers=2, max_retries=1, transport="shm"
        )
        coordinator._crash_plan = {1: 99}
        with pytest.raises(WorkerCrashError):
            coordinator.run(sites, 50)
        assert not live_segment_names()
        after = _dev_shm_entries()
        if before is not None:
            assert after <= before
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leftovers = [
                p
                for p in multiprocessing.active_children()
                if p.name.startswith(WORKER_PREFIX)
            ]
            if not leftovers:
                break
            time.sleep(0.05)
        assert not leftovers


class TestFallbacks:
    @needs_processes
    def test_shared_memory_absent_falls_back_to_pickle(
        self, config, sites, sequential_report, monkeypatch
    ):
        """Without shm the auto transport degrades to pickled chunks, and
        an explicit ``transport="shm"`` is refused."""
        from repro.distributed import transport as transport_mod

        monkeypatch.setattr(transport_mod, "_shm", None)
        assert not transport_mod.shm_available()
        with pytest.raises(RuntimeError):
            ShmRing(slots=1, slot_items=1)
        report = ParallelMergingCoordinator(
            config, max_workers=2, transport="auto"
        ).run(sites, 50)
        assert report.top_k == sequential_report.top_k
        assert report.communication_bytes == sequential_report.communication_bytes
        with pytest.raises(RuntimeError):
            ParallelMergingCoordinator(
                config, max_workers=2, transport="shm"
            ).run(sites, 50)

    @needs_shm
    @needs_processes
    def test_oversized_batches_spill_to_pickle(
        self, config, sites, sequential_report
    ):
        """Batches larger than a ring slot ship as chunks, same answer."""
        spilling = ParallelMergingCoordinator(
            config, max_workers=2, transport="shm", slot_items=8
        )
        report = spilling.run(sites, 50)
        assert report.top_k == sequential_report.top_k
        assert report.communication_bytes == sequential_report.communication_bytes
        zero_copy = ParallelMergingCoordinator(
            config, max_workers=2, transport="shm"
        ).run(sites, 50)
        # Spilled batches pay the pickle cost; the sized ring does not.
        assert report.ingest_ipc_bytes > 10 * zero_copy.ingest_ipc_bytes

    @needs_shm
    @needs_processes
    def test_shm_ipc_under_one_percent_of_pickle(self, config):
        """The acceptance gate: zero-copy IPC is <1% of the pickle baseline."""
        stream = zipf_stream(
            num_events=60_000,
            num_distinct=4_000,
            skew=1.1,
            num_periods=8,
            seed=9,
        )
        shards = partition_sharded(stream, 4)
        shm_report = ParallelMergingCoordinator(
            config, max_workers=2, transport="shm"
        ).run(shards, 50)
        pickle_report = ParallelMergingCoordinator(
            config, max_workers=2, transport="pickle"
        ).run(shards, 50)
        assert shm_report.top_k == pickle_report.top_k
        assert shm_report.ingest_ipc_bytes > 0
        assert (
            shm_report.ingest_ipc_bytes
            < 0.01 * pickle_report.ingest_ipc_bytes
        )


class TestWorkerProtocol:
    """In-process unit tests of the worker-side message handling."""

    def _jobs(self, config):
        return [(0, config.with_options(items_per_period=4))]

    def test_chunked_batches_accumulate_until_final(self, config):
        from repro.core.kernels import build_ltc
        from repro.core.serialize import to_bytes
        from repro.distributed.parallel import _WorkerState

        state = _WorkerState(self._jobs(config), None, {})
        assert state.handle(("c", 0, [1, 2], False)) == ("a", None)
        assert state.handle(("c", 0, [3], True)) == ("a", None)
        assert state.handle(("c", 0, [4, 5], True)) == ("a", None)
        kind, payloads = state.handle(("f",))
        assert kind == "s"
        reference = build_ltc(self._jobs(config)[0][1])
        reference.insert_many([1, 2, 3])
        reference.end_period()
        reference.insert_many([4, 5])
        reference.end_period()
        reference.finalize()
        assert payloads == {0: to_bytes(reference)}

    @needs_shm
    def test_ring_batches_are_read_from_slots(self, config):
        from repro.distributed.parallel import _WorkerState

        ring = ShmRing(slots=2, slot_items=8)
        try:
            state = _WorkerState(self._jobs(config), ring, {})
            ring.write(1, [9, 9, 4])
            assert state.handle(("b", 0, 1, 3)) == ("a", 1)
            kind, payloads = state.handle(("f",))
            assert kind == "s" and set(payloads) == {0}
        finally:
            ring.destroy()

    def test_unknown_message_is_rejected(self, config):
        from repro.distributed.parallel import _WorkerState

        state = _WorkerState(self._jobs(config), None, {})
        with pytest.raises(RuntimeError):
            state.handle(("zz",))
        with pytest.raises(RuntimeError):
            state.handle(("b", 0, 0, 1))  # ring batch without a ring
