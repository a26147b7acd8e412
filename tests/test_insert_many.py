"""Batched ingestion ≡ per-event ingestion, cell for cell.

The batch fast paths (``StreamSummary.insert_many`` overrides, the
sketches' ``update_many``, ``PeriodicStream.run(batched=True)``) are pure
mechanical accelerations: every test here pins their output exactly equal
to the one-at-a-time reference on arbitrary streams and chunkings.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ClockPointer
from repro.core.config import LTCConfig
from repro.core.fast_ltc import FastLTC
from repro.core.kernels import KERNELS, build_ltc
from repro.core.ltc import LTC
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch
from repro.sketches.cu import CUSketch
from repro.streams.synthetic import zipf_stream

# ----------------------------------------------------------------- clock


class TestClockOnArrivals:
    @given(
        st.integers(1, 40),
        st.integers(1, 60),
        st.lists(st.integers(0, 25), max_size=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_on_arrivals_equals_repeated_on_arrival(self, m, n, counts):
        a = ClockPointer(m, n)
        b = ClockPointer(m, n)
        for count in counts:
            expected = []
            for _ in range(count):
                expected.extend(a.on_arrival())
            assert b.on_arrivals(count) == expected
            assert (a.hand, a._acc, a.scanned_in_period) == (
                b.hand,
                b._acc,
                b.scanned_in_period,
            )

    @given(st.integers(1, 40), st.integers(1, 60), st.integers(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_arrivals_until_harvest_is_exact(self, m, n, warmup):
        """The promised free arrivals harvest nothing; the next one does
        (unless the sweep is already complete for the period)."""
        clock = ClockPointer(m, n)
        for _ in range(warmup):
            clock.on_arrival()
        free = clock.arrivals_until_harvest()
        assert free >= 0
        for _ in range(free):
            assert clock.on_arrival() == []
        if clock.scanned_in_period < clock.num_cells:
            assert clock.on_arrival() != []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ClockPointer(4, 10).on_arrivals(-1)


# ------------------------------------------------------------- LTC family

CONFIG_STRATEGY = st.fixed_dictionaries(
    {
        "num_buckets": st.integers(1, 4),
        "bucket_width": st.integers(1, 6),
        "items_per_period": st.integers(1, 60),
        "deviation_eliminator": st.booleans(),
        "replacement_policy": st.sampled_from(
            [None, "longtail", "one", "space-saving"]
        ),
    }
)


def chunked(events, boundaries):
    """Split ``events`` at the given sorted boundary positions."""
    chunks = []
    prev = 0
    for b in sorted(set(boundaries)):
        if 0 < b < len(events):
            chunks.append(events[prev:b])
            prev = b
    chunks.append(events[prev:])
    return chunks


def same_state(a: LTC, b: LTC) -> None:
    assert list(a.cells()) == list(b.cells())
    assert a._clock.hand == b._clock.hand
    assert a._clock._acc == b._clock._acc
    assert a._clock.scanned_in_period == b._clock.scanned_in_period


@pytest.mark.parametrize("cls", [LTC, FastLTC], ids=["LTC", "FastLTC"])
class TestInsertManyEquivalence:
    @given(
        cfg=CONFIG_STRATEGY,
        events=st.lists(st.integers(0, 25), max_size=300),
        boundaries=st.lists(st.integers(0, 300), max_size=8),
    )
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_chunking_matches_per_event(
        self, cls, cfg, events, boundaries
    ):
        config = LTCConfig(alpha=1.0, beta=1.0, **cfg)
        one, many = cls(config), cls(config)
        for item in events:
            one.insert(item)
        for chunk in chunked(events, boundaries):
            many.insert_many(chunk)
        same_state(one, many)

    @given(
        cfg=CONFIG_STRATEGY,
        events=st.lists(st.integers(0, 25), max_size=200),
        periods=st.integers(1, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_with_period_boundaries(self, cls, cfg, events, periods):
        """insert_many interleaved with end_period matches the reference."""
        config = LTCConfig(alpha=1.0, beta=1.0, **cfg)
        one, many = cls(config), cls(config)
        n = max(1, len(events) // periods)
        for start in range(0, len(events) or 1, n):
            block = events[start : start + n]
            for item in block:
                one.insert(item)
            one.end_period()
            many.insert_many(block)
            many.end_period()
        same_state(one, many)
        one.finalize()
        many.finalize()
        assert list(one.cells()) == list(many.cells())

    def test_mixed_insert_and_insert_many(self, cls):
        rng = random.Random(11)
        events = [rng.randrange(50) for _ in range(2_000)]
        config = LTCConfig(
            num_buckets=4, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=37,
        )
        one, mixed = cls(config), cls(config)
        for item in events:
            one.insert(item)
        i = 0
        while i < len(events):
            if rng.random() < 0.5:
                mixed.insert(events[i])
                i += 1
            else:
                j = min(len(events), i + rng.randrange(1, 40))
                mixed.insert_many(events[i:j])
                i = j
        same_state(one, mixed)

    def test_accepts_iterators(self, cls):
        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=5,
        )
        one, many = cls(config), cls(config)
        events = [1, 2, 1, 3, 1, 2, 4]
        for item in events:
            one.insert(item)
        many.insert_many(iter(events))
        same_state(one, many)

    def test_empty_batch_is_a_no_op(self, cls):
        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=5,
        )
        summary = cls(config)
        summary.insert_many([])
        assert len(summary) == 0
        assert summary._clock._acc == 0


@pytest.mark.parametrize("kernel", sorted(KERNELS))
class TestNumpyBatchInput:
    """Regression: every kernel raised OverflowError on an int64 ndarray
    (``np.int64 ^ seed`` overflows inside splitmix64)."""

    @staticmethod
    def _pair(kernel):
        config = LTCConfig(
            num_buckets=16, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=1000, kernel=kernel,
        )
        return build_ltc(config), build_ltc(config)

    @pytest.mark.parametrize("dtype", ["int64", "uint64", "int32"])
    def test_ndarray_matches_list(self, kernel, dtype):
        events = np.arange(5000, dtype=dtype) % 700
        from_array, from_list = self._pair(kernel)
        for start in range(0, len(events), 1000):
            from_array.insert_many(events[start : start + 1000])
            from_list.insert_many(events[start : start + 1000].tolist())
            from_array.end_period()
            from_list.end_period()
        assert list(from_array.cells()) == list(from_list.cells())
        assert all(type(key) is int for key in from_array._keys if key is not None)
        same_state(from_array, from_list)

    def test_negative_keys_and_counts_array(self, kernel):
        items = np.array([-5, 3, -5, 9, 2**40], dtype=np.int64)
        counts = np.array([2, 0, 1, 3, 1], dtype=np.int64)
        from_array, from_list = self._pair(kernel)
        from_array.insert_many(items, counts=counts)
        from_list.insert_many(items.tolist(), counts=counts.tolist())
        assert list(from_array.cells()) == list(from_list.cells())
        same_state(from_array, from_list)


class TestFastLTCIndexAfterBatch:
    def test_index_consistent_after_batched_churn(self):
        rng = random.Random(19)
        events = [rng.randrange(2_000) for _ in range(5_000)]
        config = LTCConfig(
            num_buckets=4, bucket_width=2, alpha=1.0, beta=1.0,
            items_per_period=500,
        )
        fast = FastLTC(config)
        fast.insert_many(events)
        for item, slot in fast._slot_of.items():
            assert fast._keys[slot] == item
        occupied = {j for j, key in enumerate(fast._keys) if key is not None}
        assert occupied == set(fast._slot_of.values())


# --------------------------------------------------------------- sketches

SKETCHES = [
    (CountMinSketch, "CM"),
    (CUSketch, "CU"),
    (CountSketch, "Count"),
]


@pytest.mark.parametrize(
    "sketch_cls", [cls for cls, _ in SKETCHES], ids=[n for _, n in SKETCHES]
)
class TestSketchUpdateMany:
    @given(
        keys=st.lists(st.integers(0, 60), max_size=300),
        width=st.integers(1, 40),
        rows=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_update_many_matches_sequential(self, sketch_cls, keys, width, rows):
        one = sketch_cls(width=width, rows=rows)
        many = sketch_cls(width=width, rows=rows)
        for key in keys:
            one.update(key)
        many.update_many(keys)
        assert one._tables == many._tables

    @given(
        keys=st.lists(st.integers(0, 30), max_size=150),
        delta=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_update_many_with_delta(self, sketch_cls, keys, delta):
        one = sketch_cls(width=16, rows=3)
        many = sketch_cls(width=16, rows=3)
        for key in keys:
            one.update(key, delta)
        many.update_many(keys, delta)
        assert one._tables == many._tables

    def test_large_and_negative_keys(self, sketch_cls):
        """Batch key canonicalisation matches the scalar paths' masking."""
        keys = [0, 2**63, 2**64 - 1, 2**70 + 3, -5]
        one = sketch_cls(width=16, rows=3)
        many = sketch_cls(width=16, rows=3)
        for key in keys:
            one.update(key & (2**64 - 1))
        many.update_many(keys)
        assert one._tables == many._tables

    def test_empty_batch(self, sketch_cls):
        sketch = sketch_cls(width=8, rows=2)
        sketch.update_many([])
        assert all(not any(t) for t in sketch._tables)

    def test_fallback_loop_without_numpy(self, sketch_cls, monkeypatch):
        module = __import__(
            sketch_cls.__module__, fromlist=["numpy_available"]
        )
        monkeypatch.setattr(module, "numpy_available", lambda: False)
        one = sketch_cls(width=16, rows=3)
        many = sketch_cls(width=16, rows=3)
        keys = [1, 2, 1, 3, 1, 2, 9, 9]
        for key in keys:
            one.update(key)
        many.update_many(keys)
        assert one._tables == many._tables


class TestCUSpecifics:
    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            CUSketch(width=8).update_many([1, 2], delta=-1)

    def test_zero_delta_is_noop(self):
        sketch = CUSketch(width=8)
        sketch.update_many([1, 2, 3], delta=0)
        assert all(not any(t) for t in sketch._tables)

    def test_order_sensitivity_is_preserved(self):
        """CU batches must replay stream order, not sorted-unique order:
        on a colliding workload the batched tables equal the sequential
        tables for *both* orderings of the same multiset."""
        forward = [7, 3, 7, 3, 7, 11, 3]
        backward = list(reversed(forward))
        for order in (forward, backward):
            one = CUSketch(width=2, rows=2)
            many = CUSketch(width=2, rows=2)
            for key in order:
                one.update(key)
            many.update_many(order)
            assert one._tables == many._tables


# ------------------------------------------------------------ stream driver


class TestBatchedRun:
    def ltc_config(self, stream, **overrides):
        cfg = dict(
            num_buckets=8,
            bucket_width=4,
            alpha=1.0,
            beta=1.0,
            items_per_period=stream.period_length,
        )
        cfg.update(overrides)
        return LTCConfig(**cfg)

    @pytest.mark.parametrize("cls", [LTC, FastLTC], ids=["LTC", "FastLTC"])
    def test_batched_run_identical(self, cls):
        stream = zipf_stream(
            num_events=4_000, num_distinct=500, skew=1.0, num_periods=8, seed=13
        )
        config = self.ltc_config(stream)
        one, many = cls(config), cls(config)
        stream.run(one)
        stream.run(many, batched=True)
        assert list(one.cells()) == list(many.cells())
        assert one.top_k(50) == many.top_k(50)

    def test_batched_run_uses_base_fallback(self):
        """Summaries without a specialised batch path still run batched
        via the StreamSummary default loop."""
        from repro.metrics.memory import MemoryBudget, kb
        from repro.sketches.topk import SketchTopK

        stream = zipf_stream(
            num_events=2_000, num_distinct=300, skew=1.0, num_periods=4, seed=9
        )
        one = SketchTopK.from_memory(CountMinSketch, MemoryBudget(kb(2)), k=20)
        many = SketchTopK.from_memory(CountMinSketch, MemoryBudget(kb(2)), k=20)
        stream.run(one)
        stream.run(many, batched=True)
        assert one.top_k(20) == many.top_k(20)
        assert one.sketch._tables == many.sketch._tables

    def test_time_binned_stream_batched(self):
        """Variable-size time bins feed insert_many per bin."""
        from repro.streams.io import TimeBinnedStream

        rng = random.Random(5)
        events = [rng.randrange(60) for _ in range(900)]
        boundaries = [100, 150, 600]
        stream = TimeBinnedStream(events=events, boundaries=boundaries)
        config = self.ltc_config(stream)
        one, many = LTC(config), LTC(config)
        stream.run(one)
        stream.run(many, batched=True)
        assert list(one.cells()) == list(many.cells())

    def test_merging_coordinator_batched_matches_per_event(self):
        from repro.distributed.coordinator import MergingCoordinator
        from repro.distributed.partition import partition_sharded

        stream = zipf_stream(
            num_events=3_000, num_distinct=400, skew=1.0, num_periods=6, seed=21
        )
        sites = partition_sharded(stream, num_sites=3)
        config = LTCConfig(
            num_buckets=16, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=1,
        )
        batched = MergingCoordinator(config).run(sites, k=30)
        per_event = MergingCoordinator(config, batched=False).run(sites, k=30)
        assert batched.top_k == per_event.top_k
        assert batched.communication_bytes == per_event.communication_bytes
