"""Every baseline's ``insert_many`` ≡ per-event ``insert``, state for state.

Every comparison summary has an ``insert_many``: a vectorised or folded
batch path, or a per-event loop behind a fold taken only while the
table has room (Space-Saving, Frequent).  Correctness bar: not just
equal reports, but *bit-identical internal state* after the batch — the
same evictions must happen on any future suffix.  Each test drives one
copy per event (:func:`repro.metrics.throughput.run_per_event`) and one
copy through whole-period ``insert_many`` batches
(``PeriodicStream.run``) and compares full internals: counter dicts in insertion order, linked-list
bucket order for Space-Saving, sketch tables, heap arrays + index, Bloom
filter bits, STBF cell arrays, sampler dicts, the keyed adapter's
reverse map and the windowed LTC's decayed frequencies.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.combined.two_structure import TwoStructureSignificant
from repro.core.keyed import KeyedSummary
from repro.core.windowed import WindowedLTC
from repro.distributed.sampling import CoordinatedSampler
from repro.membership.bloom import BloomFilter
from repro.membership.stbf import SpaceTimeBloomFilter
from repro.metrics.memory import MemoryBudget, kb
from repro.metrics.throughput import run_per_event
from repro.persistent.pie import PIE
from repro.persistent.sketch_persistent import SketchPersistent
from repro.persistent.small_space import SmallSpacePersistent
from repro.persistent.ss_persistent import SpaceSavingPersistent
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch
from repro.sketches.cu import CUSketch
from repro.sketches.topk import SketchTopK
from repro.streams.synthetic import zipf_stream
from repro.summaries.base import StreamSummary
from repro.summaries.frequent import Frequent
from repro.summaries.lossy_counting import LossyCounting
from repro.summaries.space_saving import SpaceSaving

# --------------------------------------------------------- state capture


def heap_state(heap):
    return (list(heap._items), list(heap._values), dict(heap._pos))


def bloom_state(bloom):
    return (bytes(bloom._bits), bloom._inserted)


def stbf_state(stbf):
    return (list(stbf._states), list(stbf._fps), list(stbf._symbols))


def state_of(summary):
    """Full internal state of any comparison summary, order included."""
    if isinstance(summary, SpaceSaving):
        table = summary._summary
        return (
            [(i, c, table.error_of(i)) for i, c in table.items()],
            table.check_invariant(),
        )
    if isinstance(summary, Frequent):
        return (list(summary._counters.items()), summary.decrements)
    if isinstance(summary, LossyCounting):
        return (
            list(summary._entries.items()),
            summary._seen,
            summary._bucket_id,
        )
    if isinstance(summary, SketchTopK):
        return (summary.sketch._tables, heap_state(summary.heap))
    if isinstance(summary, SpaceSavingPersistent):
        return (state_of(summary._ss), bloom_state(summary.bloom))
    if isinstance(summary, SketchPersistent):
        return (
            summary.sketch._tables,
            bloom_state(summary.bloom),
            heap_state(summary.heap),
        )
    if isinstance(summary, PIE):
        return (
            [stbf_state(f) for f in summary._filters],
            stbf_state(summary._current),
            list(summary._persistency.items()),
            sorted(summary._seen_this_period),
        )
    if isinstance(summary, SmallSpacePersistent):
        return (
            list(summary._freq.items()),
            list(summary._pers.items()),
            summary._threshold,
            sorted(summary._seen_this_period),
        )
    if isinstance(summary, CoordinatedSampler):
        return (
            list(summary._freq.items()),
            list(summary._presence.items()),
            summary._period,
        )
    if isinstance(summary, KeyedSummary):
        return (list(summary._original.items()), state_of(summary.inner))
    if isinstance(summary, WindowedLTC):
        return (summary._keys, summary._freqs, summary._rings)
    if isinstance(summary, TwoStructureSignificant):
        return (
            summary.freq_sketch._tables,
            summary.pers_sketch._tables,
            bloom_state(summary.bloom),
            heap_state(summary.heap),
        )
    raise TypeError(f"no state dispatch for {type(summary).__name__}")


BUDGET = MemoryBudget(kb(4))


def lineup(period_length):
    """One factory per batch-path family, sized small enough to churn."""
    return {
        "SS": lambda: SpaceSaving.from_memory(BUDGET),
        "Freq": lambda: Frequent.from_memory(BUDGET),
        "LC": lambda: LossyCounting.from_memory(BUDGET),
        "CM-topk": lambda: SketchTopK.from_memory(CountMinSketch, BUDGET, 32),
        "CU-topk": lambda: SketchTopK.from_memory(CUSketch, BUDGET, 32),
        "Count-topk": lambda: SketchTopK.from_memory(CountSketch, BUDGET, 32),
        "SS+BF": lambda: SpaceSavingPersistent.from_memory(
            BUDGET, expected_per_period=period_length
        ),
        "CM+BF": lambda: SketchPersistent.from_memory(
            CountMinSketch, BUDGET, 32, expected_per_period=period_length
        ),
        "PIE": lambda: PIE.from_memory(BUDGET),
        "SmallSpace": lambda: SmallSpacePersistent(
            capacity=48, sample_rate=0.4
        ),
        # Full rate: the sampling threshold starts at 2**64.
        "SmallSpace-full": lambda: SmallSpacePersistent(
            capacity=48, sample_rate=1.0
        ),
        "CU+CU": lambda: TwoStructureSignificant.from_memory(
            CUSketch, BUDGET, 32, 1.0, 1.0
        ),
        "Sampler": lambda: CoordinatedSampler(sample_rate=0.3),
        "Keyed-SS": lambda: KeyedSummary(
            SpaceSaving.from_memory(BUDGET), reverse_capacity=64
        ),
        # window=3 decays frequencies by 2/3 at every boundary, so hits
        # after the first period add 1.0 to non-integer floats.
        "Windowed": lambda: WindowedLTC.from_memory(BUDGET, window=3),
    }


FAMILY_IDS = sorted(lineup(1))


# ------------------------------------------------- stream-level identity


class TestBatchedRunIdentity:
    """Whole-period batches across the skew × period-count grid."""

    @pytest.mark.parametrize("name", FAMILY_IDS)
    @pytest.mark.parametrize("num_periods", [3, 7])
    @pytest.mark.parametrize("skew", [0.5, 1.0, 1.5])
    def test_state_identical_across_grid(self, name, skew, num_periods):
        stream = zipf_stream(
            num_events=3_000,
            num_distinct=400,
            skew=skew,
            num_periods=num_periods,
            seed=int(skew * 10) + num_periods,
        )
        factory = lineup(stream.period_length)[name]
        one, many = factory(), factory()
        run_per_event(stream, one)
        stream.run(many)
        assert state_of(one) == state_of(many)
        assert one.reported_pairs(32) == many.reported_pairs(32)

    @pytest.mark.parametrize("name", FAMILY_IDS)
    def test_state_identical_mid_period(self, name):
        """Batches that straddle no boundary (chunked finer than periods)."""
        stream = zipf_stream(
            num_events=2_000, num_distinct=300, skew=1.0, num_periods=4, seed=3
        )
        factory = lineup(stream.period_length)[name]
        one, many = factory(), factory()
        rng = random.Random(17)
        for period in stream.iter_periods():
            for item in period:
                one.insert(item)
            i = 0
            while i < len(period):
                j = min(len(period), i + rng.randrange(1, 200))
                many.insert_many(period[i:j])
                i = j
            for summary in (one, many):
                end = getattr(summary, "end_period", None)
                if end is not None:
                    end()
        assert state_of(one) == state_of(many)


# ----------------------------------------------- property-based chunking

COUNTERS = [
    ("SS", lambda: SpaceSaving(capacity=8)),
    ("Freq", lambda: Frequent(capacity=8)),
    ("LC", lambda: LossyCounting(capacity=8, epsilon=1.0 / 7)),
    ("SmallSpace", lambda: SmallSpacePersistent(capacity=6, sample_rate=0.8)),
]


@pytest.mark.parametrize(
    "factory", [f for _, f in COUNTERS], ids=[n for n, _ in COUNTERS]
)
class TestArbitraryChunking:
    @given(
        events=st.lists(st.integers(0, 30), max_size=250),
        boundaries=st.lists(st.integers(0, 250), max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    # The second batch fills the 8 counters mid-batch, then misses.
    @example(
        events=[0, 1, 2, 0, 3, 4, 5, 6, 7, 0, 8, 9, 1, 10, 0, 8],
        boundaries=[3],
    )
    # Frequent overflows at 8 mid-batch and purges every counter; the
    # next batch finds free counters after a decrement round.
    @example(
        events=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 1, 3],
        boundaries=[10],
    )
    def test_any_chunking_matches_per_event(self, factory, events, boundaries):
        one, many = factory(), factory()
        for item in events:
            one.insert(item)
        prev = 0
        for b in sorted(set(boundaries)):
            if 0 < b < len(events):
                many.insert_many(events[prev:b])
                prev = b
        many.insert_many(events[prev:])
        assert state_of(one) == state_of(many)

    def test_accepts_iterators_and_empty(self, factory):
        one, many = factory(), factory()
        events = [1, 2, 1, 3, 1, 2, 4, 1, 1, 5]
        for item in events:
            one.insert(item)
        many.insert_many([])
        many.insert_many(iter(events))
        assert state_of(one) == state_of(many)


# ------------------------------------------------------ runs of repeats


class TestCounts:
    @pytest.mark.parametrize("name", FAMILY_IDS)
    def test_counts_equal_repeated_inserts(self, name):
        """A batch of runs — ``counts[i]`` consecutive arrivals of
        ``items[i]``, the shape the fold paths collapse — matches the
        same arrivals inserted one at a time."""
        rng = random.Random(29)
        items = [rng.randrange(40) for _ in range(120)]
        counts = [rng.randrange(0, 4) for _ in items]
        runs = [item for item, count in zip(items, counts) for _ in range(count)]
        factory = lineup(64)[name]
        one, many = factory(), factory()
        for item in runs:
            one.insert(item)
        many.insert_many(runs)
        assert state_of(one) == state_of(many)

    def test_default_base_implementation_inserts_in_order(self):
        class Recorder(StreamSummary):
            def __init__(self):
                self.seen = []

            def insert(self, item):
                self.seen.append(item)

            def query(self, item):
                return 0.0

            def top_k(self, k):
                return []

        rec = Recorder()
        rec.insert_many([3, 3, 9])
        rec.insert_many(iter([4]))
        assert rec.seen == [3, 3, 9, 4]


# -------------------------------------------------------- membership unit


class TestMembershipBatches:
    def test_bloom_insert_if_absent_many_matches_sequential(self):
        rng = random.Random(4)
        keys = [rng.randrange(60) for _ in range(400)]
        one = BloomFilter(num_bits=256, num_hashes=3, seed=9)
        many = BloomFilter(num_bits=256, num_hashes=3, seed=9)
        expected = [one.insert_if_absent(k) for k in keys]
        assert many.insert_if_absent_many(keys) == expected
        assert bloom_state(one) == bloom_state(many)

    def test_bloom_clear_resets_bits(self):
        bloom = BloomFilter(num_bits=128, num_hashes=2, seed=1)
        bloom.insert_if_absent_many(list(range(50)))
        bloom.clear()
        assert not any(bloom._bits)
        assert len(bloom._bits) == 128 // 8

    def test_bloom_empty_batch(self):
        bloom = BloomFilter(num_bits=64, num_hashes=2, seed=1)
        assert bloom.insert_if_absent_many([]) == []

    @staticmethod
    def make_stbf(num_cells, num_hashes, seed):
        from repro.codes.raptor import RaptorCode

        return SpaceTimeBloomFilter(
            num_cells=num_cells,
            code=RaptorCode(seed=7),
            num_hashes=num_hashes,
            seed=seed,
        )

    def test_stbf_insert_many_matches_sequential(self):
        rng = random.Random(12)
        items = [rng.randrange(80) for _ in range(500)]
        one = self.make_stbf(64, 3, 5)
        many = self.make_stbf(64, 3, 5)
        for item in items:
            one.insert(item)
        many.insert_many(items)
        assert stbf_state(one) == stbf_state(many)

    def test_stbf_first_occurrence_order_preserved(self):
        """Collided cells keep the *first* writer's fp/symbol residue, so
        batch dedup must keep first-occurrence order, not sorted order."""
        items = [9, 2, 9, 2, 5, 9, 5, 1]
        one = self.make_stbf(4, 2, 3)
        many = self.make_stbf(4, 2, 3)
        for item in items:
            one.insert(item)
        many.insert_many(items)
        assert stbf_state(one) == stbf_state(many)


# ------------------------------------------------------ runner + CLI mode


class TestRunnerBatchedMode:
    def make(self):
        from repro.experiments.configs import (
            default_algorithms_frequent,
            default_algorithms_persistent,
            default_algorithms_significant,
        )

        stream = zipf_stream(
            num_events=3_000, num_distinct=400, skew=1.0, num_periods=5, seed=6
        )
        factories = {}
        factories.update(default_algorithms_frequent(BUDGET, stream, 20))
        for maker in (default_algorithms_persistent,):
            for name, f in maker(BUDGET, stream, 20).items():
                factories[f"p:{name}"] = f
        for name, f in default_algorithms_significant(
            BUDGET, stream, 20, 1.0, 1.0
        ).items():
            factories[f"s:{name}"] = f
        return stream, factories

    @staticmethod
    def per_event_results(stream, factories, truth):
        """``run_and_evaluate``'s results with every summary replayed one
        ``insert`` at a time."""
        from repro.experiments.runner import evaluate

        results = []
        for name, factory in factories.items():
            summary = factory()
            run_per_event(stream, summary)
            results.append(evaluate(summary, truth, 20, 1.0, 1.0, name=name))
        return results

    def test_run_and_evaluate_batched_identical(self):
        from repro.experiments.runner import run_and_evaluate
        from repro.streams.ground_truth import GroundTruth

        stream, factories = self.make()
        truth = GroundTruth(stream)
        batched = run_and_evaluate(factories, stream, 20, 1.0, 1.0, truth=truth)
        assert batched == self.per_event_results(stream, factories, truth)

    def test_metered_batched_identical(self):
        """The obs-enabled runner path feeds insert_many too."""
        from repro import obs
        from repro.experiments.runner import run_and_evaluate
        from repro.streams.ground_truth import GroundTruth

        stream, factories = self.make()
        truth = GroundTruth(stream)
        try:
            obs.enable()
            plain = self.per_event_results(stream, factories, truth)
            obs.enable()
            batched = run_and_evaluate(
                factories, stream, 20, 1.0, 1.0, truth=truth
            )
        finally:
            obs.disable()
        assert batched == plain

    def test_measure_throughput_batched_mode_label(self):
        from repro.metrics.throughput import measure_throughput

        stream = zipf_stream(
            num_events=500, num_distinct=100, skew=1.0, num_periods=2, seed=2
        )
        result = measure_throughput(
            lambda: SpaceSaving.from_memory(BUDGET),
            stream,
            name="SS",
            batched=True,
        )
        assert result.mode == "batched"
        assert result.events == len(stream)
