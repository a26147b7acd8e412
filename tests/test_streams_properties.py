"""Property-based tests of the periodic stream model."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarLTC
from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.core.serialize import to_bytes
from repro.streams.ground_truth import GroundTruth
from repro.streams.io import TimeBinnedStream
from repro.streams.model import PeriodicStream

streams = st.builds(
    lambda events, periods: PeriodicStream(
        events=events, num_periods=min(periods, len(events))
    ),
    st.lists(st.integers(0, 100), min_size=1, max_size=300),
    st.integers(1, 20),
)


class TestPartitionProperties:
    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_periods_partition_events(self, stream):
        flattened = [item for period in stream.iter_periods() for item in period]
        assert flattened == stream.events

    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_period_count(self, stream):
        assert len(list(stream.iter_periods())) == stream.num_periods

    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_period_of_matches_iteration(self, stream):
        index = 0
        for period_number, period in enumerate(stream.iter_periods()):
            for _ in period:
                assert stream.period_of(index) == period_number
                index += 1

    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_all_periods_nonempty(self, stream):
        assert all(len(period) >= 1 for period in stream.iter_periods())

    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_only_last_period_oversized(self, stream):
        sizes = [len(p) for p in stream.iter_periods()]
        n = stream.period_length
        assert all(size == n for size in sizes[:-1])
        assert sizes[-1] >= n

    @given(streams, st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_head_invariants(self, stream, cut):
        head = stream.head(cut)
        assert len(head) == min(cut, len(stream))
        assert 1 <= head.num_periods <= max(stream.num_periods, 1)
        assert head.events == stream.events[: len(head)]

    @given(streams)
    @settings(max_examples=60, deadline=None)
    def test_stats_consistency(self, stream):
        stats = stream.stats
        assert stats.num_events == len(stream)
        assert stats.num_distinct == len(set(stream.events))
        assert stats.num_periods == stream.num_periods


def _oracle_periods(timestamps, num_periods):
    """Bin each timestamp against the edges ``t0 + span*p/T``, p = 1..T-1."""
    t0, t1 = timestamps[0], timestamps[-1]
    span = max(t1 - t0, 1e-12)
    edges = t0 + span * np.arange(1, num_periods) / num_periods
    return [int(p) for p in np.digitize(timestamps, edges)]


_items = st.integers(0, 5)
_records = st.one_of(
    # Few distinct times: many equal timestamps, runs of empty bins.
    st.lists(st.tuples(st.integers(0, 6), _items), min_size=1, max_size=40),
    st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            _items,
        ),
        min_size=1,
        max_size=40,
    ),
).map(lambda records: sorted(records, key=lambda record: record[0]))


class TestTimeBinnedOracle:
    """``TimeBinnedStream.from_records`` against an ``np.digitize`` oracle."""

    @given(_records, st.integers(1, 60))  # T often exceeds the event count
    @example([(5, 1), (5, 2), (5, 1)], 4)  # all timestamps equal
    @example([(0.0, 1), (0.1, 2), (10.0, 1)], 8)  # empty middle bins
    @example([(1e6, 3)], 3)  # one event, more periods than events
    @settings(max_examples=300, deadline=None)
    def test_events_land_in_the_oracle_bin(self, records, num_periods):
        stream = TimeBinnedStream.from_records(records, num_periods=num_periods)
        expected = _oracle_periods([t for t, _ in records], num_periods)

        assert stream.num_periods == num_periods
        assert [stream.period_of(i) for i in range(len(records))] == expected
        slices = stream.period_slices()
        assert len(slices) == num_periods
        from_slices = [p for p, (s, e) in enumerate(slices) for _ in range(s, e)]
        assert from_slices == expected

        truth = GroundTruth(stream)
        oracle_bins = {}
        for (_, item), period in zip(records, expected):
            oracle_bins.setdefault(item, set()).add(period)
        for item, bins in oracle_bins.items():
            assert truth.persistency(item) == len(bins)


class TestTimedClockOracle:
    """The timed CLOCK (``insert_timed``) against the same oracle.

    Both kernels take the records with ``insert_timed`` at ``span / T``
    seconds per period and one ``end_period`` per oracle bin edge the
    stream crosses.  The table has a cell in every bucket for each of
    the six items, so nothing is ever evicted, and with the Deviation
    Eliminator each item's persistency after ``finalize`` is the number
    of oracle bins it appears in.  The kernels' images agree after every
    arrival, CLOCK position included."""

    @given(_records, st.integers(1, 60))
    @example([(5, 1), (5, 2), (5, 1)], 4)  # all timestamps equal
    @example([(0.0, 1), (0.1, 2), (10.0, 1)], 8)  # empty middle bins
    @example([(-1e6, 0), (1e6, 0)], 60)  # one item at both ends
    @settings(max_examples=200, deadline=None)
    def test_persistency_is_the_oracle_bin_count(self, records, num_periods):
        timestamps = [t for t, _ in records]
        bins = _oracle_periods(timestamps, num_periods)
        period_seconds = max(timestamps[-1] - timestamps[0], 1e-12) / num_periods
        config = LTCConfig(
            num_buckets=4, bucket_width=8, items_per_period=16,
            deviation_eliminator=True,
        )
        ref, col = LTC(config), ColumnarLTC(config)
        current = 0
        for (timestamp, item), period in zip(records, bins):
            for ltc in (ref, col):
                for _ in range(period - current):
                    ltc.end_period()
                ltc.insert_timed(item, timestamp, period_seconds)
            current = period
            assert to_bytes(col) == to_bytes(ref)  # cells and CLOCK state
        ref.finalize()
        col.finalize()

        oracle_bins = {}
        for (_, item), period in zip(records, bins):
            oracle_bins.setdefault(item, set()).add(period)
        for item, seen in oracle_bins.items():
            assert ref.estimate(item)[1] == len(seen)
        assert list(col.cells()) == list(ref.cells())
        assert to_bytes(col) == to_bytes(ref)
