"""PeriodicStream: period structure and the summary driver."""

from __future__ import annotations

import pytest

from repro.streams.io import TimeBinnedStream
from repro.streams.model import PeriodicStream
from repro.streams.synthetic import zipf_stream
from tests.conftest import make_stream


@pytest.fixture(scope="module")
def logical_stream():
    return zipf_stream(
        num_events=8_000, num_distinct=1_500, skew=1.1, num_periods=8, seed=21
    )


class TestConstruction:
    def test_rejects_zero_periods(self):
        with pytest.raises(ValueError):
            PeriodicStream(events=[1, 2], num_periods=0)

    def test_rejects_more_periods_than_events(self):
        with pytest.raises(ValueError):
            PeriodicStream(events=[1, 2], num_periods=3)

    def test_len(self):
        assert len(make_stream([1, 2, 3])) == 3


class TestPeriodStructure:
    def test_period_length(self):
        stream = make_stream(range(10), num_periods=5)
        assert stream.period_length == 2

    def test_iter_periods_covers_everything(self):
        stream = make_stream(range(10), num_periods=3)
        flattened = [item for period in stream.iter_periods() for item in period]
        assert flattened == list(range(10))

    def test_last_period_absorbs_remainder(self):
        stream = make_stream(range(10), num_periods=3)
        periods = list(stream.iter_periods())
        assert [len(p) for p in periods] == [3, 3, 4]

    def test_period_of(self):
        stream = make_stream(range(10), num_periods=5)
        assert stream.period_of(0) == 0
        assert stream.period_of(1) == 0
        assert stream.period_of(2) == 1
        assert stream.period_of(9) == 4

    def test_period_of_remainder_clamped_to_last(self):
        stream = make_stream(range(10), num_periods=3)
        assert stream.period_of(9) == 2

    def test_stats(self):
        stream = make_stream([1, 1, 2, 3], num_periods=2, name="s")
        stats = stream.stats
        assert stats.num_events == 4
        assert stats.num_distinct == 3
        assert stats.num_periods == 2
        assert "s" in str(stats)


class _Recorder:
    """Records driver callbacks in order."""

    def __init__(self):
        self.log = []

    def insert_many(self, items):
        self.log.append(("insert_many", list(items)))

    def end_period(self):
        self.log.append(("end_period",))

    def finalize(self):
        self.log.append(("finalize",))


class TestRunDriver:
    def test_calls_in_order(self):
        stream = make_stream([1, 2, 3, 4], num_periods=2)
        recorder = _Recorder()
        stream.run(recorder)
        assert recorder.log == [
            ("insert_many", [1, 2]),
            ("end_period",),
            ("insert_many", [3, 4]),
            ("end_period",),
            ("finalize",),
        ]

    def test_summary_without_hooks(self):
        class Bare:
            def __init__(self):
                self.count = 0

            def insert_many(self, items):
                self.count += len(items)

        stream = make_stream(range(6), num_periods=2)
        bare = Bare()
        stream.run(bare)
        assert bare.count == 6


class TestHead:
    def test_head_truncates(self):
        stream = make_stream(range(100), num_periods=10)
        head = stream.head(30)
        assert len(head) == 30
        assert head.num_periods == 3

    def test_head_keeps_at_least_one_period(self):
        stream = make_stream(range(100), num_periods=10)
        assert stream.head(5).num_periods == 1

    def test_head_longer_than_stream(self):
        stream = make_stream(range(10), num_periods=2)
        assert len(stream.head(50)) == 10


class TestPeriodSlicing:
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
