"""Every code block in docs/TUTORIAL.md must behave exactly as printed."""

from __future__ import annotations

from repro import LTC, LTCConfig


class TestSection1DecrementMechanism:
    def make(self) -> LTC:
        return LTC(
            LTCConfig(
                num_buckets=1,
                bucket_width=2,
                alpha=1.0,
                beta=0.0,
                replacement_policy="one",
                items_per_period=1000,
            )
        )

    def test_fill_state(self):
        ltc = self.make()
        for _ in range(3):
            ltc.insert(1)
        ltc.insert(2)
        ltc.insert(2)
        assert [(c.key, c.frequency) for c in ltc.cells()] == [(1, 3), (2, 2)]

    def test_newcomer_dropped_then_admitted(self):
        ltc = self.make()
        for _ in range(3):
            ltc.insert(1)
        ltc.insert(2)
        ltc.insert(2)
        ltc.insert(3)
        assert ltc.estimate(2) == (1, 0)
        assert ltc.estimate(3) == (0, 0)
        ltc.insert(3)
        assert ltc.estimate(2) == (0, 0)
        assert ltc.estimate(3) == (1, 0)


class TestSection2LongTailReplacement:
    def test_restored_initial_value(self):
        ltc = LTC(
            LTCConfig(
                num_buckets=1,
                bucket_width=3,
                alpha=1.0,
                beta=0.0,
                items_per_period=1000,
            )
        )
        for item, count in [(1, 9), (2, 5), (3, 3)]:
            for _ in range(count):
                ltc.insert(item)
        for _ in range(3):
            ltc.insert(4)
        assert ltc.estimate(4) == (4, 0)


class TestSection3ClockPersistency:
    def test_at_most_one_per_period(self):
        ltc = LTC(
            LTCConfig(
                num_buckets=1,
                bucket_width=2,
                alpha=0.0,
                beta=1.0,
                items_per_period=2,
            )
        )
        for _ in range(3):
            ltc.insert(7)
            ltc.insert(7)
            ltc.end_period()
        ltc.finalize()
        assert ltc.estimate(7) == (6, 3)


class TestSection5Tooling:
    def test_longtail_check_and_plan(self):
        from repro.analysis import (
            is_long_tailed,
            recommend_memory,
            sample_frequencies,
        )
        from repro.streams import network_like

        stream = network_like(
            num_events=10_000, num_distinct=3_000, num_periods=10
        )
        report = is_long_tailed(sample_frequencies(stream.events))
        assert report.long_tailed
        plan = recommend_memory(
            num_distinct=3_000,
            stream_length=10_000,
            skew=report.fit.skew,
            k=100,
            target_rate=0.9,
        )
        assert plan.guaranteed_rate >= 0.9
