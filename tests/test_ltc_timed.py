"""Time-driven CLOCK advancement (paper §III-B, varying arrival speed)."""

from __future__ import annotations

import pytest

from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from tests.conftest import make_stream


def timed_ltc(**overrides) -> LTC:
    cfg = dict(
        num_buckets=2,
        bucket_width=4,
        alpha=0.0,
        beta=1.0,
        items_per_period=1,  # unused in timed mode
        replacement_policy="one",
    )
    cfg.update(overrides)
    return LTC(LTCConfig(**cfg))


class TestTimedInsertion:
    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            timed_ltc().insert_timed(1, timestamp=0.0, period_seconds=0.0)

    def test_rejects_time_regression(self):
        ltc = timed_ltc()
        ltc.insert_timed(1, timestamp=5.0, period_seconds=10.0)
        with pytest.raises(ValueError):
            ltc.insert_timed(1, timestamp=4.0, period_seconds=10.0)

    def test_uniform_arrivals_match_count_based(self):
        """Evenly spaced timed arrivals must produce the same persistency
        as the count-based drive of the same stream."""
        events = [1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7]
        period_seconds = 10.0
        items_per_period = 4

        counted = timed_ltc(items_per_period=items_per_period)
        stream = make_stream(events, num_periods=3)
        stream.run(counted)

        timed = timed_ltc()
        for i, item in enumerate(events):
            timed.insert_timed(
                item,
                timestamp=i * period_seconds / items_per_period,
                period_seconds=period_seconds,
            )
            if (i + 1) % items_per_period == 0:
                timed.end_period()
        timed.finalize()

        for item in set(events):
            assert timed.estimate(item) == counted.estimate(item)

    def test_bursty_arrivals_still_one_sweep_per_period(self):
        """Irregular timestamps must not break the ≤1-per-period increment."""
        ltc = timed_ltc()
        period_seconds = 1.0
        t = 0.0
        for period in range(4):
            # A burst of arrivals at the start of the period, then silence.
            for _ in range(10):
                t += 0.001
                ltc.insert_timed(7, timestamp=t, period_seconds=period_seconds)
            t = (period + 1) * period_seconds
            ltc.end_period()
        ltc.finalize()
        f, p = ltc.estimate(7)
        assert f == 40
        assert p == 4

    def test_adversarial_split_still_scans_every_cell(self):
        """Regression: a period chopped into 977 equal Δt slices must
        still sweep all ``m`` cells by the boundary.

        The retired float accumulator summed ``Δt/t · m`` per arrival, so
        this exact sequence accumulated enough rounding error to scan
        only ``m − 1`` slots — one cell's persistency silently stalled
        every period.  Tick quantisation of absolute timestamps
        telescopes, making the sweep exact for any split.
        """
        ltc = timed_ltc(num_buckets=8, bucket_width=8)  # m = 64
        splits = 977
        ltc.insert_timed(7, timestamp=0.0, period_seconds=1.0)  # anchor
        for i in range(1, splits + 1):
            ltc.insert_timed(7, timestamp=i / splits, period_seconds=1.0)
        assert ltc._clock.scanned_in_period == ltc.total_cells
        assert ltc._clock._tacc == 0

    def test_clock_state_depends_only_on_latest_timestamp(self):
        """Extra arrivals inside an interval cannot move the sweep: two
        structures seeing the same final timestamp hold identical CLOCK
        state however the interval was subdivided."""
        coarse = timed_ltc(num_buckets=8, bucket_width=8)
        fine = timed_ltc(num_buckets=8, bucket_width=8)
        coarse.insert_timed(1, timestamp=0.0, period_seconds=1.0)
        fine.insert_timed(1, timestamp=0.0, period_seconds=1.0)
        coarse.insert_timed(1, timestamp=0.7, period_seconds=1.0)
        for i in range(1, 211):
            fine.insert_timed(1, timestamp=0.7 * i / 210, period_seconds=1.0)
        for attr in ("hand", "_tacc", "scanned_in_period"):
            assert getattr(fine._clock, attr) == getattr(coarse._clock, attr)

    def test_checkpoint_mid_interval_is_byte_identical(self):
        """Checkpointing between two timed arrivals and resuming produces
        a byte-identical structure to the uninterrupted run."""
        from repro.core.serialize import from_bytes, to_bytes

        schedule = [(1, 0.13), (2, 0.41), (1, 0.98), (3, 1.77), (2, 2.09)]
        straight = timed_ltc()
        for item, ts in schedule:
            straight.insert_timed(item, timestamp=ts, period_seconds=0.9)

        resumed = timed_ltc()
        for item, ts in schedule[:2]:
            resumed.insert_timed(item, timestamp=ts, period_seconds=0.9)
        resumed = from_bytes(to_bytes(resumed))
        for item, ts in schedule[2:]:
            resumed.insert_timed(item, timestamp=ts, period_seconds=0.9)
        assert to_bytes(resumed) == to_bytes(straight)

    def test_persistency_exact_for_timed_gap_pattern(self):
        """An item present only in periods 0 and 2 (timed drive)."""
        ltc = timed_ltc()
        schedule = [(0.5, 1), (1.5, 2), (2.5, 1)]  # (time, item)
        boundary = 1.0
        next_boundary = boundary
        for t, item in schedule:
            while t >= next_boundary:
                ltc.end_period()
                next_boundary += boundary
            ltc.insert_timed(item, timestamp=t, period_seconds=boundary)
        ltc.end_period()
        ltc.finalize()
        assert ltc.estimate(1)[1] == 2
        assert ltc.estimate(2)[1] == 1
