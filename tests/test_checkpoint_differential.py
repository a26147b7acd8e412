"""Checkpoint/restore mid-stream ≡ an uninterrupted run.

The serializer's contract ("restoring reproduces the structure exactly")
is exercised differentially: a stream is split at a random point, the
prefix-built structure is checkpointed and restored (once, or again
from the restored copy), the suffix is replayed on the restored copy, and the result
must be bit-identical to a run that never checkpointed — including the
timed-mode state (``_clock._tacc``, ``_last_timestamp``) that the v1
format silently dropped.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarLTC
from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.core.serialize import from_bytes, to_bytes


def restore(ltc: LTC, cls: type) -> LTC:
    return from_bytes(to_bytes(ltc), cls=cls)


ROUNDTRIPS = [
    pytest.param(restore, id="bytes"),
    pytest.param(lambda l, cls: restore(restore(l, cls), cls), id="bytes-twice"),
]


def identical(a: LTC, b: LTC) -> None:
    assert list(a.cells()) == list(b.cells())
    assert a._clock.hand == b._clock.hand
    assert a._clock._acc == b._clock._acc
    assert a._clock._tacc == b._clock._tacc
    assert a._clock.scanned_in_period == b._clock.scanned_in_period
    assert a._parity == b._parity
    assert a._last_timestamp == b._last_timestamp


class TestTimedModeSplit:
    """The acceptance-criterion scenario: an ``insert_timed`` stream split
    by checkpoint/restore equals the uninterrupted run."""

    @given(
        arrivals=st.lists(
            st.tuples(st.integers(0, 20), st.floats(0.0, 3.0)),
            min_size=1,
            max_size=120,
        ),
        split=st.integers(0, 120),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_timed_run_is_bit_identical(self, arrivals, split, data):
        # Timestamps must be non-decreasing: accumulate the positive gaps.
        timed = []
        now = 0.0
        for item, gap in arrivals:
            now += gap
            timed.append((item, now))
        split = min(split, len(timed))
        roundtrip = data.draw(st.sampled_from([p.values[0] for p in ROUNDTRIPS]))

        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=1,
        )
        straight = LTC(config)
        for item, ts in timed:
            straight.insert_timed(item, ts, period_seconds=0.75)

        prefix = LTC(config)
        for item, ts in timed[:split]:
            prefix.insert_timed(item, ts, period_seconds=0.75)
        resumed = roundtrip(prefix, LTC)
        identical(prefix, resumed)
        for item, ts in timed[split:]:
            resumed.insert_timed(item, ts, period_seconds=0.75)

        identical(straight, resumed)

    @pytest.mark.parametrize("roundtrip", ROUNDTRIPS)
    @pytest.mark.parametrize(
        "cls", [LTC, ColumnarLTC], ids=["LTC", "columnar"]
    )
    def test_split_with_period_boundaries(self, roundtrip, cls):
        """Timed arrivals interleaved with explicit end_period calls; the
        uninterrupted run is the reference LTC."""
        rng = random.Random(31)
        now = 0.0
        timed = []
        for _ in range(300):
            now += rng.random() * 0.2
            timed.append((rng.randrange(25), now))

        def drive(ltc, arrivals):
            next_boundary = 1.0
            for item, ts in arrivals:
                while ts >= next_boundary:
                    ltc.end_period()
                    next_boundary += 1.0
                ltc.insert_timed(item, ts, period_seconds=1.0)

        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=2.0,
            items_per_period=1,
        )
        straight = LTC(config)
        drive(straight, timed)

        split = 157
        prefix = cls(config)
        drive(prefix, timed[:split])
        resumed = roundtrip(prefix, cls)
        # Replay the suffix, resuming the boundary scan where it left off.
        next_boundary = (
            int(timed[split - 1][1]) + 1.0 if split else 1.0
        )
        for item, ts in timed[split:]:
            while ts >= next_boundary:
                resumed.end_period()
                next_boundary += 1.0
            resumed.insert_timed(item, ts, period_seconds=1.0)
        # And on the straight copy nothing more; compare final states.
        drive_boundary = int(timed[-1][1]) + 1.0  # same pending boundary
        assert drive_boundary == next_boundary
        identical(straight, resumed)


class TestCountBasedSplit:
    """Count-based streams split by checkpoint, driven via insert_many."""

    @given(
        events=st.lists(st.integers(0, 30), max_size=300),
        split=st.integers(0, 300),
        n=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_batched_run_is_bit_identical(self, events, split, n):
        split = min(split, len(events))
        config = LTCConfig(
            num_buckets=3, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=n,
        )
        straight = LTC(config)
        straight.insert_many(events)

        prefix = LTC(config)
        prefix.insert_many(events[:split])
        resumed = from_bytes(to_bytes(prefix))
        resumed.insert_many(events[split:])

        identical(straight, resumed)

    def test_columnar_split_continues_on_vector_path(self):
        """A restored ColumnarLTC keeps batching through the compiled
        loop over its restored key column, equal to an uninterrupted
        reference run, and finds every key where the reference does."""
        rng = random.Random(8)
        events = [rng.randrange(200) for _ in range(4_000)]
        config = LTCConfig(
            num_buckets=8, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=400,
        )
        straight = LTC(config)
        straight.insert_many(events)

        prefix = ColumnarLTC(config)
        prefix.insert_many(events[:1_700])
        resumed = from_bytes(to_bytes(prefix), cls=ColumnarLTC)
        resumed.insert_many(events[1_700:])

        identical(straight, resumed)
        assert sorted(resumed.items()) == sorted(straight.items())
        for item in set(events):
            assert (item in resumed) == (item in straight)
            assert resumed.estimate(item) == straight.estimate(item)
