"""Failure injection: malformed inputs must fail loudly, not corrupt."""

from __future__ import annotations

import io
import math

import pytest

from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.streams.io import load_items, load_timestamped
from repro.streams.model import PeriodicStream


class TestConfigPoisoning:
    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError):
            LTCConfig(num_buckets=1, alpha=math.nan, items_per_period=1)

    def test_nan_beta_rejected(self):
        with pytest.raises(ValueError):
            LTCConfig(num_buckets=1, beta=math.nan, items_per_period=1)

    def test_infinite_weights_rejected(self):
        with pytest.raises(ValueError):
            LTCConfig(num_buckets=1, alpha=math.inf, items_per_period=1)


class TestMalformedTraces:
    def test_garbage_timestamp_raises(self):
        with pytest.raises(ValueError):
            load_timestamped(io.StringIO("1 not-a-time\n"), num_periods=1)

    def test_missing_column_raises(self):
        with pytest.raises(IndexError):
            load_timestamped(io.StringIO("loner\n"), num_periods=1)

    def test_items_trace_tolerates_whitespace_noise(self):
        stream = load_items(io.StringIO("  1  \n\t2\n"), num_periods=1)
        assert stream.events == [1, 2]

    def test_binary_garbage_string_ids_still_hash(self):
        # Weird unicode ids canonicalise instead of crashing.
        stream = load_items(io.StringIO("ȩ̷̛͠\nздравствуйте\n"), num_periods=1)
        assert len(stream.events) == 2


class TestTimedDriveAbuse:
    def make(self):
        return LTC(
            LTCConfig(num_buckets=1, bucket_width=2, items_per_period=1)
        )

    def test_negative_period_seconds(self):
        with pytest.raises(ValueError):
            self.make().insert_timed(1, timestamp=0.0, period_seconds=-1.0)

    def test_backwards_time(self):
        ltc = self.make()
        ltc.insert_timed(1, timestamp=10.0, period_seconds=5.0)
        with pytest.raises(ValueError):
            ltc.insert_timed(1, timestamp=9.0, period_seconds=5.0)

    def test_state_survives_rejected_call(self):
        """A rejected insert must not half-apply: the item placement
        happens before validation errors can fire, so validate first."""
        ltc = self.make()
        ltc.insert_timed(1, timestamp=1.0, period_seconds=5.0)
        before = list(ltc.cells())
        with pytest.raises(ValueError):
            ltc.insert_timed(2, timestamp=0.5, period_seconds=5.0)
        # The failed arrival must not have been recorded.
        assert list(ltc.cells()) == before


class TestStreamModelAbuse:
    def test_negative_period_count(self):
        with pytest.raises(ValueError):
            PeriodicStream(events=[1], num_periods=-1)

    def test_run_propagates_summary_errors(self):
        class Exploding:
            def insert_many(self, items):
                raise RuntimeError("boom")

        stream = PeriodicStream(events=[1, 2], num_periods=1)
        with pytest.raises(RuntimeError, match="boom"):
            stream.run(Exploding())
