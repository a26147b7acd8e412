"""LTC edge cases: empty periods, resumed streams, odd drive patterns."""

from __future__ import annotations

import pytest

from repro.core.config import LTCConfig
from repro.core.ltc import LTC


def fresh(n=4, w=1, d=2, alpha=1.0, beta=1.0, **kw) -> LTC:
    return LTC(
        LTCConfig(
            num_buckets=w,
            bucket_width=d,
            alpha=alpha,
            beta=beta,
            items_per_period=n,
            **kw,
        )
    )


class TestEmptyPeriods:
    def test_end_period_without_arrivals(self):
        ltc = fresh()
        ltc.end_period()
        ltc.end_period()
        ltc.finalize()
        assert len(ltc) == 0

    def test_gap_periods_do_not_add_persistency(self):
        ltc = fresh(n=1)
        ltc.insert(5)
        ltc.end_period()
        for _ in range(5):  # five silent periods
            ltc.end_period()
        ltc.finalize()
        assert ltc.estimate(5) == (1, 1)

    def test_item_survives_silence_without_contention(self):
        ltc = fresh(n=1, d=4)
        ltc.insert(5)
        for _ in range(3):
            ltc.end_period()
        ltc.insert(5)
        ltc.end_period()
        ltc.finalize()
        assert ltc.estimate(5) == (2, 2)


class TestDriveRobustness:
    def test_finalize_then_more_inserts(self):
        """Querying mid-stream via finalize is destructive only for flags;
        the structure keeps accepting arrivals afterwards."""
        ltc = fresh(n=2)
        ltc.insert(1)
        ltc.insert(1)
        ltc.end_period()
        ltc.finalize()
        f1, p1 = ltc.estimate(1)
        assert (f1, p1) == (2, 1)
        ltc.insert(1)
        ltc.insert(1)
        ltc.end_period()
        ltc.finalize()
        f2, p2 = ltc.estimate(1)
        assert f2 == 4
        assert p2 == 2

    def test_double_finalize_stable(self):
        ltc = fresh(n=2)
        ltc.insert(1)
        ltc.end_period()
        ltc.finalize()
        state = list(ltc.cells())
        ltc.finalize()
        assert list(ltc.cells()) == state

    def test_single_item_stream(self):
        ltc = fresh(n=1)
        ltc.insert(42)
        ltc.end_period()
        ltc.finalize()
        assert ltc.estimate(42) == (1, 1)
        assert ltc.top_k(5)[0].item == 42

    def test_many_short_periods(self):
        ltc = fresh(n=1, w=2, d=4, alpha=0.0, beta=1.0)
        for period in range(50):
            ltc.insert(7)
            ltc.end_period()
        ltc.finalize()
        assert ltc.estimate(7)[1] == 50

    def test_zero_alpha_items_with_zero_persistency_evictable(self):
        """With α=0 a newly inserted item has significance 0 and is the
        natural first victim — it must be expelled cleanly."""
        ltc = fresh(n=100, d=1, alpha=0.0, beta=1.0)
        ltc.insert(1)  # sig = 0
        ltc.insert(2)  # decrement (already 0) → expel → insert 2
        assert ltc.estimate(1) == (0, 0)
        f, p = ltc.estimate(2)
        assert (f, p) == (1, 0)


class TestSignificanceWeights:
    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (3.0, 7.0), (0.1, 0.0)])
    def test_fractional_weights(self, alpha, beta):
        ltc = fresh(n=4, d=4, alpha=alpha, beta=beta)
        for item in (1, 1, 2, 3):
            ltc.insert(item)
        ltc.end_period()
        ltc.finalize()
        report = ltc.top_k(1)[0]
        assert report.item == 1
        f, p = ltc.estimate(1)
        assert report.significance == pytest.approx(alpha * f + beta * p)

    def test_beta_dominant_prefers_persistent(self):
        ltc = fresh(n=4, w=1, d=2, alpha=1.0, beta=100.0)
        # Period 0: 1 heavy; periods 1-3: 2 present each period.
        for item in (1, 1, 1, 2):
            ltc.insert(item)
        ltc.end_period()
        for _ in range(3):
            for item in (2, 2, 2, 2):
                ltc.insert(item)
            ltc.end_period()
        ltc.finalize()
        top = ltc.top_k(2)
        assert top[0].item == 2


class TestKeyDomain:
    """The reference LTC holds keys in ``[0, MAX_KEY]``: every entry point
    refuses any other key with ``ValueError`` before it writes anything
    (2**64 - 1 is the free-cell key)."""

    BAD = [-5, 2**64 - 1, 2**70]
    IDS = ["negative", "empty-key", "2**70"]

    @staticmethod
    def seeded() -> LTC:
        ltc = fresh(n=8, w=4, d=2)
        ltc.insert_many([1, 2, 1])
        return ltc

    @staticmethod
    def state(ltc: LTC) -> bytes:
        from repro.core.serialize import to_bytes

        return to_bytes(ltc)

    @pytest.mark.parametrize("key", BAD, ids=IDS)
    def test_insert(self, key):
        ltc = self.seeded()
        before = self.state(ltc)
        with pytest.raises(ValueError, match=f"key {key} is outside"):
            ltc.insert(key)
        assert self.state(ltc) == before

    @pytest.mark.parametrize("key", BAD, ids=IDS)
    def test_insert_many(self, key):
        ltc = self.seeded()
        before = self.state(ltc)
        with pytest.raises(ValueError, match=f"key {key} is outside"):
            ltc.insert_many([3, 4, key, 5])
        assert self.state(ltc) == before
        assert 3 not in ltc

    @pytest.mark.parametrize("key", BAD, ids=IDS)
    def test_insert_timed(self, key):
        ltc = fresh(n=8, w=4, d=2)
        ltc.insert_timed(1, 0.25, 1.0)
        before = self.state(ltc)
        with pytest.raises(ValueError, match=f"key {key} is outside"):
            ltc.insert_timed(key, 0.75, 1.0)
        assert self.state(ltc) == before
        assert ltc._last_timestamp == 0.25

    def test_free_cells_read_as_none(self):
        ltc = self.seeded()
        keys = [cv.key for cv in ltc.cells()]
        assert sorted(k for k in keys if k is not None) == [1, 2]
        assert keys.count(None) == ltc.total_cells - 2
        assert 2**64 - 1 not in ltc and ltc.estimate(2**64 - 1) == (0, 0)
        assert sorted(ltc.items()) == [1, 2]
