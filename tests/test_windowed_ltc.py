"""WindowedLTC: sliding-window significance (extension)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.windowed import WindowedLTC
from repro.metrics.memory import MemoryBudget, kb
from repro.metrics.throughput import run_per_event
from tests.conftest import make_stream


def fresh(window=4, w=2, d=4, alpha=0.0, beta=1.0, decay=None) -> WindowedLTC:
    return WindowedLTC(
        num_buckets=w,
        window=window,
        bucket_width=d,
        alpha=alpha,
        beta=beta,
        decay=decay,
    )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_buckets=0, window=4),
            dict(num_buckets=1, window=0),
            dict(num_buckets=1, window=33),
            dict(num_buckets=1, window=4, alpha=0.0, beta=0.0),
            dict(num_buckets=1, window=4, decay=1.5),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            WindowedLTC(**kwargs)

    def test_from_memory(self):
        wltc = WindowedLTC.from_memory(MemoryBudget(kb(12)), window=8)
        assert len(wltc._keys) == (1024 // 8) * 8


class TestWindowSemantics:
    def test_persistency_counts_window_periods(self):
        wltc = fresh(window=4)
        for _ in range(3):  # present in 3 consecutive periods
            wltc.insert(9)
            wltc.end_period()
        _, p = wltc.estimate(9)
        assert p == 3

    def test_old_periods_fall_out(self):
        wltc = fresh(window=2, decay=1.0)
        wltc.insert(9)
        wltc.end_period()  # period 0 recorded
        for _ in range(3):  # absent for 3 periods
            wltc.insert(1)  # keep another cell alive
            wltc.end_period()
        _, p = wltc.estimate(9)
        assert p == 0

    def test_full_window_saturates(self):
        """The ring covers the current period plus W−1 completed ones, so
        the saturated count is W right after an insert and W−1 right
        after a boundary (the fresh current period is still empty)."""
        wltc = fresh(window=3)
        for _ in range(10):
            wltc.insert(9)
            wltc.end_period()
        _, p = wltc.estimate(9)
        assert p == 2
        wltc.insert(9)
        _, p = wltc.estimate(9)
        assert p == 3

    def test_silent_item_eventually_dropped(self):
        """Frequency-weighted mode: the dead-cell sweep reclaims cells
        whose ring aged out and whose frequency decayed to noise."""
        wltc = fresh(window=2, alpha=1.0, beta=1.0, decay=0.5)
        wltc.insert(9)
        for _ in range(8):
            wltc.end_period()
        assert wltc.estimate(9) == (0.0, 0)
        assert len(wltc) == 0

    def test_persistency_only_keeps_aged_cell(self):
        """Regression: with ``alpha == 0`` the sweep must not evict on
        the frequency test — a cell whose ring just aged to 0 stays
        tracked (at significance 0) instead of losing its history."""
        wltc = fresh(window=2, alpha=0.0, beta=1.0, decay=0.5)
        wltc.insert(9)
        for _ in range(8):
            wltc.end_period()
        assert len(wltc) == 1
        freq, persistency = wltc.estimate(9)
        assert persistency == 0
        assert freq > 0.0  # decayed history survives the sweep
        # Reappearing rebuilds windowed persistency in place (a hit, not
        # a fresh claim: the decayed frequency keeps accumulating).
        wltc.insert(9)
        freq_after, persistency_after = wltc.estimate(9)
        assert persistency_after == 1
        assert freq_after == pytest.approx(freq + 1.0)

    def test_persistency_only_aged_cell_is_first_victim(self):
        """The kept zero-significance cell does not clog its bucket: a
        bucket-full miss replaces it immediately."""
        wltc = WindowedLTC(
            num_buckets=1, window=2, bucket_width=2,
            alpha=0.0, beta=1.0, decay=0.5,
        )
        wltc.insert(9)
        for _ in range(4):
            wltc.end_period()  # ring of 9 ages to 0; cell kept
        wltc.insert(1)  # second cell
        wltc.insert(2)  # bucket full; 9 has significance 0 -> replaced
        assert wltc.estimate(9) == (0.0, 0)
        assert wltc.estimate(2)[1] == 1

    def test_frequency_decays(self):
        wltc = fresh(window=4, alpha=1.0, beta=0.0, decay=0.5)
        for _ in range(8):
            wltc.insert(9)
        wltc.end_period()
        f, _ = wltc.estimate(9)
        assert f == pytest.approx(4.0)


class TestRecencyRanking:
    def test_recent_item_outranks_stale_item(self):
        """The motivating behaviour: a flow persistent long ago decays
        below a flow persistent right now."""
        wltc = fresh(window=4, w=4, d=4, alpha=0.0, beta=1.0)
        # Item 1 active periods 0-3, then silent; item 2 active 4-7.
        for _ in range(4):
            wltc.insert(1)
            wltc.end_period()
        for _ in range(4):
            wltc.insert(2)
            wltc.end_period()
        top = [r.item for r in wltc.top_k(2)]
        assert top[0] == 2

    def test_whole_stream_ltc_would_tie_them(self):
        from repro.core.config import LTCConfig
        from repro.core.ltc import LTC

        events = [1, 1, 1, 1, 2, 2, 2, 2]
        ltc = LTC(
            LTCConfig(
                num_buckets=4, bucket_width=4, alpha=0.0, beta=1.0,
                items_per_period=1,
            )
        )
        make_stream(events, num_periods=8).run(ltc)
        assert ltc.estimate(1)[1] == ltc.estimate(2)[1] == 4


class TestEviction:
    def test_full_bucket_decrements_weakest(self):
        wltc = fresh(window=4, w=1, d=2, alpha=1.0, beta=0.0)
        for _ in range(3):
            wltc.insert(1)
        wltc.insert(2)
        wltc.insert(3)  # decrement item 2 → takes its cell on zero
        f3, _ = wltc.estimate(3)
        assert f3 == 1.0
        assert wltc.estimate(2) == (0.0, 0)

    @given(st.lists(st.integers(0, 20), max_size=200), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_structural_invariants(self, events, periods):
        wltc = fresh(window=4, w=2, d=3, alpha=1.0, beta=1.0)
        if events:
            stream = make_stream(events, num_periods=min(periods, len(events)))
            stream.run(wltc)
        for j, key in enumerate(wltc._keys):
            assert wltc._freqs[j] >= 0.0
            assert 0 <= wltc._rings[j] < (1 << 4)
            if key is None:
                continue
        top = wltc.top_k(5)
        sigs = [r.significance for r in top]
        assert sigs == sorted(sigs, reverse=True)


class TestInsertManyReplay:
    def test_run_of_hits_on_decayed_frequency_adds_ones_singly(self):
        """After a boundary the frequency is 2/3; eight more hits add
        ``1.0`` eight times (8.666666666666668), which rounds differently
        from one ``+ 8.0`` (8.666666666666666)."""
        one = fresh(window=3, w=1, d=2, alpha=1.0, beta=1.0)
        many = fresh(window=3, w=1, d=2, alpha=1.0, beta=1.0)
        for wltc in (one, many):
            wltc.insert(5)
            wltc.end_period()
        for _ in range(8):
            one.insert(5)
        many.insert_many([5] * 8)
        assert many._freqs == one._freqs
        assert many.estimate(5) == one.estimate(5)

    @given(
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(1, 20)), max_size=40
        ),
        st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_runs_across_boundaries_match_per_event(self, runs, periods):
        events = [item for item, length in runs for _ in range(length)]
        if not events:
            return
        stream = make_stream(events, num_periods=min(periods, len(events)))
        one = fresh(window=3, w=4, d=2, alpha=1.0, beta=1.0)
        many = fresh(window=3, w=4, d=2, alpha=1.0, beta=1.0)
        run_per_event(stream, one)
        stream.run(many)
        assert (many._keys, many._freqs, many._rings) == (
            one._keys,
            one._freqs,
            one._rings,
        )
