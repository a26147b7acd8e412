"""Property-based tests of LTC's core invariants (hypothesis)."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.streams.ground_truth import GroundTruth
from tests.conftest import make_stream

# Small alphabets and tables force heavy contention, which is where the
# invariants are at risk.
events_strategy = st.lists(st.integers(0, 30), min_size=1, max_size=400)
periods_strategy = st.integers(1, 8)
table_strategy = st.tuples(st.integers(1, 4), st.integers(1, 8))  # (w, d)


def build_and_run(events, num_periods, w, d, alpha, beta, ltr, de) -> LTC:
    num_periods = min(num_periods, len(events))
    stream = make_stream(events, num_periods=num_periods)
    ltc = LTC(
        LTCConfig(
            num_buckets=w,
            bucket_width=d,
            alpha=alpha,
            beta=beta,
            items_per_period=stream.period_length,
            replacement_policy="longtail" if ltr else "one",
            deviation_eliminator=de,
        )
    )
    stream.run(ltc)
    return ltc


class TestNoOverestimation:
    """Theorem IV.1: with the Deviation Eliminator and without Long-tail
    Replacement, ŝ ≤ s for every item — in fact f̂ ≤ f and p̂ ≤ p."""

    @given(events_strategy, periods_strategy, table_strategy)
    @settings(max_examples=120, deadline=None)
    def test_frequency_and_persistency_never_overestimated(
        self, events, num_periods, table
    ):
        w, d = table
        num_periods = min(num_periods, len(events))
        truth = GroundTruth(make_stream(events, num_periods=num_periods))
        ltc = build_and_run(
            events, num_periods, w, d, alpha=1.0, beta=1.0, ltr=False, de=True
        )
        for item in set(events):
            f, p = ltc.estimate(item)
            assert f <= truth.frequency(item)
            assert p <= truth.persistency(item)

    @given(events_strategy, periods_strategy)
    @settings(max_examples=60, deadline=None)
    def test_pure_persistency_mode(self, events, num_periods):
        num_periods = min(num_periods, len(events))
        truth = GroundTruth(make_stream(events, num_periods=num_periods))
        ltc = build_and_run(
            events, num_periods, w=2, d=4, alpha=0.0, beta=1.0, ltr=False, de=True
        )
        for item in set(events):
            assert ltc.estimate(item)[1] <= truth.persistency(item)


class TestStructuralInvariants:
    @given(
        events_strategy,
        periods_strategy,
        table_strategy,
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_counters_sane_under_any_configuration(
        self, events, num_periods, table, ltr, de
    ):
        w, d = table
        ltc = build_and_run(
            events, num_periods, w, d, alpha=1.0, beta=1.0, ltr=ltr, de=de
        )
        occupied = 0
        num_periods = min(num_periods, len(events))
        # The basic (1-flag) version may overshoot by up to one period —
        # exactly the deviation Optimization I removes (paper §III-C).
        persistency_cap = num_periods if de else num_periods + 1
        for cell in ltc.cells():
            assert cell.frequency >= 0
            assert cell.persistency >= 0
            assert cell.persistency <= persistency_cap
            if cell.key is not None:
                occupied += 1
                assert cell.frequency >= 1 or cell.persistency >= 1
            # finalize() must leave no pending flags.
            assert not cell.flag_even and not cell.flag_odd
        assert occupied == len(ltc)
        assert occupied <= ltc.total_cells

    @given(events_strategy, periods_strategy)
    @settings(max_examples=60, deadline=None)
    # The pre-existing ROADMAP bug (found by hypothesis during PR 4): a
    # Significance Decrement hit a cell whose persistency credit was still
    # sitting in two un-harvested DE flags, so only frequency was charged
    # and the later harvests left frequency=1, persistency=2.
    @example(events=[0, 0, 0, 4, 6, 8, 0, 0, 0, 1, 1, 4], num_periods=6)
    def test_persistency_never_exceeds_frequency(self, events, num_periods):
        """The paper notes f ≥ p always; the structure must preserve it."""
        ltc = build_and_run(
            events, num_periods, w=2, d=4, alpha=1.0, beta=1.0, ltr=False, de=True
        )
        for cell in ltc.cells():
            if cell.key is not None:
                assert cell.persistency <= cell.frequency

    @given(
        events_strategy,
        periods_strategy,
        table_strategy,
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_persistency_never_exceeds_frequency_any_configuration(
        self, events, num_periods, table, ltr, de
    ):
        """f ≥ p holds under every DE/LTR combination, not just the paper
        default (Long-tail Replacement seeds the counter at most f0 − 1,
        so the newcomer's pending flag cannot push p past f either)."""
        w, d = table
        ltc = build_and_run(
            events, num_periods, w, d, alpha=1.0, beta=1.0, ltr=ltr, de=de
        )
        for cell in ltc.cells():
            if cell.key is not None:
                assert cell.persistency <= cell.frequency

    def test_roadmap_persistency_regression_case(self):
        """The exact ROADMAP repro: events=[0,0,0,4,6,8,0,0,0,1,1,4],
        6 periods, w=2, d=4, α=β=1, DE=on, LTR=off used to leave item 1
        with frequency=1, persistency=2."""
        ltc = build_and_run(
            [0, 0, 0, 4, 6, 8, 0, 0, 0, 1, 1, 4],
            6,
            w=2,
            d=4,
            alpha=1.0,
            beta=1.0,
            ltr=False,
            de=True,
        )
        f, p = ltc.estimate(1)
        assert (f, p) == (1, 1)
        for cell in ltc.cells():
            if cell.key is not None:
                assert cell.persistency <= cell.frequency

    @given(events_strategy)
    @settings(max_examples=40, deadline=None)
    def test_tracked_items_are_real(self, events):
        """LTC never reports an item that was not in the stream."""
        ltc = build_and_run(
            events, 1, w=2, d=4, alpha=1.0, beta=0.0, ltr=True, de=True
        )
        universe = set(events)
        for report in ltc.top_k(100):
            assert report.item in universe


class TestTopKConsistency:
    @given(events_strategy, st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_topk_sorted_and_bounded(self, events, k):
        ltc = build_and_run(
            events, 1, w=2, d=4, alpha=1.0, beta=1.0, ltr=True, de=True
        )
        top = ltc.top_k(k)
        assert len(top) <= k
        sigs = [r.significance for r in top]
        assert sigs == sorted(sigs, reverse=True)

    @given(events_strategy)
    @settings(max_examples=40, deadline=None)
    def test_query_matches_topk_significance(self, events):
        ltc = build_and_run(
            events, 1, w=2, d=4, alpha=1.0, beta=1.0, ltr=True, de=True
        )
        for report in ltc.top_k(5):
            assert ltc.query(report.item) == report.significance
