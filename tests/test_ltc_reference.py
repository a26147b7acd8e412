"""Differential testing: production LTC ≡ naive reference LTC.

The reference (tests/reference_ltc.py) follows the paper's prose with no
optimisation; any divergence in cell-level state after an arbitrary
stream exposes a bug in the production implementation's bit handling,
clock arithmetic or eviction logic.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from tests.conftest import make_stream
from tests.reference_ltc import ReferenceLTC


def run_both(events, num_periods, w, d, alpha, beta, ltr, de, finalize=True):
    num_periods = max(1, min(num_periods, len(events) or 1))
    stream = make_stream(events, num_periods=num_periods) if events else None
    n = stream.period_length if stream else 1
    real = LTC(
        LTCConfig(
            num_buckets=w,
            bucket_width=d,
            alpha=alpha,
            beta=beta,
            items_per_period=n,
            replacement_policy="longtail" if ltr else "one",
            deviation_eliminator=de,
        )
    )
    ref = ReferenceLTC(
        num_buckets=w,
        bucket_width=d,
        alpha=alpha,
        beta=beta,
        items_per_period=n,
        longtail_replacement=ltr,
        deviation_eliminator=de,
    )
    if stream:
        for period in stream.iter_periods():
            for item in period:
                real.insert(item)
                ref.insert(item)
            real.end_period()
            ref.end_period()
    if finalize:
        real.finalize()
        ref.finalize()
    return real, ref


def real_snapshot(ltc: LTC):
    return [
        (c.key, c.frequency, c.persistency, c.flag_even, c.flag_odd)
        for c in ltc.cells()
    ]


class TestCellLevelEquivalence:
    @given(
        st.lists(st.integers(0, 25), max_size=300),
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(1, 6),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_identical_final_state(self, events, periods, w, d, ltr, de):
        real, ref = run_both(
            events, periods, w, d, alpha=1.0, beta=1.0, ltr=ltr, de=de
        )
        assert real_snapshot(real) == ref.snapshot()

    @given(
        st.lists(st.integers(0, 25), max_size=300),
        st.integers(1, 6),
        st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 10.0), (2.5, 0.5)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_identical_across_significance_weights(self, events, periods, weights):
        alpha, beta = weights
        real, ref = run_both(
            events, periods, w=2, d=4, alpha=alpha, beta=beta, ltr=True, de=True
        )
        assert real_snapshot(real) == ref.snapshot()

    def test_identical_without_finalize(self):
        rng = random.Random(5)
        events = [rng.randrange(15) for _ in range(400)]
        real, ref = run_both(
            events, 8, w=2, d=3, alpha=1.0, beta=1.0, ltr=True, de=True,
            finalize=False,
        )
        assert real_snapshot(real) == ref.snapshot()

    def test_identical_estimates_on_random_stream(self):
        rng = random.Random(11)
        events = [rng.randrange(60) for _ in range(2_000)]
        real, ref = run_both(
            events, 10, w=4, d=4, alpha=1.0, beta=5.0, ltr=True, de=True
        )
        for item in range(60):
            assert real.estimate(item) == ref.estimate(item)

    def test_large_alphabet_heavy_eviction(self):
        rng = random.Random(13)
        events = [rng.randrange(500) for _ in range(3_000)]
        real, ref = run_both(
            events, 6, w=3, d=2, alpha=1.0, beta=1.0, ltr=True, de=True
        )
        assert real_snapshot(real) == ref.snapshot()
