"""Correct-rate and error bounds (§IV) — including conservativeness
against the measured behaviour of the real structure (the paper's Fig. 7)."""

from __future__ import annotations

import itertools

import pytest

from repro.analysis.bounds import (
    correct_rate_lower_bound,
    error_probability_bound,
    expected_decrements,
    mean_topk_correct_rate_bound,
    p_small,
    useful_probability,
)
from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.streams.ground_truth import GroundTruth
from repro.streams.synthetic import zipf_stream


class TestPSmall:
    def test_value(self):
        assert p_small(8) == 0.125

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            p_small(0)


class TestUsefulProbability:
    def test_larger_item_is_one_over_w(self):
        assert useful_probability(f_i=100, f=10, w=50) == 1 / 50

    def test_smaller_item_scaled(self):
        assert useful_probability(f_i=5, f=9, w=10) == pytest.approx(0.05)

    def test_monotone_in_f_i(self):
        values = [useful_probability(f_i, 10, 10) for f_i in (1, 5, 9, 11, 50)]
        assert values == sorted(values)

    def test_rejects_bad_w(self):
        with pytest.raises(ValueError):
            useful_probability(1, 1, 0)


class TestDPRecursion:
    def brute_force(self, ks, limit):
        """Exact Poisson-binomial tail by enumeration."""
        total = 0.0
        n = len(ks)
        for pattern in itertools.product([0, 1], repeat=n):
            if sum(pattern) <= limit:
                prob = 1.0
                for bit, k in zip(pattern, ks):
                    prob *= k if bit else (1 - k)
                total += prob
        return total

    def test_matches_enumeration(self):
        freqs = [50, 30, 10, 5, 2]
        w, d, f = 4, 3, 8
        ks = [useful_probability(fi, f, w) for fi in freqs]
        expected = self.brute_force(ks, d - 2)
        assert correct_rate_lower_bound(freqs, w, d, f) == pytest.approx(expected)

    def test_d_below_two_is_zero(self):
        assert correct_rate_lower_bound([1.0], w=2, d=1, f=1) == 0.0

    def test_probability_range(self):
        freqs = list(range(1, 200))
        bound = correct_rate_lower_bound(freqs, w=10, d=8, f=50)
        assert 0.0 <= bound <= 1.0

    def test_more_buckets_raise_bound(self):
        freqs = [float(x) for x in range(1, 100)]
        low_w = correct_rate_lower_bound(freqs, w=2, d=4, f=50)
        high_w = correct_rate_lower_bound(freqs, w=50, d=4, f=50)
        assert high_w >= low_w

    def test_wider_buckets_raise_bound(self):
        freqs = [float(x) for x in range(1, 100)]
        narrow = correct_rate_lower_bound(freqs, w=10, d=2, f=50)
        wide = correct_rate_lower_bound(freqs, w=10, d=8, f=50)
        assert wide >= narrow


class TestErrorBound:
    def test_expected_decrements(self):
        freqs = [100.0, 50.0, 25.0, 10.0]
        # Rank 1 item: decrementers are ranks 2,3 → (25+10)/w · 1/d.
        assert expected_decrements(freqs, 1, w=5, d=4) == pytest.approx(
            (35 / 5) * 0.25
        )

    def test_bound_clipped_to_one(self):
        freqs = [1000.0] * 100
        bound = error_probability_bound(
            freqs, 0, w=1, d=1, alpha=1, beta=1, epsilon=1e-9, total=10.0
        )
        assert bound == 1.0

    def test_bound_decreases_with_epsilon(self):
        freqs = [float(x) for x in range(200, 0, -1)]
        loose = error_probability_bound(
            freqs, 0, w=10, d=8, alpha=1, beta=0, epsilon=1e-3, total=1e4
        )
        tight = error_probability_bound(
            freqs, 0, w=10, d=8, alpha=1, beta=0, epsilon=1e-2, total=1e4
        )
        assert tight <= loose

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            error_probability_bound([1.0], 0, 1, 1, 1, 1, epsilon=0, total=1)


class TestBoundsAreConservative:
    """The Fig. 7 check: theory bounds the measured values correctly."""

    @pytest.fixture(scope="class")
    def workload(self):
        stream = zipf_stream(
            num_events=20_000, num_distinct=3_000, skew=1.0, num_periods=10, seed=5
        )
        return stream, GroundTruth(stream)

    def test_correct_rate_bound_below_measured(self, workload):
        stream, truth = workload
        w, d, k = 150, 8, 200
        ltc = LTC(
            LTCConfig(
                num_buckets=w,
                bucket_width=d,
                alpha=1.0,
                beta=0.0,
                items_per_period=stream.period_length,
                replacement_policy="one",
            )
        )
        stream.run(ltc)
        exact_top = truth.top_k(k, 1.0, 0.0)
        correct = sum(
            1 for item, sig in exact_top if ltc.query(item) == sig
        )
        measured = correct / k
        freqs = truth.frequencies_sorted()
        bound = mean_topk_correct_rate_bound(freqs, w, d, k, sample=16)
        assert bound <= measured + 0.05  # small slack for sampling noise

    def test_error_bound_above_measured(self, workload):
        stream, truth = workload
        w, d = 60, 8
        epsilon, n = 1e-3, truth.num_events
        ltc = LTC(
            LTCConfig(
                num_buckets=w,
                bucket_width=d,
                alpha=1.0,
                beta=0.0,
                items_per_period=stream.period_length,
                replacement_policy="one",
            )
        )
        stream.run(ltc)
        freqs = truth.frequencies_sorted()
        ranks = range(0, 200, 10)
        exact_top = truth.top_k(200, 1.0, 0.0)
        violations = 0
        bound_total = 0.0
        for rank in ranks:
            item, sig = exact_top[rank]
            measured_err = sig - ltc.query(item)
            if measured_err >= epsilon * n:
                violations += 1
            bound_total += error_probability_bound(
                freqs, rank, w, d, alpha=1, beta=0, epsilon=epsilon, total=n
            )
        measured_rate = violations / len(list(ranks))
        mean_bound = bound_total / len(list(ranks))
        assert measured_rate <= mean_bound + 0.05
