"""Memory planner: inverting the correct-rate bound."""

from __future__ import annotations

import pytest

from repro.analysis.bounds import mean_topk_correct_rate_bound
from repro.analysis.planner import recommend_memory
from repro.analysis.zipf import zipf_model_frequencies


class TestValidation:
    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            recommend_memory(1000, 10_000, 1.0, 100, target_rate=1.0)
        with pytest.raises(ValueError):
            recommend_memory(1000, 10_000, 1.0, 100, target_rate=0.0)

    def test_rejects_bad_workload(self):
        with pytest.raises(ValueError):
            recommend_memory(0, 10_000, 1.0, 100)

    def test_unreachable_target_raises(self):
        with pytest.raises(ValueError, match="unreachable"):
            recommend_memory(
                5_000, 50_000, 1.0, 100, target_rate=0.999, max_buckets=4
            )


class TestRecommendation:
    def test_plan_meets_target(self):
        plan = recommend_memory(5_000, 50_000, 1.0, k=100, target_rate=0.9)
        assert plan.guaranteed_rate >= 0.9
        assert plan.total_bytes == plan.num_buckets * plan.bucket_width * 12

    def test_minimality(self):
        """One bucket fewer must fall below the target."""
        plan = recommend_memory(5_000, 50_000, 1.0, k=100, target_rate=0.9)
        freqs = zipf_model_frequencies(50_000, 5_000, 1.0)
        below = mean_topk_correct_rate_bound(
            freqs, plan.num_buckets - 1, plan.bucket_width, 100, sample=8
        )
        assert below < 0.9 or plan.num_buckets == 1

    def test_higher_target_needs_more_memory(self):
        lenient = recommend_memory(5_000, 50_000, 1.0, 100, target_rate=0.7)
        strict = recommend_memory(5_000, 50_000, 1.0, 100, target_rate=0.95)
        assert strict.total_bytes > lenient.total_bytes

    def test_more_distinct_items_need_more_memory(self):
        small = recommend_memory(2_000, 50_000, 1.0, 100, target_rate=0.9)
        large = recommend_memory(20_000, 50_000, 1.0, 100, target_rate=0.9)
        assert large.total_bytes >= small.total_bytes

    def test_str(self):
        plan = recommend_memory(2_000, 20_000, 1.0, 50, target_rate=0.8)
        assert "KB" in str(plan)

    def test_recommendation_holds_empirically(self):
        """The planned memory actually delivers the target correct rate
        on a matching synthetic stream (the bound is conservative)."""
        from repro.core.config import LTCConfig
        from repro.core.ltc import LTC
        from repro.streams.ground_truth import GroundTruth
        from repro.streams.synthetic import zipf_stream

        num_distinct, stream_len, skew, k = 3_000, 25_000, 1.0, 100
        plan = recommend_memory(
            num_distinct, stream_len, skew, k, target_rate=0.8
        )
        stream = zipf_stream(stream_len, num_distinct, skew, num_periods=10, seed=3)
        truth = GroundTruth(stream)
        ltc = LTC(
            LTCConfig(
                num_buckets=plan.num_buckets,
                bucket_width=plan.bucket_width,
                alpha=1.0,
                beta=0.0,
                items_per_period=stream.period_length,
                replacement_policy="one",  # the bound's regime
            )
        )
        stream.run(ltc)
        exact_top = truth.top_k(k, 1.0, 0.0)
        correct = sum(1 for item, sig in exact_top if ltc.query(item) == sig)
        assert correct / k >= 0.8
