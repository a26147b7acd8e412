"""Percentile rule and quartiles."""

from __future__ import annotations

import math

import pytest

from benchmarks.e2e.stats import (
    percentile,
    quartiles,
    spread,
    summarize,
    supported,
    tail_percentile,
)


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n - round(expected / 100 * n) >= 10
        assert supported(n, expected)


def test_percentile_is_nearest_rank_and_failures_rank_last():
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 90) == 90.0
    assert percentile([1.0, math.inf, 2.0], 90) == math.inf
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summarize_reports_the_supported_tail_and_count():
    out = summarize([float(i) for i in range(200)])
    assert out["n"] == 200 and out["tail_p"] == 90.0
    assert out["p50"] == 99.0 and out["max"] == 199.0
    assert "tail" not in summarize([1.0] * 30)


def test_quartiles_and_spread_match_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, med, q3 = quartiles(values)
    assert med == 14.5 and q1 < med < q3
    assert spread(values) == pytest.approx((q3 - q1) / med)
