"""Verdicts of compare.py (choosing-metrics §6–8)."""

from __future__ import annotations

import json

from benchmarks.e2e import compare

TIGHT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_consistent_gain_beyond_the_parent_spread_is_improved():
    change = [v * 1.2 for v in TIGHT]
    assert compare.win_fraction(TIGHT, change, higher_better=True) == 1.0
    assert compare.verdict(TIGHT, change, True, bound=0.05) == "improved"
    assert compare.verdict(TIGHT, [v / 1.2 for v in TIGHT], False, bound=0.05) == "improved"


def test_worse_by_more_than_the_bound_is_regressed():
    change = [v * 0.9 for v in TIGHT]
    assert compare.verdict(TIGHT, change, True, bound=0.05) == "regressed"
    assert compare.verdict(TIGHT, [v * 1.1 for v in TIGHT], False, bound=0.05) == "regressed"


def test_within_the_bound_with_a_tight_parent_is_unchanged():
    change = [v * 0.99 for v in TIGHT]
    assert compare.verdict(TIGHT, change, True, bound=0.05) == "unchanged"


def test_parent_spread_wider_than_the_bound_is_unresolved():
    noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    change = [v * 1.01 for v in reversed(noisy)]
    assert compare.verdict(noisy, change, True, bound=0.05) == "unresolved"


def test_ties_count_for_neither_side():
    assert compare.win_fraction([1.0, 2.0], [1.0, 3.0], higher_better=True) == 0.5


def test_rows_cover_every_metric_and_the_failed_share(tmp_path):
    bench = {
        "workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}],
    }

    def doc(value, failed):
        return {"workloads": {"w": {"metrics": {"m": value}, "attempted": 100, "failed": failed}}}

    parent = [doc(10.0 + i * 0.01, 0) for i in range(10)]
    change = [doc(12.0 + i * 0.01, 1) for i in range(10)]
    table = compare.rows(parent, change, bench)
    assert [r["metric"] for r in table] == ["m", "failed_share"]
    assert table[0]["verdict"] == "regressed" and table[0]["win"] == 0.0
    assert table[1]["verdict"] == "more failures"
    path = tmp_path / "p.json"
    path.write_text(json.dumps(parent[0]))
    assert compare._load([str(path)]) == [parent[0]]
