"""Fig. 7 — theoretical bounds vs measured values (§IV-D).

(a) correct-rate: the theoretical lower bound stays below the measured
    correct rate at every memory size;
(b) error: the Markov bound stays above the measured violation rate.

Paper parameters: k = 1000, memory 10–150KB, ε = 2⁻¹⁸.  Scaled here to
the bench stream (k = 200, ε chosen so εN matches the same error scale).
"""

from __future__ import annotations

from benchmarks.conftest import emit, once
from repro.analysis.bounds import (
    error_probability_bound,
    mean_topk_correct_rate_bound,
)
from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.metrics.memory import MemoryBudget, kb
from repro.streams.synthetic import zipf_stream
from repro.streams.ground_truth import GroundTruth

K = 200
EPSILON = 2e-3


def build_workload():
    stream = zipf_stream(
        num_events=30_000, num_distinct=6_000, skew=1.0, num_periods=20, seed=77
    )
    return stream, GroundTruth(stream)


def run_ltc(stream, w, d):
    ltc = LTC(
        LTCConfig(
            num_buckets=w,
            bucket_width=d,
            alpha=1.0,
            beta=0.0,
            items_per_period=stream.period_length,
            replacement_policy="one",  # the bounds are for the basic+DE version
        )
    )
    stream.run(ltc)
    return ltc


def sweep(memory_kbs):
    stream, truth = build_workload()
    freqs = truth.frequencies_sorted()
    exact_top = truth.top_k(K, 1.0, 0.0)
    rows_a, rows_b = [], []
    d = 8
    for mem in memory_kbs:
        w = MemoryBudget(kb(mem)).ltc_buckets(d)
        ltc = run_ltc(stream, w, d)
        correct = sum(1 for item, sig in exact_top if ltc.query(item) == sig)
        measured_rate = correct / K
        bound = mean_topk_correct_rate_bound(freqs, w, d, K, sample=16)
        rows_a.append((mem, round(bound, 4), round(measured_rate, 4)))

        violations = sum(
            1
            for item, sig in exact_top
            if sig - ltc.query(item) >= EPSILON * truth.num_events
        )
        measured_err = violations / K
        mean_bound = sum(
            error_probability_bound(
                freqs, rank, w, d, 1.0, 0.0, EPSILON, truth.num_events
            )
            for rank in range(0, K, 10)
        ) / len(range(0, K, 10))
        rows_b.append((mem, round(mean_bound, 4), round(measured_err, 4)))
    return rows_a, rows_b


def test_fig07_bounds(benchmark):
    memory_kbs = (2, 4, 8, 16)
    rows_a, rows_b = once(benchmark, sweep, memory_kbs)
    emit(
        "fig07",
        ["memory(KB)", "theoretic bound", "real correct rate"],
        rows_a,
        title="Fig 7(a): correct-rate bound vs measured (k=200, Zipf 1.0)",
    )
    emit(
        "fig07",
        ["memory(KB)", "theoretic bound", "real violation rate"],
        rows_b,
        title=f"Fig 7(b): error bound vs measured (eps={EPSILON})",
    )
    for mem, bound, real in rows_a:
        assert bound <= real + 0.05, f"correct-rate bound not conservative at {mem}KB"
    for mem, bound, real in rows_b:
        assert real <= bound + 0.05, f"error bound not conservative at {mem}KB"
    # Both the bound and the measurement tighten with memory.
    assert rows_a[-1][1] >= rows_a[0][1]
    assert rows_a[-1][2] >= rows_a[0][2]
