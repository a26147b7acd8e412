"""Extension benchmark — memory-planner validation.

Not a paper figure: validates `repro.analysis.recommend_memory` the way
Fig. 7 validates the bound it inverts.  For several target correct rates
the planner picks a table size from the Zipf model alone; we then run a
real LTC at that size on a matching synthetic stream and check the
measured correct rate clears the target (the bound is conservative, so
the plan should always be safe, with modest over-provisioning).
"""

from __future__ import annotations

from benchmarks.conftest import emit, once
from repro.analysis.planner import recommend_memory
from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.streams.ground_truth import GroundTruth
from repro.streams.synthetic import zipf_stream

NUM_DISTINCT, STREAM_LEN, SKEW, K = 4_000, 30_000, 1.0, 100


def run_experiment():
    stream = zipf_stream(
        STREAM_LEN, NUM_DISTINCT, SKEW, num_periods=15, seed=61
    )
    truth = GroundTruth(stream)
    exact_top = truth.top_k(K, 1.0, 0.0)
    rows = []
    for target in (0.5, 0.7, 0.9, 0.95):
        plan = recommend_memory(
            NUM_DISTINCT, STREAM_LEN, SKEW, K, target_rate=target
        )
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
        correct = sum(1 for item, sig in exact_top if ltc.query(item) == sig)
        rows.append(
            (target, plan.total_bytes // 1024, plan.guaranteed_rate, correct / K)
        )
    return rows


def test_ext_planner_validation(benchmark):
    rows = once(benchmark, run_experiment)
    emit(
        "ext_planner",
        ["target rate", "planned KB", "guaranteed", "measured"],
        [
            (f"{t:.2f}", mem, f"{g:.3f}", f"{m:.3f}")
            for t, mem, g, m in rows
        ],
        title=f"Planner validation (M={NUM_DISTINCT}, N={STREAM_LEN}, k={K})",
    )
    for target, mem_kb, guaranteed, measured in rows:
        assert guaranteed >= target
        assert measured >= target - 0.03, f"plan missed target {target}"
    # More demanding targets get bigger plans.
    sizes = [mem for _, mem, _, _ in rows]
    assert sizes == sorted(sizes)
