"""Fig. 8 — effect of Long-tail Replacement (Optimization II).

(a) precision vs memory (Network, α = β = 1, k = 1000 in the paper);
(b) precision vs the (α : β) parameter pairing at fixed memory.

Shape: Y (with LTR) ≥ N (without) everywhere, with the gap largest at
tight memory.
"""

from __future__ import annotations

from benchmarks.conftest import emit, once
from repro.experiments.configs import ltc_factory
from repro.metrics.accuracy import precision
from repro.metrics.memory import MemoryBudget, kb

K = 200


def run_pair(stream, truth, mem_kb, alpha, beta):
    exact = truth.top_k_items(K, alpha, beta)
    out = []
    for policy in ("longtail", "one"):
        ltc = ltc_factory(
            MemoryBudget(kb(mem_kb)),
            stream,
            alpha=alpha,
            beta=beta,
            replacement_policy=policy,
        )()
        stream.run(ltc)
        out.append(precision((r.item for r in ltc.top_k(K)), exact))
    return out  # [with_ltr, without_ltr]


def test_fig08a_ltr_vs_memory(benchmark, bench_network):
    stream, truth = bench_network

    def sweep():
        return [
            (mem, *run_pair(stream, truth, mem, 1.0, 1.0))
            for mem in (4, 8, 16, 32)
        ]

    rows = once(benchmark, sweep)
    emit(
        "fig08",
        ["memory(KB)", "Y (with LTR)", "N (without)"],
        [(m, f"{y:.3f}", f"{n:.3f}") for m, y, n in rows],
        title="Fig 8(a): precision vs memory, alpha=beta=1 (network)",
    )
    for mem, with_ltr, without in rows:
        assert with_ltr >= without - 0.02, f"LTR hurt at {mem}KB"
    # The gap is visible somewhere in the sweep.
    assert any(y > n for _, y, n in rows)


def test_fig08b_ltr_vs_parameters(benchmark, bench_network):
    stream, truth = bench_network
    pairs = [(1.0, 0.0), (1.0, 1.0), (10.0, 1.0), (0.0, 1.0)]

    def sweep():
        return [
            (f"{a:g}:{b:g}", *run_pair(stream, truth, 6, a, b)) for a, b in pairs
        ]

    rows = once(benchmark, sweep)
    emit(
        "fig08",
        ["alpha:beta", "Y (with LTR)", "N (without)"],
        [(p, f"{y:.3f}", f"{n:.3f}") for p, y, n in rows],
        title="Fig 8(b): precision vs parameters at 6KB (network)",
    )
    for pair, with_ltr, without in rows:
        assert with_ltr >= without - 0.03, f"LTR hurt at {pair}"
