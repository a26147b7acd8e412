"""ServingIndex mechanics: laziness, invalidation, epochs, ties, lifecycle.

The byte-equality of served answers is pinned by
``tests/test_serving_differential.py``; here we test the index's own
machinery — that it scans lazily (no work on the ingest path, one scan
per table change however many ranked queries follow, none for point
queries), starts a new epoch (and drops its ranked prefix) on every
table change, bounds the reports it holds, breaks significance ties on
the Python keys exactly as the oracle does, and detaches cleanly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LTCConfig
from repro.core.kernels import KERNELS, build_ltc
from repro.core.serialize import from_bytes, to_bytes
from repro.serve.index import ServingIndex
from repro.serve.oracle import (
    canonical_json,
    oracle_query,
    oracle_significant,
    oracle_top_k,
    query_payload,
    reports_payload,
)
from repro.serve.server import ServingApp

KERNEL_NAMES = sorted(KERNELS)


def _cfg(**kw):
    base = dict(num_buckets=4, bucket_width=2, items_per_period=16)
    base.update(kw)
    return LTCConfig(**base)


def _assert_oracle_equal(idx, ltc, ks=(0, 1, 3, 100), thresholds=(0.0, 2.5, 6.0)):
    """Served top_k / significant bytes equal the full-scan oracle's."""
    for k in ks:
        served = {"k": k, "results": reports_payload(idx.top_k(k))}
        assert canonical_json(served) == canonical_json(oracle_top_k(ltc, k))
    for t in thresholds:
        served = {"threshold": t, "results": reports_payload(idx.significant(t))}
        assert canonical_json(served) == canonical_json(oracle_significant(ltc, t))


class TestLaziness:
    def test_ingest_does_not_repair(self):
        ltc = build_ltc(_cfg())
        idx = ServingIndex(ltc)
        ltc.insert_many(list(range(100)))
        assert idx.epoch == 0
        idx.top_k(3)
        assert idx.epoch == 1

    def test_query_without_mutations_skips_repair(self):
        ltc = build_ltc(_cfg())
        idx = ServingIndex(ltc)
        idx.top_k(1)
        idx.top_k(1)
        idx.query(3)
        assert idx.epoch == 1

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_ranked_queries_in_one_epoch_scan_once(self, kernel):
        ltc = build_ltc(_cfg(num_buckets=8, kernel=kernel))
        idx = ServingIndex(ltc)
        ltc.insert_many([i % 13 for i in range(70)] + [3, 5, 3])
        idx.top_k(1)
        idx.significant(4.0)
        idx.top_k(3)
        idx.significant(0.0)
        idx.top_k(10**18)
        idx.significant(-1.0)
        idx.tracked()
        assert idx.epoch == 1
        ltc.insert_many([3, 3])
        for k in (1, 5, 0, 100):
            idx.top_k(k)
        assert idx.epoch == 2

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_point_queries_never_scan(self, kernel):
        ltc = build_ltc(_cfg(num_buckets=8, kernel=kernel))
        idx = ServingIndex(ltc)
        for step in range(20):
            ltc.insert_many([(step * 7 + i) % 23 for i in range(9)])
            for item in range(25):
                served = query_payload(item, *idx.query(item))
                assert canonical_json(served) == canonical_json(
                    oracle_query(ltc, item)
                )
        assert idx.epoch == 0


class TestInvalidation:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_eviction_drops_departed_item(self, kernel):
        # 1 bucket x 1 cell: every new item evicts the incumbent.
        ltc = build_ltc(
            _cfg(num_buckets=1, bucket_width=1, kernel=kernel,
                 replacement_policy="space-saving")
        )
        idx = ServingIndex(ltc)
        ltc.insert(1)
        assert idx.query(1)[0] is True
        ltc.insert(2)
        assert idx.query(1)[0] is False
        assert idx.query(2)[0] is True
        assert idx.tracked() == 1

    def test_relocated_item_not_dropped_by_stale_diff(self):
        # An item that leaves slot A and reappears in slot A again (or
        # elsewhere) between two queries must stay resolvable: point
        # queries read the kernel, not anything kept from an earlier epoch.
        ltc = build_ltc(_cfg(num_buckets=1, bucket_width=2,
                             replacement_policy="space-saving"))
        idx = ServingIndex(ltc)
        ltc.insert_many([1, 2])      # slots 0, 1 occupied
        assert idx.tracked() == 2
        # evict 1 (smallest), then evict 2's bucket-mate again with 1 back
        ltc.insert(3)                # replaces one incumbent
        ltc.insert(1)
        idx.top_k(2)
        for item in (1,):
            assert idx.query(item)[0] == (item in ltc)

    def test_clear_resets_index(self):
        ltc = build_ltc(_cfg())
        idx = ServingIndex(ltc)
        ltc.insert_many(list(range(50)))
        assert idx.tracked() > 0
        ltc.clear()
        assert idx.tracked() == 0
        assert idx.top_k(5) == []
        assert idx.query(1) == (False, 0.0, 0, 0)
        # the index keeps working after the reset
        ltc.insert(9)
        assert idx.query(9)[0] is True


#: Every way the table changes under an attached index.
MUTATIONS = {
    "insert": lambda ltc: ltc.insert(4),
    "insert_many_hit": lambda ltc: ltc.insert_many([1, 2, 1]),
    "insert_many_miss": lambda ltc: ltc.insert_many([1000, 1001, 1002]),
    "end_period": lambda ltc: ltc.end_period(),
    "clear": lambda ltc: ltc.clear(),
}


class TestEpochs:
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("source", sorted(MUTATIONS))
    def test_every_mutation_source_bumps_epoch(self, kernel, source):
        ltc = build_ltc(_cfg(num_buckets=8, kernel=kernel))
        idx = ServingIndex(ltc)
        # A period boundary, then a few events: the next end_period's
        # sweep has last period's flags left to harvest.
        ltc.insert_many([i % 10 for i in range(40)])
        ltc.end_period()
        ltc.insert_many([5, 6, 7])
        assert 1 in ltc and 2 in ltc  # the "hit" batch really hits
        _assert_oracle_equal(idx, ltc)  # builds this epoch's prefix
        epoch = idx.epoch
        MUTATIONS[source](ltc)
        _assert_oracle_equal(idx, ltc)
        assert idx.epoch > epoch

    def test_queries_without_mutation_keep_epoch_and_prefix(self):
        ltc = build_ltc(_cfg(num_buckets=8))
        idx = ServingIndex(ltc)
        ltc.insert_many([i % 10 for i in range(40)])
        first = idx.top_k(5)
        epoch = idx.epoch
        assert idx.top_k(5) == first
        assert idx.top_k(3) == first[:3]
        # Above the prefix's last entry, so nothing is left to rank.
        t = first[-1][1] + 0.5
        assert idx.significant(t) == [r for r in first if r[1] >= t]
        assert idx.epoch == epoch

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_attach_to_restored_table(self, kernel):
        ltc = build_ltc(_cfg(num_buckets=8, kernel=kernel))
        ltc.insert_many([i % 13 for i in range(70)])
        ltc.end_period()
        ltc.insert_many([3, 5, 3])
        restored = from_bytes(to_bytes(ltc), cls=type(ltc))
        idx = ServingIndex(restored)
        _assert_oracle_equal(idx, restored)
        assert idx.epoch == 1
        restored.insert(11)
        _assert_oracle_equal(idx, restored)
        assert idx.epoch == 2

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_attach_mid_life(self, kernel):
        ltc = build_ltc(_cfg(kernel=kernel))
        idx = ServingIndex(ltc)
        ltc.insert_many(list(range(30)))
        idx.close()
        ltc.insert_many(list(range(20, 40)))
        fresh = ServingIndex(ltc)
        _assert_oracle_equal(fresh, ltc)

    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from(KERNEL_NAMES),
        rounds=st.lists(
            st.tuples(
                st.lists(st.integers(0, 40), max_size=12),
                st.booleans(),
                st.lists(st.integers(0, 12), min_size=1, max_size=4),
                st.lists(
                    st.floats(0.0, 12.0, allow_nan=False), min_size=1, max_size=4
                ),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_repeated_queries_within_epochs_match_oracle(self, kernel, rounds):
        # Each round mutates (or not), then asks growing k and falling
        # thresholds, interleaved, so the ranked prefix is extended and
        # re-sliced inside one epoch.
        ltc = build_ltc(_cfg(kernel=kernel))
        idx = ServingIndex(ltc)
        for events, harvest, ks, thresholds in rounds:
            ltc.insert_many(events)
            if harvest:
                ltc.end_period()
            idx.tracked()  # settle: the queries below share one epoch
            epoch = idx.epoch
            for k, t in zip(sorted(ks), sorted(thresholds, reverse=True)):
                _assert_oracle_equal(idx, ltc, ks=(k,), thresholds=(t,))
            _assert_oracle_equal(idx, ltc, ks=sorted(ks), thresholds=thresholds)
            assert idx.epoch == epoch


class TestHeapBounds:
    """``/stats`` ``heap_size``: the ranked reports held, at most one per
    tracked item whatever ``k`` or threshold a caller asks for."""

    def test_stats_heap_size_counts_ranked_prefix(self):
        app = ServingApp(build_ltc(_cfg(num_buckets=8)))
        app.ltc.insert_many([i % 10 for i in range(40)] + [3, 7])
        assert app.stats()["heap_size"] == 0  # scanned, nothing ranked yet
        status, _, _ = app.respond("GET", "/top_k?k=5")
        assert status == 200
        stats = app.stats()
        assert 5 <= stats["heap_size"] == app.index.held() <= stats["tracked"]

    def test_huge_k_bounded_by_table(self):
        ltc = build_ltc(_cfg())
        idx = ServingIndex(ltc)
        ltc.insert_many(list(range(100)))
        reports = idx.top_k(10**18)
        assert len(reports) == idx.held() == idx.tracked() <= ltc.total_cells
        assert idx.significant(float("-inf")) == reports
        assert idx.held() == idx.tracked()


class TestTieBreak:
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_equal_significance_ranks_by_python_key(self, kernel):
        # Every key arrives once (f=1, p=0), so all tie; top_k cuts the
        # tie group at every k.  Both kernels hold keys in [0, MAX_KEY]
        # only: they refuse -5 and 2**70, and rank the keys they hold,
        # 2**63 + 1 and 2**64 - 2 included, by their value.
        ltc = build_ltc(_cfg(num_buckets=32, bucket_width=4, kernel=kernel))
        idx = ServingIndex(ltc)
        batch = [2**70, 7, 2**63 + 1, 0, -5, 2**64 - 2]
        with pytest.raises(ValueError):
            ltc.insert_many(batch)
        batch = [key for key in batch if 0 <= key < 2**64 - 1]
        held = sorted(batch)
        ltc.insert_many(batch)
        assert all(key in ltc for key in held)
        _assert_oracle_equal(idx, ltc, ks=range(8), thresholds=(0.0, 1.0, 1.5))
        assert [r[0] for r in idx.top_k(6)] == held
        assert all(type(r[0]) is int for r in idx.top_k(6))
        # A deeper tier above the tie group: cuts inside the group still
        # follow the oracle after a new epoch.
        top = held[-1]
        ltc.insert_many([top, 11, 11])
        _assert_oracle_equal(idx, ltc, ks=range(9), thresholds=(1.0, 2.0))
        assert [r[0] for r in idx.top_k(3)] == [11, top, held[0]]


class TestLifecycle:
    def test_close_detaches(self):
        ltc = build_ltc(_cfg())
        idx = ServingIndex(ltc)
        idx.top_k(1)  # adopt the table
        idx.close()
        ltc.insert_many(list(range(32)))
        idx.top_k(1)
        assert idx.epoch == 1  # no notifications after detach

    def test_adopts_existing_state(self):
        ltc = build_ltc(_cfg())
        ltc.insert_many(list(range(20)))
        idx = ServingIndex(ltc)  # attached mid-life
        assert idx.tracked() == len(ltc)
