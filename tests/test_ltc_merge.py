"""Merging LTC summaries from partitioned streams."""

from __future__ import annotations

import random

import pytest

from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.core.merge import merge
from repro.streams.ground_truth import GroundTruth
from tests.conftest import make_stream


def fresh_ltc(w=4, d=4, alpha=1.0, beta=1.0, n=100, seed=0x17C) -> LTC:
    return LTC(
        LTCConfig(
            num_buckets=w,
            bucket_width=d,
            alpha=alpha,
            beta=beta,
            items_per_period=n,
            seed=seed,
        )
    )


def run(ltc: LTC, events, num_periods):
    stream = make_stream(events, num_periods=num_periods)
    stream.run(ltc)
    return ltc


class TestValidation:
    def test_empty_input(self):
        with pytest.raises(ValueError):
            merge([])

    def test_incompatible_configs(self):
        with pytest.raises(ValueError, match="num_buckets"):
            merge([fresh_ltc(w=4), fresh_ltc(w=8)])

    def test_incompatible_seed(self):
        with pytest.raises(ValueError, match="seed"):
            merge([fresh_ltc(seed=1), fresh_ltc(seed=2)])

    def make(self, **overrides) -> LTC:
        cfg = dict(
            num_buckets=4, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=100,
        )
        cfg.update(overrides)
        return LTC(LTCConfig(**cfg))

    def test_incompatible_deviation_eliminator(self):
        """Flag semantics (one vs two flag bits) must line up."""
        with pytest.raises(ValueError, match="deviation_eliminator"):
            merge(
                [
                    self.make(deviation_eliminator=True),
                    self.make(deviation_eliminator=False),
                ]
            )

    def test_incompatible_replacement_policy(self):
        """Space-saving cells overestimate; mixing policies is rejected."""
        with pytest.raises(ValueError, match="replacement_policy"):
            merge(
                [
                    self.make(replacement_policy="longtail"),
                    self.make(replacement_policy="space-saving"),
                ]
            )

    def test_effective_policy_comparison(self):
        """'one' merges with 'one' and differs from the longtail default."""
        one = dict(replacement_policy="one")
        merge([self.make(**one), self.make(**one)])
        with pytest.raises(ValueError, match="replacement_policy"):
            merge([self.make(), self.make(**one)])

    def test_incompatible_items_per_period(self):
        with pytest.raises(ValueError, match="items_per_period"):
            merge([self.make(items_per_period=10), self.make(items_per_period=20)])

    def test_items_per_period_check_can_be_waived(self):
        """Coordinators with per-site CLOCK rates opt out explicitly."""
        merged = merge(
            [self.make(items_per_period=10), self.make(items_per_period=20)],
            check_period=False,
        )
        assert merged.config.items_per_period == 10


class TestItemShardedMerge:
    """Disjoint item partitions: per-item statistics merge exactly."""

    def test_exact_for_disjoint_partitions(self):
        rng = random.Random(4)
        events = [rng.randrange(40) for _ in range(800)]
        num_periods = 8
        # Shard by item parity — every item's arrivals land in one shard.
        shard_events = [
            [e for e in events if e % 2 == 0],
            [e for e in events if e % 2 == 1],
        ]
        shards = [
            run(fresh_ltc(w=8, d=8), se, num_periods) for se in shard_events
        ]
        merged = merge(shards, num_periods=num_periods)
        truth = GroundTruth(make_stream(events, num_periods=num_periods))
        # Ample capacity → every item survives with its shard-exact stats.
        for item in set(events):
            f, p = merged.estimate(item)
            shard = shards[item % 2]
            assert (f, p) == shard.estimate(item)
            # Shards had ample room, so shard estimates are exact within
            # their own period structure; persistency may differ from the
            # unpartitioned truth only via the shards' period boundaries.
            assert f == sum(1 for e in shard_events[item % 2] if e == item)

    def test_topk_from_merged_matches_union(self):
        events_a = [1] * 30 + [2] * 10 + list(range(100, 120))
        events_b = [3] * 25 + [4] * 5 + list(range(200, 220))
        a = run(fresh_ltc(w=8, d=8), events_a, 4)
        b = run(fresh_ltc(w=8, d=8), events_b, 4)
        merged = merge([a, b])
        top = [r.item for r in merged.top_k(3)]
        assert top[:2] == [1, 3]


class TestArbitrarySplitMerge:
    def test_frequencies_add(self):
        a = run(fresh_ltc(), [7] * 10, 2)
        b = run(fresh_ltc(), [7] * 15, 3)
        merged = merge([a, b])
        f, _ = merged.estimate(7)
        assert f == 25

    def test_persistency_clipped_to_num_periods(self):
        a = run(fresh_ltc(), [7, 7, 7, 7], 4)  # p = 4
        b = run(fresh_ltc(), [7, 7, 7, 7], 4)  # p = 4 (same periods)
        merged = merge([a, b], num_periods=4)
        _, p = merged.estimate(7)
        assert p == 4  # clipped; unclipped addition would claim 8

    def test_unclipped_when_periods_unknown(self):
        a = run(fresh_ltc(), [7, 7], 2)
        b = run(fresh_ltc(), [7, 7], 2)
        merged = merge([a, b])
        _, p = merged.estimate(7)
        assert p == 4


class TestBucketOverflow:
    def test_keeps_most_significant(self):
        # One bucket of width 2, three items with distinct weights spread
        # over two summaries.
        def one_bucket():
            return fresh_ltc(w=1, d=2)

        a = run(one_bucket(), [1] * 9 + [2] * 5, 2)
        b = run(one_bucket(), [3] * 7, 2)
        merged = merge([a, b])
        kept = {r.item for r in merged.top_k(2)}
        assert kept == {1, 3}  # item 2 (weakest) is cut

    def test_merge_of_unfinalized_inputs_folds_flags(self):
        a = fresh_ltc()
        for item in (5, 5, 6):
            a.insert(item)
        # No end_period/finalize: the current flags are still pending.
        merged = merge([a], num_periods=1)
        _, p = merged.estimate(5)
        assert p == 1


class TestMergeProperties:
    """Hypothesis: merge invariants on random sharded partitions."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=300),
        st.integers(2, 4),
        st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_sharded_merge_preserves_shard_estimates(
        self, events, num_shards, periods
    ):
        """With ample capacity, every item's merged estimate equals its
        (single) shard's estimate — merging loses nothing."""
        periods = min(periods, len(events))
        shards = []
        shard_events = [[] for _ in range(num_shards)]
        for e in events:
            shard_events[e % num_shards].append(e)
        for se in shard_events:
            ltc = fresh_ltc(w=8, d=8)
            if se:
                run(ltc, se, min(periods, len(se)))
            else:
                ltc.finalize()
            shards.append(ltc)
        merged = merge(shards)
        for e in set(events):
            assert merged.estimate(e) == shards[e % num_shards].estimate(e)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_merge_with_empty_summaries_is_identity(self, events):
        populated = run(fresh_ltc(w=4, d=4), events, min(3, len(events)))
        empties = [fresh_ltc(w=4, d=4) for _ in range(2)]
        merged = merge([populated] + empties)
        for e in set(events):
            assert merged.estimate(e) == populated.estimate(e)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_merge_commutative(self, events):
        a = run(fresh_ltc(), [e for e in events if e % 2 == 0] or [0], 1)
        b = run(fresh_ltc(), [e for e in events if e % 2 == 1] or [1], 1)
        ab = merge([a, b])
        ba = merge([b, a])
        for e in set(events) | {0, 1}:
            assert ab.estimate(e) == ba.estimate(e)
