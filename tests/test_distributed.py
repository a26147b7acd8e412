"""Distributed monitoring: partitioning, coordinated sampling, coordinators."""

from __future__ import annotations

import random

import pytest

from repro.core.config import LTCConfig
from repro.distributed.coordinator import (
    MergingCoordinator,
    SamplingCoordinator,
)
from repro.distributed.partition import (
    partition_random,
    partition_sharded,
    shard_of,
)
from repro.distributed.sampling import CoordinatedSampler, combine_reports
from repro.streams.ground_truth import GroundTruth
from repro.streams.synthetic import zipf_stream
from tests.conftest import make_stream

SHARD_SEED = 0xD15C


@pytest.fixture(scope="module")
def logical_stream():
    return zipf_stream(
        num_events=12_000, num_distinct=2_000, skew=1.1, num_periods=12, seed=8
    )


class TestPartitioning:
    def test_sharded_conserves_events(self, logical_stream):
        sites = partition_sharded(logical_stream, 4)
        assert sum(len(s) for s in sites) == len(logical_stream)

    def test_sharded_items_disjoint(self, logical_stream):
        sites = partition_sharded(logical_stream, 4)
        seen = {}
        for index, site in enumerate(sites):
            for item in set(site.events):
                assert seen.setdefault(item, index) == index

    def test_sharded_preserves_period_alignment(self, logical_stream):
        """An item's per-period presence at its site matches the logical
        stream's periods."""
        sites = partition_sharded(logical_stream, 4)
        truth = GroundTruth(logical_stream)
        for site in sites:
            site_truth = GroundTruth(site)
            for item in list(set(site.events))[:100]:
                assert site_truth.persistency(item) == truth.persistency(item)

    def test_random_conserves_events(self, logical_stream):
        sites = partition_random(logical_stream, 4)
        assert sum(len(s) for s in sites) == len(logical_stream)

    def test_random_spreads_items(self, logical_stream):
        sites = partition_random(logical_stream, 4)
        heavy = max(set(logical_stream.events), key=logical_stream.events.count)
        appearing_at = sum(1 for s in sites if heavy in set(s.events))
        assert appearing_at >= 2  # heavy items hit several sites

    def test_rejects_zero_sites(self, logical_stream):
        with pytest.raises(ValueError):
            partition_sharded(logical_stream, 0)
        with pytest.raises(ValueError):
            partition_random(logical_stream, 0)

    def test_owned_key_ranges_are_disjoint_and_stable(self, logical_stream):
        """shard_of is the routing function partition_sharded applies."""
        shards = partition_sharded(logical_stream, 4, seed=SHARD_SEED)
        for index, shard in enumerate(shards):
            assert all(
                shard_of(item, 4, SHARD_SEED) == index
                for item in set(shard.events)
            )


class TestCoordinatedSampler:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            CoordinatedSampler(0.0)

    def test_full_rate_exact(self):
        sampler = CoordinatedSampler(1.0)
        stream = make_stream([1, 2, 1, 3, 1, 2], num_periods=3)
        stream.run(sampler)
        truth = GroundTruth(stream)
        for item in truth.items():
            assert sampler.query(item) == truth.persistency(item)

    def test_same_seed_samples_same_items(self):
        a = CoordinatedSampler(0.3, seed=5)
        b = CoordinatedSampler(0.3, seed=5)
        for item in range(200):
            a.insert(item)
            b.insert(item)
        assert {i for i, _, _ in a.export()} == {i for i, _, _ in b.export()}

    def test_bitmap_or_reconstructs_global_persistency(self):
        """The core coordinated-sampling property: per-site bitmaps OR to
        the exact global persistency under arbitrary splits."""
        rng = random.Random(3)
        events = [rng.randrange(40) for _ in range(600)]
        stream = make_stream(events, num_periods=6)
        truth = GroundTruth(stream)
        sites = partition_random(stream, 3, seed=9)
        reports = []
        for site in sites:
            sampler = CoordinatedSampler(1.0, seed=5)
            site.run(sampler)
            reports.append(sampler.export())
        combined = combine_reports(reports)
        for item in set(events):
            freq, bits = combined[item]
            assert freq == truth.frequency(item)
            assert bin(bits).count("1") == truth.persistency(item)

    def test_export_bytes_scales_with_entries(self):
        sampler = CoordinatedSampler(1.0)
        for item in range(10):
            sampler.insert(item)
        assert sampler.export_bytes() == 10 * 9  # 8B + 1 bitmap byte


class TestMergingCoordinator:
    def make_config(self):
        return LTCConfig(
            num_buckets=64,
            bucket_width=8,
            alpha=0.0,
            beta=1.0,
            items_per_period=1,  # overridden per site
        )

    def test_sharded_matches_centralised(self, logical_stream):
        truth = GroundTruth(logical_stream)
        exact = truth.top_k_items(50, 0.0, 1.0)
        sites = partition_sharded(logical_stream, 4)
        report = MergingCoordinator(self.make_config()).run(sites, 50)
        hits = len(report.items() & exact)
        assert hits / 50 >= 0.8

    def test_communication_is_summary_sized(self, logical_stream):
        sites = partition_sharded(logical_stream, 4)
        report = MergingCoordinator(self.make_config()).run(sites, 10)
        # 4 summaries of ~512 cells at 17B/cell serialized + headers —
        # orders of magnitude below shipping the 12k raw events.
        assert report.communication_bytes < 80_000
        assert report.num_sites == 4

    def test_columnar_kernel_matches_reference(self, logical_stream):
        """On item-sharded sites both kernels give the same report."""
        sites = partition_sharded(logical_stream, 4)
        config = self.make_config()
        reference = MergingCoordinator(
            config.with_options(kernel="reference")
        ).run(sites, 50)
        columnar = MergingCoordinator(config).run(sites, 50)
        assert columnar == reference

    def test_sites_and_merge_build_the_columnar_kernel(
        self, logical_stream, monkeypatch
    ):
        from repro.core.columnar import ColumnarLTC
        from repro.distributed import coordinator

        built = []
        real_merge = coordinator.merge

        def spy(summaries, **kwargs):
            merged = real_merge(summaries, **kwargs)
            built.extend([*summaries, merged])
            return merged

        monkeypatch.setattr(coordinator, "merge", spy)
        sites = partition_sharded(logical_stream, 3)
        MergingCoordinator(self.make_config()).run(sites, 10)
        assert [type(ltc) for ltc in built] == [ColumnarLTC] * 4

    def test_rejects_empty_site_list(self):
        with pytest.raises(ValueError, match="^no site streams to run$"):
            MergingCoordinator(self.make_config()).run([], 10)


class TestSamplingCoordinator:
    def test_sampled_items_exact_under_random_split(self, logical_stream):
        truth = GroundTruth(logical_stream)
        sites = partition_random(logical_stream, 4)
        coordinator = SamplingCoordinator(sample_rate=1.0, beta=1.0)
        report = coordinator.run(sites, 50)
        for item, sig in report.top_k:
            assert sig == truth.persistency(item)

    def test_low_rate_caps_recall(self, logical_stream):
        truth = GroundTruth(logical_stream)
        exact = truth.top_k_items(50, 0.0, 1.0)
        sites = partition_random(logical_stream, 4)
        report = SamplingCoordinator(sample_rate=0.2).run(sites, 50)
        hit_rate = len(report.items() & exact) / 50
        assert hit_rate < 0.6  # ≈ sample rate in expectation

    def test_communication_grows_with_rate(self, logical_stream):
        sites = partition_random(logical_stream, 4)
        low = SamplingCoordinator(sample_rate=0.1).run(sites, 10)
        high = SamplingCoordinator(sample_rate=0.8).run(sites, 10)
        assert high.communication_bytes > low.communication_bytes
