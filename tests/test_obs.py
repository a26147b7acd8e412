"""repro.obs: registry semantics, null-registry no-ops, exporters, and
the must-not-change-results differential guarantee."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.config import LTCConfig
from repro.core.columnar import ColumnarLTC
from repro.core.ltc import LTC
from repro.metrics.throughput import run_per_event
from repro.obs.registry import MetricsRegistry, NullRegistry, _NULL_METRIC
from tests.conftest import make_stream


@pytest.fixture(autouse=True)
def obs_disabled_after():
    """Every test leaves the process-global flag in the default state."""
    yield
    obs.disable()


def fresh_registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = fresh_registry().counter("c", "help")
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_rejects_negative(self):
        c = fresh_registry().counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = fresh_registry().gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12
        g.inc(-12)
        assert g.value == 0


class TestHistogram:
    def test_observations_land_in_le_buckets(self):
        h = fresh_registry().histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 9.0):
            h.observe(v)
        # le semantics: 1.0 belongs to the le="1.0" bucket.
        assert h.counts == [2, 1, 0, 1]
        assert h.cumulative() == [(1.0, 2), (2.0, 3), (5.0, 3), (float("inf"), 4)]
        assert h.count == 4
        assert h.sum == pytest.approx(12.0)

    def test_rejects_bad_boundaries(self):
        reg = fresh_registry()
        with pytest.raises(ValueError):
            reg.histogram("h1", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("h2", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("h3", buckets=(1.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = fresh_registry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.gauge("g", labels={"site": "1"}) is reg.gauge(
            "g", labels={"site": "1"}
        )
        assert reg.gauge("g", labels={"site": "1"}) is not reg.gauge(
            "g", labels={"site": "2"}
        )

    def test_type_conflicts_rejected(self):
        reg = fresh_registry()
        reg.counter("m")
        with pytest.raises(ValueError):
            reg.gauge("m")
        with pytest.raises(ValueError):
            reg.gauge("m", labels={"a": "b"})

    def test_snapshot_is_json_safe_and_sorted(self):
        reg = fresh_registry()
        reg.counter("z").inc()
        reg.gauge("a").set(1)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert [m["name"] for m in snap["metrics"]] == ["a", "z"]


class TestNullRegistry:
    def test_shared_noop_singletons(self):
        null = NullRegistry()
        c = null.counter("anything")
        assert c is null.gauge("other") is null.histogram("third")
        assert c is _NULL_METRIC
        # Every mutator is a no-op, never an error.
        c.inc()
        c.inc(10)
        c.dec()
        c.set(3)
        c.observe(1.5)
        assert null.snapshot() == {"metrics": []}
        assert null.metrics() == []
        assert not null.enabled

    def test_module_flag_default_off(self):
        obs.disable()
        assert not obs.is_enabled()
        assert isinstance(obs.registry(), NullRegistry)

    def test_enable_installs_fresh_registry(self):
        first = obs.enable()
        first.counter("c").inc()
        second = obs.enable()
        assert second is not first
        assert second.snapshot() == {"metrics": []}
        assert obs.enable(first) is first  # explicit registry accumulates


GOLDEN_EXPOSITION = """\
# HELP demo_events_total Events seen
# TYPE demo_events_total counter
demo_events_total 3
demo_events_total{shard="1"} 2
# HELP demo_lag_seconds Lag behind the stream head
# TYPE demo_lag_seconds gauge
demo_lag_seconds 1.5
# HELP demo_latency_seconds Request latency
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{le="0.1"} 1
demo_latency_seconds_bucket{le="1"} 2
demo_latency_seconds_bucket{le="+Inf"} 3
demo_latency_seconds_sum 3.5625
demo_latency_seconds_count 3
"""


class TestExporters:
    def make_registry(self) -> MetricsRegistry:
        reg = fresh_registry()
        reg.counter("demo_events_total", "Events seen").inc(3)
        reg.counter("demo_events_total", "Events seen", labels={"shard": "1"}).inc(2)
        reg.gauge("demo_lag_seconds", "Lag behind the stream head").set(1.5)
        h = reg.histogram(
            "demo_latency_seconds", "Request latency", buckets=(0.1, 1.0)
        )
        # Binary-exact observations keep the golden sum reproducible.
        for v in (0.0625, 0.5, 3.0):
            h.observe(v)
        return reg

    def test_prometheus_golden(self):
        assert obs.export.prometheus_text(self.make_registry()) == GOLDEN_EXPOSITION

    def test_prometheus_from_snapshot_matches_live(self):
        reg = self.make_registry()
        assert obs.export.prometheus_text(reg.snapshot()) == (
            obs.export.prometheus_text(reg)
        )

    def test_json_snapshot_roundtrip(self, tmp_path):
        reg = self.make_registry()
        path = tmp_path / "metrics.json"
        written = obs.export.write_json_snapshot(reg, path)
        loaded = obs.export.load_json_snapshot(path)
        assert loaded == written
        assert "generated_at" in loaded
        assert obs.export.prometheus_text(loaded) == GOLDEN_EXPOSITION

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            obs.export.load_json_snapshot(path)

    def test_snapshot_rows_cover_every_metric(self):
        rows = obs.export.snapshot_rows(self.make_registry())
        assert len(rows) == 4
        assert ("demo_lag_seconds", "gauge", "1.5") in rows


class TestInstrumentedLTC:
    def drive(self, cls, events, periods=4):
        config = LTCConfig(
            num_buckets=2,
            bucket_width=2,
            items_per_period=max(1, len(events) // periods),
        )
        summary = cls(config)
        run_per_event(make_stream(events, num_periods=periods), summary)
        summary.finalize()
        return summary

    def test_counters_track_the_stream(self):
        events = [i % 9 for i in range(400)]
        reg = obs.enable()
        self.drive(LTC, events)
        values = {
            m["name"]: m["value"]
            for m in reg.snapshot()["metrics"]
            if m["type"] == "counter"
        }
        assert values["ltc_inserts_total"] == len(events)
        # 9 distinct items over 4 cells: the table must have evicted and
        # decremented, and multi-period flags must have been harvested.
        assert values["ltc_significance_decrements_total"] > 0
        assert values["ltc_evictions_total"] > 0
        assert values["ltc_longtail_replacements_total"] > 0
        assert values["ltc_harvests_total"] > 0

    def test_columnar_batched_counts_match_reference(self):
        events = [i % 9 for i in range(400)]
        reg_ref = obs.enable()
        self.drive(LTC, events)
        ref = {
            m["name"]: m["value"]
            for m in reg_ref.snapshot()["metrics"]
            if m["type"] == "counter"
        }
        reg_col = obs.enable()
        config = LTCConfig(num_buckets=2, bucket_width=2, items_per_period=100)
        col = ColumnarLTC(config)
        stream = make_stream(events, num_periods=4)
        stream.run(col)
        col.finalize()
        colv = {
            m["name"]: m["value"]
            for m in reg_col.snapshot()["metrics"]
            if m["type"] == "counter"
        }
        assert colv == ref

    def test_insert_timed_counts_inserts(self):
        reg = obs.enable()
        ltc = LTC(LTCConfig(num_buckets=2, bucket_width=2, items_per_period=4))
        for t in range(10):
            ltc.insert_timed(t % 3, float(t), period_seconds=2.0)
        values = {
            m["name"]: m["value"]
            for m in reg.snapshot()["metrics"]
            if m["type"] == "counter"
        }
        assert values["ltc_inserts_total"] == 10

    def test_disabled_structures_carry_no_registry(self):
        obs.disable()
        ltc = LTC(LTCConfig(num_buckets=2, bucket_width=2, items_per_period=4))
        assert ltc._obs is None

    def test_differential_top_k_unchanged_by_metrics(self):
        """The headline guarantee: enabling observability changes no
        report — cell for cell, for both engine classes."""
        events = [(i * 7) % 31 for i in range(1_000)]
        for cls in (LTC, ColumnarLTC):
            obs.disable()
            plain = self.drive(cls, events)
            obs.enable()
            metered = self.drive(cls, events)
            assert list(plain.cells()) == list(metered.cells())
            assert plain.top_k(10) == metered.top_k(10)


class TestInstrumentedDistributed:
    def test_coordinator_metrics(self):
        from repro.distributed.coordinator import MergingCoordinator
        from repro.distributed.partition import partition_sharded
        from repro.streams.synthetic import zipf_stream

        stream = zipf_stream(
            num_events=4_000, num_distinct=300, skew=1.0, num_periods=4, seed=5
        )
        config = LTCConfig(
            num_buckets=32,
            bucket_width=8,
            items_per_period=stream.period_length,
        )
        sites = partition_sharded(stream, 3)
        reg = obs.enable()
        MergingCoordinator(config).run(sites, 20)
        metrics = {m["name"]: m for m in reg.snapshot()["metrics"]}
        assert metrics["coordinator_site_merge_seconds"]["count"] == len(sites)
        assert metrics["coordinator_merge_seconds"]["count"] == 1


class TestBatchSizeHistogram:
    """PR-4 batch paths record items-per-insert_many, labelled by class."""

    def test_helper_returns_none_when_disabled(self):
        obs.disable()
        assert obs.batch_size_histogram("SpaceSaving") is None

    def test_insert_many_lands_in_histogram(self):
        from repro.summaries.space_saving import SpaceSaving

        reg = obs.enable()
        ss = SpaceSaving(capacity=16)  # built *after* enable: captures it
        ss.insert_many([1, 2, 3, 1])
        ss.insert_many([5] * 10)
        ss.insert_many([])
        h = reg.histogram(
            "summary_insert_many_batch_size",
            buckets=obs.DEFAULT_BATCH_SIZE_BUCKETS,
            labels={"summary": "SpaceSaving"},
        )
        assert h.count == 3
        assert h.sum == 4 + 10 + 0

    def test_every_family_labels_its_own_series(self):
        from repro.experiments.configs import (
            default_algorithms_frequent,
            default_algorithms_persistent,
        )
        from repro.metrics.memory import MemoryBudget, kb
        from repro.streams.synthetic import zipf_stream

        stream = zipf_stream(
            num_events=1_000, num_distinct=200, skew=1.0, num_periods=2, seed=4
        )
        budget = MemoryBudget(kb(4))
        factories = {}
        factories.update(default_algorithms_frequent(budget, stream, 10))
        factories.update(default_algorithms_persistent(budget, stream, 10))
        reg = obs.enable()
        for factory in factories.values():
            stream.run(factory())
        labels = {
            m["labels"]["summary"]
            for m in reg.snapshot()["metrics"]
            if m["name"] == "summary_insert_many_batch_size"
        }
        # One series per instrumented class in the line-ups (their LTC is
        # the default, columnar kernel).
        assert {
            "ColumnarLTC",
            "SpaceSaving",
            "Frequent",
            "LossyCounting",
            "SketchTopK",
            "PIE",
            "SketchPersistent",
        } <= labels
        # Shared classes (the three SketchTopK/SketchPersistent variants)
        # pool into one series, so counts are a positive multiple of the
        # period count — one observation per whole-period batch.
        for m in reg.snapshot()["metrics"]:
            if m["name"] == "summary_insert_many_batch_size":
                assert m["count"] > 0
                assert m["count"] % stream.num_periods == 0

    def test_metrics_do_not_change_batched_results(self):
        """Headline guarantee extended to the batch paths: metrics-on
        batched ingestion produces bit-identical summaries."""
        from repro.summaries.lossy_counting import LossyCounting
        from repro.summaries.space_saving import SpaceSaving
        from repro.streams.synthetic import zipf_stream

        stream = zipf_stream(
            num_events=2_000, num_distinct=300, skew=1.0, num_periods=4, seed=9
        )
        for factory in (
            lambda: SpaceSaving(capacity=64),
            lambda: LossyCounting(capacity=64),
        ):
            obs.disable()
            plain = factory()
            stream.run(plain)
            obs.enable()
            metered = factory()
            stream.run(metered)
            obs.disable()
            assert plain.reported_pairs(32) == metered.reported_pairs(32)
            assert vars(plain).keys() == vars(metered).keys()


class TestInstrumentedRunner:
    def test_per_period_series_recorded_and_results_identical(self):
        from repro.experiments.runner import run_and_evaluate
        from repro.streams.synthetic import zipf_stream

        stream = zipf_stream(
            num_events=4_000, num_distinct=300, skew=1.0, num_periods=5, seed=7
        )
        config = LTCConfig(
            num_buckets=32,
            bucket_width=8,
            items_per_period=stream.period_length,
        )
        factories = {"LTC": lambda: LTC(config)}
        obs.disable()
        plain = run_and_evaluate(factories, stream, 20, 1.0, 1.0)
        reg = obs.enable()
        metered = run_and_evaluate(factories, stream, 20, 1.0, 1.0)
        assert metered == plain
        metrics = {
            (m["name"], tuple(sorted(m["labels"].items()))): m
            for m in reg.snapshot()["metrics"]
        }
        key = (("summary", "LTC"),)
        recall = metrics[("runner_period_recall", key)]
        are = metrics[("runner_period_are", key)]
        assert recall["count"] == stream.num_periods
        assert are["count"] == stream.num_periods
        # The last boundary's recall equals the final evaluated precision.
        assert metrics[("runner_last_recall", key)]["value"] == pytest.approx(
            plain[0].precision
        )
