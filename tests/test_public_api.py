"""Public API surface: exports resolve, docstrings exist, version sane."""

from __future__ import annotations

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.summaries",
    "repro.sketches",
    "repro.membership",
    "repro.codes",
    "repro.persistent",
    "repro.combined",
    "repro.streams",
    "repro.metrics",
    "repro.analysis",
    "repro.experiments",
    "repro.hashing",
    "repro.obs",
    "repro.serve",
]


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_fast_ltc_removed(self):
        """FastLTC was folded into the columnar kernel, with no alias."""
        assert not hasattr(repro, "FastLTC")
        assert "FastLTC" not in repro.core.__all__
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.fast_ltc")
        with pytest.raises(ValueError):
            repro.LTCConfig(num_buckets=2, kernel="fast")

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert getattr(module, name, None) is not None, (
                f"{module_name}.{name}"
            )

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_headline_classes_documented(self):
        for cls in (
            repro.LTC,
            repro.WindowedLTC,
            repro.SpaceSaving,
            repro.PIE,
            repro.CountMinSketch,
            repro.BloomFilter,
        ):
            assert cls.__doc__
            for method_name in ("insert", "top_k", "query"):
                method = getattr(cls, method_name, None)
                if method is not None:
                    assert method.__doc__ or method_name in (
                        "insert",
                    ), f"{cls.__name__}.{method_name}"


class TestSummaryProtocolConformance:
    """Every advertised summary drives through PeriodicStream.run."""

    def test_all_summaries_runnable(self):
        from repro import (
            LTC,
            LTCConfig,
            CountMinSketch,
            Frequent,
            LossyCounting,
            PIE,
            SketchPersistent,
            SketchTopK,
            SpaceSaving,
            TwoStructureSignificant,
            WindowedLTC,
            BloomFilter,
        )
        from repro.persistent.small_space import SmallSpacePersistent
        from tests.conftest import make_stream

        stream = make_stream([1, 2, 1, 3, 1, 2] * 5, num_periods=3)
        summaries = [
            LTC(LTCConfig(num_buckets=2, items_per_period=stream.period_length)),
            WindowedLTC(num_buckets=2, window=3),
            SpaceSaving(8),
            LossyCounting(8),
            Frequent(8),
            SketchTopK(CountMinSketch(64), 5),
            PIE(cells_per_period=128),
            SketchPersistent(CountMinSketch(64), BloomFilter(256), 5),
            SmallSpacePersistent(capacity=16, sample_rate=1.0),
            TwoStructureSignificant(
                CountMinSketch(64), CountMinSketch(64), BloomFilter(256), 5, 1, 1
            ),
        ]
        for summary in summaries:
            stream.run(summary)
            top = summary.top_k(3)
            assert len(top) <= 3
            for report in top:
                assert summary.query(report.item) is not None
