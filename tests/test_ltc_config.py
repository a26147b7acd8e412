"""LTCConfig validation and sizing."""

from __future__ import annotations

import pytest

from repro.core.config import LTCConfig
from repro.metrics.memory import MemoryBudget, kb


class TestValidation:
    def test_defaults(self):
        config = LTCConfig(num_buckets=10, items_per_period=100)
        assert config.bucket_width == 8
        assert config.deviation_eliminator
        assert config.replacement_policy == "longtail"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_buckets=0, items_per_period=1),
            dict(num_buckets=1, bucket_width=0, items_per_period=1),
            dict(num_buckets=1, alpha=-1.0, items_per_period=1),
            dict(num_buckets=1, beta=-0.5, items_per_period=1),
            dict(num_buckets=1, alpha=0.0, beta=0.0, items_per_period=1),
            dict(num_buckets=1, items_per_period=0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            LTCConfig(**kwargs)

    def test_total_cells(self):
        config = LTCConfig(num_buckets=10, bucket_width=4, items_per_period=1)
        assert config.total_cells == 40

    def test_from_memory(self):
        config = LTCConfig.from_memory(
            MemoryBudget(kb(12)), items_per_period=100, bucket_width=8
        )
        assert config.num_buckets == 1024 // 8
        assert config.total_cells <= kb(12) // 12

    def test_with_options(self):
        config = LTCConfig(num_buckets=10, items_per_period=1)
        basic = config.with_options(
            deviation_eliminator=False, replacement_policy="one"
        )
        assert not basic.deviation_eliminator
        assert basic.replacement_policy == "one"
        assert basic.num_buckets == 10
        assert config.deviation_eliminator  # original untouched


class TestReplacementPolicy:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            LTCConfig(num_buckets=1, items_per_period=1, replacement_policy="x")

    def test_rejects_none(self):
        """One field names the policy; there is no unset value to resolve."""
        with pytest.raises(ValueError):
            LTCConfig(num_buckets=1, items_per_period=1, replacement_policy=None)
