"""Experiment configuration builders (§V-C setup rules)."""

from __future__ import annotations

import pytest

from repro.combined.two_structure import TwoStructureSignificant
from repro.core.columnar import ColumnarLTC
from repro.core.ltc import LTC
from repro.experiments.configs import (
    default_algorithms_frequent,
    default_algorithms_persistent,
    default_algorithms_significant,
    ltc_factory,
    make_dataset,
)
from repro.metrics.memory import MemoryBudget, kb
from repro.persistent.pie import PIE
from repro.persistent.sketch_persistent import SketchPersistent
from repro.streams.synthetic import zipf_stream


@pytest.fixture(scope="module")
def tiny_stream():
    return zipf_stream(2_000, 400, 1.0, num_periods=4, seed=2)


class TestLineUps:
    def test_frequent_lineup_members(self, tiny_stream):
        factories = default_algorithms_frequent(
            MemoryBudget(kb(4)), tiny_stream, 10
        )
        assert set(factories) == {"LTC", "SS", "LC", "Freq", "CM", "CU", "Count"}
        ltc = factories["LTC"]()
        assert isinstance(ltc, LTC)
        assert ltc.config.alpha == 1.0 and ltc.config.beta == 0.0

    def test_persistent_lineup_members(self, tiny_stream):
        factories = default_algorithms_persistent(
            MemoryBudget(kb(4)), tiny_stream, 10
        )
        assert set(factories) == {"LTC", "PIE", "CM+BF", "CU+BF", "Count+BF"}
        ltc = factories["LTC"]()
        assert ltc.config.alpha == 0.0 and ltc.config.beta == 1.0
        assert isinstance(factories["PIE"](), PIE)
        assert isinstance(factories["CM+BF"](), SketchPersistent)

    def test_pie_gets_budget_per_period(self, tiny_stream):
        """§V-C: PIE's per-period filter is sized from the *full* default
        budget (T× total memory)."""
        budget = MemoryBudget(kb(4))
        pie = default_algorithms_persistent(budget, tiny_stream, 10)["PIE"]()
        assert pie.cells_per_period == budget.stbf_cells()

    def test_significant_lineup(self, tiny_stream):
        factories = default_algorithms_significant(
            MemoryBudget(kb(4)), tiny_stream, 10, alpha=2.0, beta=3.0
        )
        assert set(factories) == {"LTC", "CU+CU", "CM+CM"}
        combined = factories["CU+CU"]()
        assert isinstance(combined, TwoStructureSignificant)
        assert combined.alpha == 2.0 and combined.beta == 3.0

    def test_lineups_build_the_columnar_kernel(self, tiny_stream):
        budget = MemoryBudget(kb(4))
        for factories in (
            default_algorithms_frequent(budget, tiny_stream, 10),
            default_algorithms_persistent(budget, tiny_stream, 10),
            default_algorithms_significant(budget, tiny_stream, 10, 1.0, 1.0),
        ):
            assert type(factories["LTC"]()) is ColumnarLTC

    def test_factories_build_fresh_instances(self, tiny_stream):
        factory = default_algorithms_frequent(
            MemoryBudget(kb(4)), tiny_stream, 10
        )["LTC"]
        assert factory() is not factory()


class TestLTCFactory:
    def test_period_length_from_stream(self, tiny_stream):
        ltc = ltc_factory(MemoryBudget(kb(4)), tiny_stream, 1.0, 1.0)()
        assert ltc.config.items_per_period == tiny_stream.period_length

    def test_builds_columnar_unless_reference_is_asked_for(self, tiny_stream):
        budget = MemoryBudget(kb(4))
        assert type(ltc_factory(budget, tiny_stream, 1.0, 1.0)()) is ColumnarLTC
        reference = ltc_factory(budget, tiny_stream, 1.0, 1.0, kernel="reference")
        assert type(reference()) is LTC

    def test_options_forwarded(self, tiny_stream):
        ltc = ltc_factory(
            MemoryBudget(kb(4)),
            tiny_stream,
            1.0,
            1.0,
            deviation_eliminator=False,
        )()
        assert not ltc.config.deviation_eliminator


class TestMakeDataset:
    def test_default_builds_cached(self):
        a = make_dataset("social")
        b = make_dataset("social")
        assert a is b

    def test_parameterised_builds_not_cached(self):
        a = make_dataset("social", num_events=1_000, num_distinct=200, num_periods=2)
        b = make_dataset("social", num_events=1_000, num_distinct=200, num_periods=2)
        assert a is not b
        assert a.events == b.events  # still deterministic

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            make_dataset("bogus")
