"""LTC insertion cases (paper §III-B) on hand-constructed scenarios.

Using ``num_buckets=1`` pins every item to one bucket so each case is
fully deterministic.
"""

from __future__ import annotations

from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.metrics.memory import MemoryBudget, kb


def one_bucket_ltc(
    d=2, alpha=1.0, beta=0.0, items_per_period=1000, ltr=False, de=True
) -> LTC:
    return LTC(
        LTCConfig(
            num_buckets=1,
            bucket_width=d,
            alpha=alpha,
            beta=beta,
            items_per_period=items_per_period,
            replacement_policy="longtail" if ltr else "one",
            deviation_eliminator=de,
        )
    )


class TestCase1Hit:
    def test_hit_increments_frequency(self):
        ltc = one_bucket_ltc()
        ltc.insert(1)
        ltc.insert(1)
        ltc.insert(1)
        assert ltc.estimate(1) == (3, 0)

    def test_hit_sets_flag(self):
        ltc = one_bucket_ltc()
        ltc.insert(1)
        cell = next(c for c in ltc.cells() if c.key == 1)
        assert cell.flag_even  # period 0 parity

    def test_query_significance(self):
        ltc = one_bucket_ltc(alpha=2.0, beta=3.0)
        ltc.insert(1)
        ltc.insert(1)
        assert ltc.query(1) == 2.0 * 2  # persistency still 0 mid-period


class TestCase2Empty:
    def test_new_item_takes_free_cell(self):
        ltc = one_bucket_ltc(d=3)
        ltc.insert(1)
        ltc.insert(2)
        ltc.insert(3)
        assert len(ltc) == 3
        assert ltc.estimate(2) == (1, 0)

    def test_initial_values(self):
        ltc = one_bucket_ltc()
        ltc.insert(9)
        cell = next(c for c in ltc.cells() if c.key == 9)
        assert cell.frequency == 1
        assert cell.persistency == 0


class TestCase3FullBucket:
    def test_decrement_without_expulsion_drops_newcomer(self):
        ltc = one_bucket_ltc(d=2)
        for _ in range(3):
            ltc.insert(1)
        for _ in range(2):
            ltc.insert(2)
        ltc.insert(3)  # decrements item 2 (2→1); 3 is dropped
        assert ltc.estimate(3) == (0, 0)
        assert ltc.estimate(2) == (1, 0)
        assert ltc.estimate(1) == (3, 0)

    def test_expulsion_after_enough_decrements(self):
        ltc = one_bucket_ltc(d=2)
        for _ in range(3):
            ltc.insert(1)
        ltc.insert(2)  # f2 = 1
        ltc.insert(3)  # decrement f2 → 0, expel, insert 3 with f=1
        assert ltc.estimate(2) == (0, 0)
        assert ltc.estimate(3) == (1, 0)

    def test_smallest_by_significance_not_frequency(self):
        """With β > 0 the victim is the smallest α·f + β·p cell."""
        ltc = one_bucket_ltc(d=2, alpha=1.0, beta=10.0, items_per_period=2)
        # Period 0: item 1 twice (f=2), item 2 absent.
        ltc.insert(1)
        ltc.insert(1)
        ltc.end_period()
        # Period 1: item 2 once (f=1); item 1's flag harvests → p=1.
        ltc.insert(2)
        ltc.end_period()
        # sig(1) = 2 + 10·1 = 12 ; sig(2) = 1 + 10·p2.
        f1, p1 = ltc.estimate(1)
        assert (f1, p1) == (2, 1)
        # Newcomer decrements item 2 (smaller significance), not item 1.
        ltc.insert(3)
        assert ltc.estimate(1) == (2, 1)

    def test_persistency_floor_at_zero(self):
        ltc = one_bucket_ltc(d=1, alpha=1.0, beta=1.0)
        for _ in range(5):
            ltc.insert(1)  # f=5, p=0
        for _ in range(3):
            ltc.insert(2)  # three decrements: f 5→2, p stays 0
        f, p = ltc.estimate(1)
        assert (f, p) == (2, 0)

    def test_expelled_cell_reset(self):
        ltc = one_bucket_ltc(d=1)
        ltc.insert(1)
        ltc.insert(2)  # decrement f1 → 0 → expel → insert 2
        cell = next(ltc.cells())
        assert cell.key == 2
        assert cell.frequency == 1
        assert cell.persistency == 0
        assert cell.flag_even and not cell.flag_odd


class TestQueries:
    def test_query_absent_item(self):
        ltc = one_bucket_ltc()
        assert ltc.query(77) == 0.0
        assert ltc.estimate(77) == (0, 0)

    def test_top_k_sorted(self):
        ltc = one_bucket_ltc(d=4)
        for item, count in [(1, 5), (2, 2), (3, 9)]:
            for _ in range(count):
                ltc.insert(item)
        top = ltc.top_k(3)
        assert [r.item for r in top] == [3, 1, 2]
        assert top[0].significance == 9.0

    def test_top_k_limits(self):
        ltc = one_bucket_ltc(d=4)
        ltc.insert(1)
        ltc.insert(2)
        assert len(ltc.top_k(10)) == 2

    def test_len_and_load_factor(self):
        ltc = one_bucket_ltc(d=4)
        assert len(ltc) == 0
        ltc.insert(1)
        ltc.insert(2)
        assert len(ltc) == 2
        assert ltc.load_factor() == 0.5
        assert ltc.total_cells == 4


class TestFromMemory:
    def test_sizing(self):
        ltc = LTC.from_memory(MemoryBudget(kb(12)), items_per_period=100)
        assert ltc.total_cells == (1024 // 8) * 8

    def test_options_forwarded(self):
        ltc = LTC.from_memory(
            MemoryBudget(kb(12)),
            items_per_period=100,
            replacement_policy="one",
        )
        assert ltc.config.replacement_policy == "one"


class TestSpaceSavingPolicy:
    def test_replaces_min_and_overestimates(self):
        """The §I-C strawman: a miss on a full bucket immediately replaces
        the minimum and inherits its count + 1."""
        ltc = LTC(
            LTCConfig(
                num_buckets=1,
                bucket_width=2,
                alpha=1.0,
                beta=0.0,
                items_per_period=1000,
                replacement_policy="space-saving",
            )
        )
        for _ in range(5):
            ltc.insert(1)
        for _ in range(3):
            ltc.insert(2)
        ltc.insert(9)  # replaces item 2 (count 3) → count 4 for a 1-count item
        assert ltc.estimate(2) == (0, 0)
        assert ltc.estimate(9)[0] == 4

    def test_no_decrement_under_space_saving(self):
        ltc = LTC(
            LTCConfig(
                num_buckets=1,
                bucket_width=2,
                alpha=1.0,
                beta=0.0,
                items_per_period=1000,
                replacement_policy="space-saving",
            )
        )
        for _ in range(5):
            ltc.insert(1)
        ltc.insert(2)
        ltc.insert(9)  # replaces item 2 (the min), item 1 untouched
        assert ltc.estimate(1)[0] == 5


class TestContainerAPI:
    def test_contains_and_items(self):
        ltc = one_bucket_ltc(d=4)
        ltc.insert(1)
        ltc.insert(2)
        assert 1 in ltc and 2 in ltc
        assert 3 not in ltc
        assert sorted(ltc.items()) == [1, 2]

    def test_clear(self):
        ltc = one_bucket_ltc(d=4)
        for item in (1, 1, 2):
            ltc.insert(item)
        ltc.end_period()
        ltc.clear()
        assert len(ltc) == 0
        assert 1 not in ltc
        # And the structure works again after clearing.
        ltc.insert(9)
        assert ltc.estimate(9) == (1, 0)

    def test_clear_resets_clock_and_parity(self):
        ltc = one_bucket_ltc(d=2, items_per_period=2)
        ltc.insert(1)
        ltc.insert(1)
        ltc.end_period()
        ltc.clear()
        # Re-run the same two-period pattern from scratch.
        for _ in range(2):
            ltc.insert(1)
            ltc.insert(1)
            ltc.end_period()
        ltc.finalize()
        assert ltc.estimate(1) == (4, 2)


class TestCellView:
    def test_significance_helper(self):
        from repro.core.cell import CellView

        cell = CellView(
            bucket=0, slot=1, key=5, frequency=4, persistency=2,
            flag_even=False, flag_odd=True,
        )
        assert cell.significance(1.0, 10.0) == 24.0
        assert not cell.empty

    def test_empty_cell(self):
        from repro.core.cell import CellView

        cell = CellView(
            bucket=0, slot=0, key=None, frequency=0, persistency=0,
            flag_even=False, flag_odd=False,
        )
        assert cell.empty
        assert cell.significance(1.0, 1.0) == 0.0

    def test_cells_report_bucket_and_slot(self):
        ltc = one_bucket_ltc(d=3)
        ltc.insert(1)
        views = list(ltc.cells())
        assert [(c.bucket, c.slot) for c in views] == [(0, 0), (0, 1), (0, 2)]
