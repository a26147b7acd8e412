"""Space-Saving adapted to persistent items (related-work adaptation).

The paper adapts sketch-based algorithms to persistency with a per-period
Bloom filter (§II-B).  The same adaptation applies to counter-based
algorithms: feed Space-Saving only the *period-first* appearance of each
item, so its counters estimate persistency instead of frequency.  This is
the natural counter-based member of the persistent line-up and inherits
Space-Saving's guarantees over the deduplicated stream: estimates never
undercount a monitored item's persistency by more than the filter's false
positives, and never overcount by more than P/m (P = Σ persistencies).
"""

from __future__ import annotations

from typing import Iterable, List

from repro import obs
from repro.membership.bloom import BloomFilter
from repro.metrics.memory import MemoryBudget
from repro.summaries.base import ItemReport, StreamSummary
from repro.summaries.space_saving import SpaceSaving


class SpaceSavingPersistent(StreamSummary):
    """Top-k persistent items via per-period BF dedup + Space-Saving.

    Args:
        capacity: Monitored-item count of the inner Space-Saving.
        bloom: Per-period dedup filter, cleared at each boundary.
    """

    def __init__(self, capacity: int, bloom: BloomFilter) -> None:
        self._ss = SpaceSaving(capacity)
        self.bloom = bloom
        self._m_batch = obs.batch_size_histogram(type(self).__name__)

    @classmethod
    def from_memory(
        cls,
        budget: MemoryBudget,
        expected_per_period: int | None = None,
        seed: int = 0x55BF,
    ) -> "SpaceSavingPersistent":
        """Paper-style sizing: half the budget to the Bloom filter, half
        to the Space-Saving counters."""
        bloom_budget, ss_budget = budget.halves()
        bloom = BloomFilter.from_memory(
            bloom_budget, expected_items=expected_per_period, seed=seed
        )
        return cls(capacity=ss_budget.counter_cells(), bloom=bloom)

    def insert(self, item: int) -> None:
        """Process one arrival; only period-first appearances count."""
        if self.bloom.insert_if_absent(item):
            self._ss.insert(item)

    def insert_many(self, items: Iterable[int]) -> None:
        """Batched arrivals, replay-identical to per-event :meth:`insert`.

        The Bloom filter's batch probe returns each arrival's
        absent/present verdict in stream order; the period-first
        survivors then feed Space-Saving's own batch path.  The two
        structures share no state, so splitting the interleaved per-event
        sequence into two passes is exact.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if self._m_batch is not None:
            self._m_batch.observe(len(items))
        absent = self.bloom.insert_if_absent_many(items)
        self._ss.insert_many(
            [item for item, fresh in zip(items, absent) if fresh]
        )

    def end_period(self) -> None:
        """Clear the dedup filter at the period boundary."""
        self.bloom.clear()

    def query(self, item: int) -> float:
        """Estimated persistency of ``item``."""
        return self._ss.query(item)

    def top_k(self, k: int) -> List[ItemReport]:
        """Report up to the k most persistent monitored items."""
        return [
            ItemReport(
                item=r.item,
                significance=r.significance,
                persistency=r.significance,
            )
            for r in self._ss.top_k(k)
        ]

    def __len__(self) -> int:
        return len(self._ss)
