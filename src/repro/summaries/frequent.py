"""Frequent / Misra–Gries (1982) — paper baseline "Frequent".

Keeps at most ``capacity`` counters.  A miss on a full table decrements
*every* counter and evicts the zeros — the classic deterministic heavy-
hitter guarantee ``f̂ ≥ f − N/(capacity+1)``.  Although the decrement-all
touches every counter, each unit removed was added by exactly one earlier
insertion, so the amortised cost per arrival is O(1).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List

from repro import obs
from repro.metrics.memory import MemoryBudget
from repro.summaries.base import ItemReport, StreamSummary


class Frequent(StreamSummary):
    """Misra–Gries summary over at most ``capacity`` counters."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._counters: Dict[int, int] = {}  # item -> estimate (no offset)
        self.decrements = 0  # total global decrements (for the MG bound)
        self._m_batch = obs.batch_size_histogram(type(self).__name__)

    @classmethod
    def from_memory(cls, budget: MemoryBudget) -> "Frequent":
        """Size the summary for a byte budget (8 bytes per cell)."""
        return cls(capacity=budget.counter_cells())

    def insert(self, item: int) -> None:
        """Process one arrival of ``item``."""
        counters = self._counters
        if item in counters:
            counters[item] += 1
            return
        if len(counters) < self.capacity:
            counters[item] = 1
            return
        # Decrement-all; purge zeros.  Amortised O(1): each unit of count
        # removed here was added by exactly one earlier insertion.
        self.decrements += 1
        dead = []
        for key in counters:
            counters[key] -= 1
            if counters[key] == 0:
                dead.append(key)
        for key in dead:
            del counters[key]

    def insert_many(self, items: Iterable[int]) -> None:
        """Batched arrivals, replay-identical to per-event :meth:`insert`.

        While the table has never overflowed (``decrements == 0``), the
        whole batch folds into one :class:`collections.Counter`, applied
        only if the batch's newcomers fit the free counters: then no
        decrement round can trigger, hits and adds commute, and the
        Counter's first-occurrence order is the dict order a per-event
        replay produces.  Otherwise the batch goes through :meth:`insert`
        one event at a time.  Once a decrement round has run, the table
        sits full on churny streams and a fold would rarely fit.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if self._m_batch is not None:
            self._m_batch.observe(len(items))
        counters = self._counters
        if self.decrements == 0:
            folded = Counter(items)
            hits = [key for key in folded if key in counters]
            if len(folded) - len(hits) <= self.capacity - len(counters):
                for key in hits:
                    folded[key] += counters[key]
                # Hits keep their place; newcomers follow in arrival order.
                counters.update(folded)
                return
        insert = self.insert
        for item in items:
            insert(item)

    def query(self, item: int) -> float:
        """Estimate the summary's ranking quantity for ``item``."""
        return float(self._counters.get(item, 0))

    def top_k(self, k: int) -> List[ItemReport]:
        """Report up to the k items with the largest estimates."""
        ranked = sorted(self._counters.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            ItemReport(item=item, significance=float(c), frequency=float(c))
            for item, c in ranked[:k]
        ]

    def __len__(self) -> int:
        return len(self._counters)
