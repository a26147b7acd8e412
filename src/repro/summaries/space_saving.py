"""Space-Saving (Metwally, Agrawal, El Abbadi 2005) — paper baseline "SS".

Monitors ``capacity`` items.  A hit increments the item's counter; a miss
when full *replaces* the minimum item and sets the newcomer's counter to
``min + 1`` (the overestimation the paper's Long-tail Replacement is
designed to avoid).  Uses the genuine Stream-Summary structure for O(1)
amortised updates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro import obs, sanitize
from repro.metrics.memory import MemoryBudget
from repro.summaries.base import ItemReport, StreamSummary
from repro.summaries.stream_summary import StreamSummaryList


class SpaceSaving(StreamSummary):
    """Classic Space-Saving top-k frequent-items summary.

    Args:
        capacity: Number of monitored counters (the paper derives this from
            the memory budget; see :meth:`from_memory`).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._summary = StreamSummaryList()
        self._m_batch = obs.batch_size_histogram(type(self).__name__)
        if sanitize.env_enabled():
            sanitize.install_space_saving(self)

    @classmethod
    def from_memory(cls, budget: MemoryBudget) -> "SpaceSaving":
        """Size the summary for a byte budget (8 bytes per cell)."""
        return cls(capacity=budget.counter_cells())

    def insert(self, item: int) -> None:
        """Process one arrival of ``item``."""
        summary = self._summary
        if item in summary:
            summary.increment(item)
        elif len(summary) < self.capacity:
            summary.add(item, count=1, error=0)
        else:
            summary.replace_min(item)

    def insert_many(self, items: Iterable[int]) -> None:
        """Batched arrivals, replay-identical to per-event :meth:`insert`.

        While a counter is free, the batch's leading hits and first
        appearances fold to per-item multiplicities and one
        :meth:`StreamSummaryList.apply_run` pass: membership only grows
        there, so order matters only for bucket order, which ``apply_run``
        rebuilds from each item's last occurrence.  From the first miss on
        a full table the rest goes through :meth:`insert` one event at a
        time.  Space-Saving never frees a counter, so once the table is
        full every later batch takes that loop: on churny streams a fold
        would end at the first miss and cost more than it saves.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if self._m_batch is not None:
            self._m_batch.observe(len(items))
        summary = self._summary
        nodes = summary._nodes
        free = self.capacity - len(nodes)
        i = 0
        if free > 0:
            mult: Dict[int, int] = {}
            last: Dict[int, int] = {}
            for item in items:
                if item in mult:
                    mult[item] += 1
                elif item in nodes:
                    mult[item] = 1
                elif free > 0:
                    mult[item] = 1
                    free -= 1
                else:
                    break
                last[item] = i
                i += 1
            if mult:
                summary.apply_run(mult, last)
        insert = self.insert
        for item in items[i:]:
            insert(item)

    def query(self, item: int) -> float:
        """Estimate the summary's ranking quantity for ``item``."""
        return float(self._summary.count_of(item))

    def guaranteed_count(self, item: int) -> int:
        """Lower bound on the true frequency (count − error)."""
        return self._summary.count_of(item) - self._summary.error_of(item)

    def top_k(self, k: int) -> List[ItemReport]:
        """Report up to the k items with the largest estimates."""
        return [
            ItemReport(item=item, significance=float(c), frequency=float(c))
            for item, c in self._summary.top(k)
        ]

    def __len__(self) -> int:
        return len(self._summary)
