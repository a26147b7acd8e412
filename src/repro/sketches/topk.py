"""Sketch + min-heap top-k frequent items (the paper's sketch baselines).

"To report top-k frequent items, it needs to maintain a min-heap to record
and update top-k frequent items" (§II-A).  On every arrival the sketch is
updated, the fresh estimate is read back, and the heap is offered the
``(item, estimate)`` pair.

Both ingest paths skip the heap offer when it is provably a no-op: a full
heap ignores an untracked item whose estimate does not beat the current
floor (``TopKHeap.offer`` falls through its final ``value > min`` branch).
On Zipfian streams the overwhelming majority of arrivals are exactly such
tail items, so the skip removes most heap traffic without changing any
report — regression-tested against the always-offer replay.
"""

from __future__ import annotations

from typing import Any, Iterable, List

from repro import obs
from repro.metrics.memory import MemoryBudget
from repro.summaries.base import ItemReport, StreamSummary
from repro.summaries.heap import TopKHeap


class SketchTopK(StreamSummary):
    """Top-k frequent items via any point-query sketch plus a heap.

    Args:
        sketch: Object with ``update_and_query(key) -> int`` and
            ``query(key) -> int`` (CM, CU or Count sketch).
        k: Heap capacity — the number of items reported.
    """

    def __init__(self, sketch: Any, k: int) -> None:
        self.sketch = sketch
        self.heap = TopKHeap(k)
        self._m_batch = obs.batch_size_histogram(type(self).__name__)

    @classmethod
    def from_memory(
        cls, sketch_cls: Any, budget: MemoryBudget, k: int, rows: int = 3, seed: int = 0x5EED
    ) -> "SketchTopK":
        """Paper sizing: heap of k entries, remaining bytes to the sketch."""
        sketch = sketch_cls.from_memory(budget, rows=rows, heap_k=k, seed=seed)
        return cls(sketch, k)

    def insert(self, item: int) -> None:
        """Process one arrival of ``item``."""
        estimate = float(self.sketch.update_and_query(item))
        heap = self.heap
        values = heap._values
        if (
            len(values) == heap.capacity
            and estimate <= values[0]
            and item not in heap._pos
        ):
            return  # provable no-op: full heap, untracked item below the floor
        heap.offer(item, estimate)

    def insert_many(self, items: Iterable[int]) -> None:
        """Batched arrivals, replay-identical to per-event :meth:`insert`.

        The sketch's ``update_and_query_many`` commits the whole batch and
        returns every per-event fresh estimate, so only the heap replay —
        with the same no-op skip as :meth:`insert` — stays a Python loop.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if self._m_batch is not None:
            self._m_batch.observe(len(items))
        batch_query = getattr(self.sketch, "update_and_query_many", None)
        if batch_query is None:
            insert = self.insert
            for item in items:
                insert(item)
            return
        estimates = batch_query(items)
        if hasattr(estimates, "astype"):
            estimates = estimates.astype(float).tolist()
        heap = self.heap
        offer = heap.offer
        values = heap._values
        pos = heap._pos
        capacity = heap.capacity
        for item, estimate in zip(items, estimates):
            estimate = float(estimate)
            if (
                len(values) == capacity
                and estimate <= values[0]
                and item not in pos
            ):
                continue
            offer(item, estimate)

    def query(self, item: int) -> float:
        """Estimate the summary's ranking quantity for ``item``."""
        return float(self.sketch.query(item))

    def top_k(self, k: int) -> List[ItemReport]:
        """Report up to the k items with the largest estimates."""
        return [
            ItemReport(item=item, significance=value, frequency=value)
            for item, value in self.heap.best(k)
        ]
