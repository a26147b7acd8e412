"""Sketch-based persistent-items adaptation (paper §II-B).

"The thorniest problem is that some items might appear more than once in
one period … we maintain a standard Bloom filter to record whether it has
appeared in the current period.  We also need to maintain a min-heap to
assist in finding top-k persistent items."

Memory split (paper §V-C): half the budget to the Bloom filter, the rest
to sketch + heap.
"""

from __future__ import annotations

from typing import Any, Iterable, List

from repro import obs
from repro.membership.bloom import BloomFilter
from repro.metrics.memory import MemoryBudget
from repro.summaries.base import ItemReport, StreamSummary
from repro.summaries.heap import TopKHeap


class SketchPersistent(StreamSummary):
    """Top-k persistent items via per-period BF dedup + sketch + heap.

    Args:
        sketch: Any point-query sketch (CM, CU or Count sketch); it counts
            *period-first appearances*, i.e. persistency.
        bloom: Per-period dedup filter; cleared at every boundary.
        k: Heap capacity.
    """

    def __init__(self, sketch: Any, bloom: BloomFilter, k: int) -> None:
        self.sketch = sketch
        self.bloom = bloom
        self.heap = TopKHeap(k)
        self._m_batch = obs.batch_size_histogram(type(self).__name__)

    @classmethod
    def from_memory(
        cls,
        sketch_cls: Any,
        budget: MemoryBudget,
        k: int,
        rows: int = 3,
        expected_per_period: int | None = None,
        seed: int = 0x5EED,
    ) -> "SketchPersistent":
        """Paper sizing: 50% Bloom filter, 50% sketch + heap."""
        bloom_budget, sketch_budget = budget.halves()
        bloom = BloomFilter.from_memory(
            bloom_budget, expected_items=expected_per_period, seed=seed ^ 0xBF
        )
        sketch = sketch_cls.from_memory(sketch_budget, rows=rows, heap_k=k, seed=seed)
        return cls(sketch, bloom, k)

    def insert(self, item: int) -> None:
        """Process one arrival of ``item``."""
        if self.bloom.insert_if_absent(item):
            estimate = float(self.sketch.update_and_query(item))
            heap = self.heap
            values = heap._values
            if (
                len(values) == heap.capacity
                and estimate <= values[0]
                and item not in heap._pos
            ):
                return  # provable no-op: full heap, untracked item below floor
            heap.offer(item, estimate)

    def insert_many(self, items: Iterable[int]) -> None:
        """Batched arrivals, replay-identical to per-event :meth:`insert`.

        Period-first survivors of the Bloom filter's batch probe feed the
        sketch's ``update_and_query_many`` (when available), and the heap
        replays the per-event estimates with the same no-op skip as
        :class:`repro.sketches.topk.SketchTopK`.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if self._m_batch is not None:
            self._m_batch.observe(len(items))
        absent = self.bloom.insert_if_absent_many(items)
        survivors = [item for item, fresh in zip(items, absent) if fresh]
        if not survivors:
            return
        batch_query = getattr(self.sketch, "update_and_query_many", None)
        if batch_query is not None:
            estimates = batch_query(survivors)
            if hasattr(estimates, "astype"):
                estimates = estimates.astype(float).tolist()
        else:
            update_and_query = self.sketch.update_and_query
            estimates = [update_and_query(item) for item in survivors]
        heap = self.heap
        offer = heap.offer
        values = heap._values
        pos = heap._pos
        capacity = heap.capacity
        for item, estimate in zip(survivors, estimates):
            estimate = float(estimate)
            if (
                len(values) == capacity
                and estimate <= values[0]
                and item not in pos
            ):
                continue
            offer(item, estimate)

    def end_period(self) -> None:
        """React to a period boundary."""
        self.bloom.clear()

    def query(self, item: int) -> float:
        """Estimated persistency of ``item``."""
        return float(self.sketch.query(item))

    def top_k(self, k: int) -> List[ItemReport]:
        """Report up to the k items with the largest estimates."""
        return [
            ItemReport(item=item, significance=value, persistency=value)
            for item, value in self.heap.best(k)
        ]
