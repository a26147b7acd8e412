"""Two-structure significant-items baseline.

Paper §V-H: "for each algorithm we maintain two sketches: one for finding
frequent items, and the other for finding persistent items, and we
allocate the whole memory to them evenly."  A shared k-entry min-heap
ranks items by the combined estimate ``α·f̂ + β·p̂``.
"""

from __future__ import annotations

from typing import List

from repro import obs
from repro.membership.bloom import BloomFilter
from repro.metrics.memory import MemoryBudget
from repro.summaries.base import ItemReport, StreamSummary
from repro.summaries.heap import TopKHeap


class TwoStructureSignificant(StreamSummary):
    """Significance ranking from separate frequency and persistency sketches.

    Args:
        freq_sketch: Point-query sketch counting every arrival.
        pers_sketch: Point-query sketch counting period-first appearances.
        bloom: Per-period dedup filter for the persistency side.
        k: Heap capacity.
        alpha: Frequency weight.
        beta: Persistency weight.
    """

    def __init__(
        self,
        freq_sketch,
        pers_sketch,
        bloom: BloomFilter,
        k: int,
        alpha: float,
        beta: float,
    ):
        self.freq_sketch = freq_sketch
        self.pers_sketch = pers_sketch
        self.bloom = bloom
        self.heap = TopKHeap(k)
        self.alpha = alpha
        self.beta = beta
        self._m_batch = obs.batch_size_histogram(type(self).__name__)

    @classmethod
    def from_memory(
        cls,
        sketch_cls,
        budget: MemoryBudget,
        k: int,
        alpha: float,
        beta: float,
        rows: int = 3,
        seed: int = 0x5EED,
    ) -> "TwoStructureSignificant":
        """Paper sizing: even split; the persistent half is itself split
        between its Bloom filter and its sketch (§V-C)."""
        freq_budget, pers_budget = budget.halves()
        bloom_budget, pers_sketch_budget = pers_budget.halves()
        freq_sketch = sketch_cls.from_memory(
            freq_budget, rows=rows, heap_k=k, seed=seed
        )
        pers_sketch = sketch_cls.from_memory(
            pers_sketch_budget, rows=rows, heap_k=0, seed=seed ^ 0x9E
        )
        bloom = BloomFilter.from_memory(bloom_budget, seed=seed ^ 0xBF)
        return cls(freq_sketch, pers_sketch, bloom, k, alpha, beta)

    def insert(self, item: int) -> None:
        """Process one arrival of ``item``."""
        f_est = self.freq_sketch.update_and_query(item)
        if self.bloom.insert_if_absent(item):
            p_est = self.pers_sketch.update_and_query(item)
        else:
            p_est = self.pers_sketch.query(item)
        self.heap.offer(item, self.alpha * f_est + self.beta * p_est)

    def insert_many(self, items) -> None:
        """Batched arrivals, replay-identical to per-event :meth:`insert`.

        The frequency sketch sees every arrival, so its per-event
        estimates come from ``update_and_query_many`` in one pass; the
        Bloom verdicts likewise.  The persistency side stays a stream-
        order loop because conservative updates and queries of duplicate
        arrivals interleave with other items' updates — only the heap
        offer gains the provable no-op skip.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if self._m_batch is not None:
            self._m_batch.observe(len(items))
        batch_query = getattr(self.freq_sketch, "update_and_query_many", None)
        if batch_query is not None:
            f_ests = batch_query(items)
            if hasattr(f_ests, "tolist"):
                f_ests = f_ests.tolist()
        else:
            update_and_query = self.freq_sketch.update_and_query
            f_ests = [update_and_query(item) for item in items]
        absent = self.bloom.insert_if_absent_many(items)
        pers_update = self.pers_sketch.update_and_query
        pers_query = self.pers_sketch.query
        alpha = self.alpha
        beta = self.beta
        heap = self.heap
        offer = heap.offer
        values = heap._values
        pos = heap._pos
        capacity = heap.capacity
        for item, f_est, fresh in zip(items, f_ests, absent):
            p_est = pers_update(item) if fresh else pers_query(item)
            value = alpha * f_est + beta * p_est
            if (
                len(values) == capacity
                and value <= values[0]
                and item not in pos
            ):
                continue
            offer(item, value)

    def end_period(self) -> None:
        """React to a period boundary."""
        self.bloom.clear()

    def query(self, item: int) -> float:
        """Estimate the summary's ranking quantity for ``item``."""
        return (
            self.alpha * self.freq_sketch.query(item)
            + self.beta * self.pers_sketch.query(item)
        )

    def top_k(self, k: int) -> List[ItemReport]:
        """Report up to the k items with the largest estimates."""
        return [
            ItemReport(
                item=item,
                significance=value,
                frequency=float(self.freq_sketch.query(item)),
                persistency=float(self.pers_sketch.query(item)),
            )
            for item, value in self.heap.best(k)
        ]
