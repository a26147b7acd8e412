"""Lossy Counting (Manku & Motwani 2002) — paper baseline "LC".

The stream is processed in buckets of width ``⌈1/ε⌉``.  Each entry stores
``(count, Δ)`` where Δ bounds the count missed before the entry was
created; at every bucket boundary entries with ``count + Δ ≤ b`` (the
current bucket id) are pruned.

For the paper's fixed-memory comparison we derive ε from the cell budget
(``ε = 2 / cells`` keeps the expected table size below the budget on
Zipfian data) and additionally enforce the budget as a hard cap by pruning
the weakest entries when an insertion would overflow — the same adaptation
the paper applies to make all algorithms memory-comparable.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Tuple

from repro import obs
from repro.metrics.memory import MemoryBudget
from repro.summaries.base import ItemReport, StreamSummary


class LossyCounting(StreamSummary):
    """Lossy Counting with a hard cell budget.

    Args:
        capacity: Maximum number of table entries.
        epsilon: Error parameter; defaults to ``2 / capacity``.
    """

    def __init__(self, capacity: int, epsilon: float | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.epsilon = epsilon if epsilon is not None else 2.0 / capacity
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.bucket_width = max(1, math.ceil(1.0 / self.epsilon))
        self._entries: Dict[int, Tuple[int, int]] = {}  # item -> (count, delta)
        self._seen = 0
        self._bucket_id = 1
        self._m_batch = obs.batch_size_histogram(type(self).__name__)

    @classmethod
    def from_memory(cls, budget: MemoryBudget) -> "LossyCounting":
        """Size the summary for a byte budget (8 bytes per cell)."""
        return cls(capacity=budget.counter_cells())

    def insert(self, item: int) -> None:
        """Process one arrival of ``item``."""
        self._seen += 1
        entry = self._entries.get(item)
        if entry is not None:
            self._entries[item] = (entry[0] + 1, entry[1])
        else:
            if len(self._entries) >= self.capacity:
                self._shed()
            self._entries[item] = (1, self._bucket_id - 1)
        if self._seen % self.bucket_width == 0:
            self._prune()
            self._bucket_id += 1

    def insert_many(self, items: Iterable[int]) -> None:
        """Batched arrivals, replay-identical to per-event :meth:`insert`.

        Chunks the batch at prune boundaries (every ``bucket_width``
        arrivals) so Δ for new entries and the prune bucket id stay
        constant within a chunk; inside a chunk, maximal runs of hits and
        free-slot adds fold to multiplicities applied in first-occurrence
        order (``_shed`` breaks count ties by dict insertion order, so
        the order is part of the replicated state).  When every distinct
        item of the chunk fits without shedding, the whole chunk folds in
        one C-speed :class:`collections.Counter` pass (``Counter``
        preserves first-occurrence order).  The run-breaking event — a
        new item against a full table, which sheds — is delegated to
        :meth:`insert`.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        total = len(items)
        if self._m_batch is not None:
            self._m_batch.observe(total)
        entries = self._entries
        capacity = self.capacity
        width = self.bucket_width
        i = 0
        while i < total:
            limit = min(total, i + width - self._seen % width)
            folded = Counter(items[i:limit])
            free = capacity - len(entries)
            for key in folded:
                if key not in entries:
                    free -= 1
                    if free < 0:
                        break
            if free >= 0:
                delta = self._bucket_id - 1
                get = entries.get
                for item, arrivals in folded.items():
                    entry = get(item)
                    if entry is not None:
                        entries[item] = (entry[0] + arrivals, entry[1])
                    else:
                        entries[item] = (arrivals, delta)
                self._seen += limit - i
                i = limit
                if self._seen % width == 0:
                    self._prune()
                    self._bucket_id += 1
                    entries = self._entries  # _prune rebinds the dict
                continue
            mult: Dict[int, int] = {}
            free = capacity - len(entries)
            j = i
            while j < limit:
                item = items[j]
                if item in mult:
                    mult[item] += 1
                elif item in entries:
                    mult[item] = 1
                elif free > 0:
                    mult[item] = 1
                    free -= 1
                else:
                    break
                j += 1
            if j > i:
                delta = self._bucket_id - 1
                get = entries.get
                for item, arrivals in mult.items():
                    entry = get(item)
                    if entry is not None:
                        entries[item] = (entry[0] + arrivals, entry[1])
                    else:
                        entries[item] = (arrivals, delta)
                self._seen += j - i
                if self._seen % width == 0:
                    self._prune()
                    self._bucket_id += 1
                    entries = self._entries  # _prune rebinds the dict
            blocked = j < limit
            i = j
            if blocked:
                self.insert(items[i])
                entries = self._entries  # insert may prune (rebind)
                i += 1

    def _prune(self) -> None:
        """Standard boundary prune: drop entries with count + Δ ≤ b."""
        b = self._bucket_id
        self._entries = {
            item: (count, delta)
            for item, (count, delta) in self._entries.items()
            if count + delta > b
        }

    def _shed(self) -> None:
        """Hard-cap enforcement: drop the weakest ~25% of entries."""
        if not self._entries:
            return
        ranked = sorted(
            self._entries.items(), key=lambda kv: kv[1][0] + kv[1][1]
        )
        drop = max(1, len(ranked) // 4)
        for item, _ in ranked[:drop]:
            del self._entries[item]

    def query(self, item: int) -> float:
        """Estimate the summary's ranking quantity for ``item``."""
        entry = self._entries.get(item)
        return float(entry[0]) if entry else 0.0

    def top_k(self, k: int) -> List[ItemReport]:
        """Report up to the k items with the largest estimates."""
        ranked = sorted(
            self._entries.items(), key=lambda kv: (-kv[1][0], kv[0])
        )
        return [
            ItemReport(item=item, significance=float(c), frequency=float(c))
            for item, (c, _) in ranked[:k]
        ]

    def __len__(self) -> int:
        return len(self._entries)
