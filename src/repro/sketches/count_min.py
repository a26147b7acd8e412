"""Count-Min sketch (Cormode & Muthukrishnan 2005) — paper baseline "CM".

``rows`` equal-width counter arrays with independent hash functions.  An
update increments one counter per row; a point query returns the minimum of
the mapped counters, which never underestimates the true count.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable

import numpy as _np

from repro.hashing.family import HashFamily, as_key_array
from repro.metrics.memory import MemoryBudget
from repro.sketches._vectorized import grouped_cumcount


class CountMinSketch:
    """Count-Min sketch over non-negative integer updates.

    Args:
        width: Counters per row.
        rows: Number of rows (the paper uses 3).
        seed: Hash-family seed.
    """

    def __init__(self, width: int, rows: int = 3, seed: int = 0x5EED) -> None:
        if width < 1 or rows < 1:
            raise ValueError("width and rows must be >= 1")
        self.width = width
        self.rows = rows
        self._family = HashFamily(seed)
        self._tables = [array("q", [0]) * width for _ in range(rows)]
        # Bind the row hash callables once; saves a dict lookup per update.
        self._hashes = [self._family.member(i) for i in range(rows)]

    @classmethod
    def from_memory(
        cls, budget: MemoryBudget, rows: int = 3, heap_k: int = 0, seed: int = 0x5EED
    ) -> "CountMinSketch":
        """Size the sketch for a byte budget, reserving a k-entry heap."""
        return cls(width=budget.sketch_width(rows, heap_k), rows=rows, seed=seed)

    def update(self, key: int, delta: int = 1) -> None:
        """Add ``delta`` to ``key``'s counters."""
        width = self.width
        for table, h in zip(self._tables, self._hashes):
            table[h(key) % width] += delta

    def update_many(self, keys: Iterable[int], delta: int = 1) -> None:
        """Add ``delta`` to every key's counters in one vectorised pass.

        CM updates are pure additions, so batching commutes: the result is
        cell-for-cell identical to calling :meth:`update` per key in any
        order.  Duplicate keys are folded with ``numpy.unique`` so a
        Zipfian batch hashes each distinct key once.
        """
        arr = as_key_array(keys)
        if arr.size == 0:
            return
        uniq, counts = _np.unique(arr, return_counts=True)
        deltas = counts.astype(_np.int64) * delta
        width = _np.uint64(self.width)
        for row, table in enumerate(self._tables):
            idx = (self._family.hash_array(row, uniq) % width).astype(_np.int64)
            view = _np.frombuffer(table, dtype=_np.int64)
            _np.add.at(view, idx, deltas)

    def update_and_query_many(self, keys: Iterable[int], delta: int = 1) -> Any:
        """Per-event fresh estimates for a whole batch, replay-identical.

        Returns the sequence of estimates :meth:`update_and_query` would
        produce for each key in stream order as an int64 array, leaving the tables exactly as a sequential
        replay would.  The counter value event ``i`` observes in a row is
        its pre-batch value plus ``delta`` per batch event ``j <= i``
        hashing to the same slot — a grouped occurrence rank
        (:func:`repro.sketches._vectorized.grouped_cumcount`) — so no
        per-event table write is needed; each row commits the folded
        batch in one ``numpy.add.at``.
        """
        arr = as_key_array(keys)
        if arr.size == 0:
            return _np.empty(0, dtype=_np.int64)
        width = _np.uint64(self.width)
        estimates = None
        for row, table in enumerate(self._tables):
            idx = (self._family.hash_array(row, arr) % width).astype(_np.int64)
            view = _np.frombuffer(table, dtype=_np.int64)
            row_est = view[idx] + (grouped_cumcount(idx) + 1) * delta
            if estimates is None:
                estimates = row_est
            else:
                _np.minimum(estimates, row_est, out=estimates)
            uniq, counts = _np.unique(idx, return_counts=True)
            _np.add.at(view, uniq, counts.astype(_np.int64) * delta)
        return estimates

    def query(self, key: int) -> int:
        """Point-estimate ``key``'s count (never an underestimate)."""
        width = self.width
        return min(
            table[h(key) % width]
            for table, h in zip(self._tables, self._hashes)
        )

    def update_and_query(self, key: int, delta: int = 1) -> int:
        """Single-pass update returning the fresh estimate (heap wrappers)."""
        width = self.width
        estimate = None
        for table, h in zip(self._tables, self._hashes):
            slot = h(key) % width
            table[slot] += delta
            value = table[slot]
            if estimate is None or value < estimate:
                estimate = value
        return estimate if estimate is not None else 0

    @property
    def total_counters(self) -> int:
        """Total number of counters in the sketch."""
        return self.width * self.rows
