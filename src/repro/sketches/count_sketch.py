"""Count sketch (Charikar, Chen, Farach-Colton 2002) — baseline "Count".

Each row pairs a bucket hash with an independent ±1 sign hash; a query
returns the *median* of the signed counters.  Unlike CM/CU the estimate is
unbiased but two-sided (it can underestimate).
"""

from __future__ import annotations

import statistics
from array import array
from typing import Any, Iterable

import numpy as _np

from repro.hashing.family import HashFamily, as_key_array
from repro.metrics.memory import MemoryBudget
from repro.sketches._vectorized import grouped_cumsum


class CountSketch:
    """Count sketch with median estimation.

    Args:
        width: Counters per row.
        rows: Number of rows; odd values give a true median (paper uses 3).
        seed: Hash-family seed.
    """

    def __init__(self, width: int, rows: int = 3, seed: int = 0xC0DE) -> None:
        if width < 1 or rows < 1:
            raise ValueError("width and rows must be >= 1")
        self.width = width
        self.rows = rows
        family = HashFamily(seed)
        self._family = family
        self._tables = [array("q", [0]) * width for _ in range(rows)]
        self._bucket_hashes = [family.member(2 * i) for i in range(rows)]
        self._sign_hashes = [family.member(2 * i + 1) for i in range(rows)]

    @classmethod
    def from_memory(
        cls, budget: MemoryBudget, rows: int = 3, heap_k: int = 0, seed: int = 0xC0DE
    ) -> "CountSketch":
        """Size the sketch for a byte budget, reserving a k-entry heap."""
        return cls(width=budget.sketch_width(rows, heap_k), rows=rows, seed=seed)

    def update(self, key: int, delta: int = 1) -> None:
        """Add ``delta`` to ``key`` (signed per row)."""
        width = self.width
        for table, bh, sh in zip(
            self._tables, self._bucket_hashes, self._sign_hashes
        ):
            sign = 1 if sh(key) & 1 else -1
            table[bh(key) % width] += sign * delta

    def update_many(self, keys: Iterable[int], delta: int = 1) -> None:
        """Add ``delta`` to every key (signed per row) in one pass.

        Signed additions commute, so the batch is cell-for-cell identical
        to per-key :meth:`update` calls; duplicates fold via
        ``numpy.unique``.
        """
        arr = as_key_array(keys)
        if arr.size == 0:
            return
        uniq, counts = _np.unique(arr, return_counts=True)
        deltas = counts.astype(_np.int64) * delta
        width = _np.uint64(self.width)
        one = _np.uint64(1)
        for row in range(self.rows):
            idx = (self._family.hash_array(2 * row, uniq) % width).astype(
                _np.int64
            )
            sign_bits = self._family.hash_array(2 * row + 1, uniq) & one
            signed = _np.where(sign_bits.astype(bool), deltas, -deltas)
            view = _np.frombuffer(self._tables[row], dtype=_np.int64)
            _np.add.at(view, idx, signed)

    def query(self, key: int) -> int:
        """Median-of-signed-counters point estimate (can be negative)."""
        width = self.width
        estimates = [
            (1 if sh(key) & 1 else -1) * table[bh(key) % width]
            for table, bh, sh in zip(
                self._tables, self._bucket_hashes, self._sign_hashes
            )
        ]
        return int(statistics.median(estimates))

    def update_and_query(self, key: int, delta: int = 1) -> int:
        """Single-pass update returning the fresh estimate."""
        self.update(key, delta)
        return self.query(key)

    def update_and_query_many(self, keys: Iterable[int], delta: int = 1) -> Any:
        """Per-event fresh estimates for a whole batch, replay-identical.

        The signed counter event ``i`` observes in a row is its pre-batch
        value plus the inclusive signed running sum of same-slot batch
        events (:func:`repro.sketches._vectorized.grouped_cumsum`); the
        per-event estimate is the row median with the same
        truncate-toward-zero conversion ``int(statistics.median(...))``
        applies on the per-event path.  Tables commit the folded batch in
        one pass per row.
        """
        arr = as_key_array(keys)
        n = arr.size
        if n == 0:
            return _np.empty(0, dtype=_np.int64)
        width = _np.uint64(self.width)
        one = _np.uint64(1)
        row_estimates = _np.empty((self.rows, n), dtype=_np.int64)
        for row in range(self.rows):
            idx = (self._family.hash_array(2 * row, arr) % width).astype(
                _np.int64
            )
            sign_bits = self._family.hash_array(2 * row + 1, arr) & one
            signs = _np.where(sign_bits.astype(bool), 1, -1).astype(_np.int64)
            view = _np.frombuffer(self._tables[row], dtype=_np.int64)
            signed = signs * delta
            row_estimates[row] = signs * (view[idx] + grouped_cumsum(idx, signed))
            _np.add.at(view, idx, signed)
        medians = _np.median(row_estimates, axis=0)
        return _np.trunc(medians).astype(_np.int64)

    @property
    def total_counters(self) -> int:
        """Total number of counters in the sketch."""
        return self.width * self.rows
