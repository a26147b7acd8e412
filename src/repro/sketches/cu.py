"""CU sketch (Estan & Varghese 2002, "conservative update") — baseline "CU".

Identical layout to Count-Min, but an update only increments the mapped
counters that currently hold the minimum value.  The estimate is still
never an underestimate and is empirically much tighter than CM; the paper
finds CU the strongest sketch baseline.

Batch ingestion: conservative update is order-dependent whenever distinct
keys share counters, so the one-shot ``add.at`` fold that serves CM is
wrong here.  Instead the batch paths solve the per-event target
recurrence directly with the sort-and-segment fixpoint kernel in
:func:`repro.sketches._vectorized.conservative_update_targets` — each
row's slots are sorted once, then iterative segmented running-max passes
(plus a same-key chain tightening that folds duplicate-heavy batches)
converge to the exact sequential targets, which commit via one segmented
max per row.  Batches the kernel cannot certify (no convergence within
the pass budget, or counters near int64 range) replay through the scalar
loop, so every path stays cell-for-cell identical to per-event updates.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

import numpy as _np

from repro.hashing.family import as_key_array
from repro.sketches._vectorized import conservative_update_targets
from repro.sketches.count_min import CountMinSketch

#: Fixpoint iterations before giving the batch back to the scalar loop.
#: Dependency chains longer than this only arise when nearly every event
#: collides (tiny widths); real sketch geometries converge in 2-4 passes.
_MAX_PASSES = 64

#: Events per kernel invocation.  Chain depth — and with it the pass
#: count — grows with batch size, so huge batches converge slowly as one
#: piece; committing chunk by chunk keeps the sequential semantics (each
#: chunk's T0 already contains its predecessors' raises) while holding
#: passes near the 2-4 sweet spot.  Swept on the bench workload:
#: 1024/2048/4096/8192/20000 -> 1.86/2.08/2.07/1.75/0.97 Mops.
_CHUNK = 2048


class CUSketch(CountMinSketch):
    """Count-Min with conservative update (insert-only streams)."""

    def update(self, key: int, delta: int = 1) -> None:
        """Raise the minimum mapped counters to ``min + delta``.

        Conservative update is defined for non-negative ``delta`` only.
        """
        if delta < 0:
            raise ValueError("CU sketch does not support decrements")
        if delta == 0:
            return
        width = self.width
        slots = [h(key) % width for h in self._hashes]
        values = [t[s] for t, s in zip(self._tables, slots)]
        target = min(values) + delta
        for table, slot, value in zip(self._tables, slots, values):
            if value < target:
                table[slot] = target

    def _batch_targets(self, arr: Any, deltas: Any) -> Optional[Any]:
        """Exact per-event targets for a batch, or ``None`` for scalar replay.

        On success the kernel has already committed the targets to the
        tables (each counter rises to the max target routed through it).
        """
        np = _np
        width = np.uint64(self.width)
        slot_rows = [
            (self._family.hash_array(row, arr) % width).astype(np.int64)
            for row in range(self.rows)
        ]
        views = [np.frombuffer(t, dtype=np.int64) for t in self._tables]
        return conservative_update_targets(
            slot_rows, views, arr, deltas, max_passes=_MAX_PASSES
        )

    @staticmethod
    def _check_batch_args(delta: int) -> None:
        if delta < 0:
            raise ValueError("CU sketch does not support decrements")

    def update_many(self, keys: Iterable[int], delta: int = 1) -> None:
        """Batch update, cell-for-cell identical to sequential replay."""
        self._check_batch_args(delta)
        if delta == 0:
            return
        arr = as_key_array(keys)
        if arr.size == 0:
            return
        deltas = _np.full(arr.size, delta, dtype=_np.int64)
        update = self.update
        for start in range(0, arr.size, _CHUNK):
            sub, d = arr[start : start + _CHUNK], deltas[start : start + _CHUNK]
            if self._batch_targets(sub, d) is None:
                for key in sub.tolist():
                    update(key, delta)

    def update_and_query(self, key: int, delta: int = 1) -> int:
        """Single-pass update returning the fresh estimate."""
        self.update(key, delta)
        return self.query(key)

    def update_and_query_many(self, keys: Iterable[int], delta: int = 1) -> Any:
        """Per-event fresh estimates for a whole batch, replay-identical.

        After an update the post-update minimum over the key's counters
        *is* the raise target, so the kernel's per-event targets are
        exactly the answers :meth:`update_and_query` would return in
        stream order.  Returns a list, like the scalar path.
        """
        self._check_batch_args(delta)
        if delta == 0:
            # update() is a no-op at delta=0, so the estimate is a plain query.
            return [self.query(key) for key in keys]
        arr = as_key_array(keys)
        if arr.size == 0:
            return []
        deltas = _np.full(arr.size, delta, dtype=_np.int64)
        answers: "list[int]" = []
        update_and_query = self.update_and_query
        for start in range(0, arr.size, _CHUNK):
            sub, d = arr[start : start + _CHUNK], deltas[start : start + _CHUNK]
            targets = self._batch_targets(sub, d)
            if targets is not None:
                answers.extend(targets.tolist())
            else:
                answers.extend(update_and_query(key, delta) for key in sub.tolist())
        return answers
