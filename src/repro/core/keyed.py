"""Arbitrary-key adapter: use any summary with string/bytes identifiers.

Every structure in this library keys on 64-bit integers (the wire format
of the paper's traces).  Real applications have URLs, usernames and
tuples.  :class:`KeyedSummary` wraps any summary: keys are canonicalised
with :func:`repro.hashing.canonical_key` on the way in, and a reverse map
of the *currently interesting* keys (capped) lets ``top_k`` report the
original identifiers back.

The reverse map is an adapter convenience outside the paper's memory
model; its size is capped so a hostile key stream cannot grow it without
bound (evicted mappings simply fall back to reporting the integer key).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable, List

from repro.hashing.family import canonical_key
from repro.summaries.base import ItemReport, StreamSummary


class KeyedSummary(StreamSummary):
    """Wrap ``inner`` so it accepts ``str`` / ``bytes`` / ``int`` keys.

    Args:
        inner: Any summary keyed on integers.
        reverse_capacity: Maximum retained original-key mappings (LRU by
            insertion recency).  Size it ≳ the number of distinct keys
            you expect to *report*, not the number you insert.
    """

    def __init__(self, inner: StreamSummary, reverse_capacity: int = 65_536) -> None:
        if reverse_capacity < 1:
            raise ValueError("reverse_capacity must be >= 1")
        self.inner = inner
        self.reverse_capacity = reverse_capacity
        self._original: "OrderedDict[int, Hashable]" = OrderedDict()

    def _intern(self, key: Hashable) -> int:
        item = canonical_key(key)
        existing = self._original.get(item)
        if existing is None:
            if len(self._original) >= self.reverse_capacity:
                self._original.popitem(last=False)
            self._original[item] = key
        else:
            self._original.move_to_end(item)
        return item

    def insert(self, key: Hashable) -> None:
        """Process one arrival of ``key``."""
        self.inner.insert(self._intern(key))

    def insert_many(self, keys: Iterable[Hashable]) -> None:
        """Batched arrivals, replay-identical to per-event :meth:`insert`.

        Keys are interned in arrival order (so the reverse map's LRU
        state matches the per-event path), then the integer batch is
        handed to the wrapped summary's own batched fast path.
        """
        self.inner.insert_many([self._intern(key) for key in keys])

    def end_period(self) -> None:
        """Forwarded period boundary."""
        end_period = getattr(self.inner, "end_period", None)
        if end_period is not None:
            end_period()

    def finalize(self) -> None:
        """Forwarded stream-end flush."""
        finalize = getattr(self.inner, "finalize", None)
        if finalize is not None:
            finalize()

    def query(self, key: Hashable) -> float:
        """Estimate for ``key`` (accepts original or integer form)."""
        return self.inner.query(canonical_key(key))

    def original_key(self, item: int) -> Hashable:
        """Original identifier for an interned integer (or the integer
        itself if its mapping was evicted)."""
        return self._original.get(item, item)

    def top_k(self, k: int) -> List[ItemReport]:
        """Top-k with original identifiers restored where known."""
        return [
            ItemReport(
                item=self.original_key(r.item),
                significance=r.significance,
                frequency=r.frequency,
                persistency=r.persistency,
            )
            for r in self.inner.top_k(k)
        ]
