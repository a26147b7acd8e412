"""Hash-based small-space sampling for persistent items (cf. [30], [17]).

The sampling-based alternative the paper's related work cites: instead of
recording every item, sample a fixed pseudo-random subset of the item
space (all items whose hash falls below a threshold) and track those
*exactly* — id, frequency and per-period presence.  The same hash is used
in every period ("coordinated" sampling), so a sampled item's persistency
is measured without bias; items outside the sample are invisible.

With a p-fraction sample the structure holds ≈ p·M cells; the top-k
persistent items are reported from the sample, so recall is bounded by
the probability that a top item is sampled — the structural weakness the
paper exploits when comparing against sampling methods.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

import numpy as _np

from repro import obs
from repro.hashing.family import HashFamily, as_key_array
from repro.metrics.memory import COUNTER_CELL_BYTES, MemoryBudget
from repro.summaries.base import ItemReport, StreamSummary

_HASH_SPACE = 1 << 64


class SmallSpacePersistent(StreamSummary):
    """Coordinated hash sampling for top-k persistent items.

    Args:
        capacity: Maximum tracked (sampled) items; the sampling threshold
            adapts downward if the sample outgrows it.
        sample_rate: Initial inclusion probability.
        seed: Sampling-hash seed (shared across periods by construction).
    """

    def __init__(
        self, capacity: int, sample_rate: float = 0.05, seed: int = 0x5A
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        self.capacity = capacity
        self._family = HashFamily(seed)
        self._hash = self._family.member(0)
        self._threshold = int(sample_rate * _HASH_SPACE)
        self._freq: Dict[int, int] = {}
        self._pers: Dict[int, int] = {}
        self._seen_this_period: Set[int] = set()
        self._m_batch = obs.batch_size_histogram(type(self).__name__)

    @classmethod
    def from_memory(
        cls,
        budget: MemoryBudget,
        expected_distinct: int,
        seed: int = 0x5A,
    ) -> "SmallSpacePersistent":
        """Size for a byte budget: 3 counters (id, f, p) ≈ 12B per cell."""
        capacity = max(1, budget.total_bytes // (COUNTER_CELL_BYTES + 4))
        rate = min(1.0, capacity / max(expected_distinct, 1))
        return cls(capacity=capacity, sample_rate=rate, seed=seed)

    def _sampled(self, item: int) -> bool:
        return self._hash(item) < self._threshold

    def insert(self, item: int) -> None:
        """Process one arrival of ``item``."""
        if not self._sampled(item):
            return
        if item not in self._freq and len(self._freq) >= self.capacity:
            self._tighten()
            if not self._sampled(item):
                return
        self._freq[item] = self._freq.get(item, 0) + 1
        if item not in self._seen_this_period:
            self._seen_this_period.add(item)
            self._pers[item] = self._pers.get(item, 0) + 1

    def insert_many(self, items: Iterable[int]) -> None:
        """Batched arrivals, replay-identical to per-event :meth:`insert`.

        The sampling hash is computed for the whole batch in one
        vectorised pass; the threshold only ever decreases, so the
        candidates it admits are a superset of the sampled events and
        each candidate re-checks the (possibly tightened) threshold
        before the per-event bookkeeping — non-candidates are exactly the
        events per-event replay drops at the first ``_sampled`` test.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if self._m_batch is not None:
            self._m_batch.observe(len(items))
        arr = as_key_array(items)
        if arr.size == 0 or self._threshold == 0:
            return
        hashes = self._family.hash_array(0, arr)
        # hash < threshold, as ``<=`` so that the full-rate threshold
        # 2**64 still fits in a uint64.
        candidates = _np.flatnonzero(hashes <= _np.uint64(self._threshold - 1))
        if candidates.size == 0:
            return
        freq = self._freq
        pers = self._pers
        seen = self._seen_this_period
        capacity = self.capacity
        for i in candidates.tolist():
            item = items[i]
            if item not in freq:
                if int(hashes[i]) >= self._threshold:
                    continue  # tightened mid-batch below this event's hash
                if len(freq) >= capacity:
                    self._tighten()
                    if int(hashes[i]) >= self._threshold:
                        continue
            freq[item] = freq.get(item, 0) + 1
            if item not in seen:
                seen.add(item)
                pers[item] = pers.get(item, 0) + 1

    def _tighten(self) -> None:
        """Halve the sampling threshold and evict now-unsampled items.

        Coordinated sampling stays consistent: surviving items keep their
        exact statistics because the same hash decided their inclusion in
        every past period.
        """
        self._threshold //= 2
        dead = [item for item in self._freq if not self._sampled(item)]
        for item in dead:
            del self._freq[item]
            del self._pers[item]
            self._seen_this_period.discard(item)

    def end_period(self) -> None:
        """React to a period boundary."""
        self._seen_this_period.clear()

    @property
    def sample_rate(self) -> float:
        """Current effective sampling probability."""
        return self._threshold / _HASH_SPACE

    def query(self, item: int) -> float:
        """Exact persistency for sampled items, 0 for the rest."""
        return float(self._pers.get(item, 0))

    def frequency(self, item: int) -> int:
        """Exact frequency of a sampled item (0 otherwise)."""
        return self._freq.get(item, 0)

    def top_k(self, k: int) -> List[ItemReport]:
        """Report up to the k items with the largest estimates."""
        ranked = sorted(self._pers.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            ItemReport(
                item=item,
                significance=float(p),
                frequency=float(self._freq[item]),
                persistency=float(p),
            )
            for item, p in ranked[:k]
        ]

    def __len__(self) -> int:
        return len(self._freq)
