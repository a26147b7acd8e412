"""FastLTC: semantically identical LTC with an O(1) hit path.

The reference :class:`repro.core.ltc.LTC` mirrors the paper's memory
model: a hit scans the d cells of one bucket.  In C++ that scan is a
single cache line; in Python it is d interpreted iterations, which
dominates the insert cost on hit-heavy (Zipfian!) streams.

``FastLTC`` keeps **identical observable behaviour** — the differential
tests in ``tests/test_fast_ltc.py`` assert cell-level equality with the
reference class on arbitrary streams — but maintains an item→slot dict so
the common hit path is one lookup and evictions update the index in
O(1).  The index is pure implementation acceleration; it breaks the
12-byte/cell accounting, which is why accuracy benchmarks use the
reference class and only throughput measurements use this one.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.hashing.family import splitmix64
from repro.summaries.base import as_items, expand_counts


class FastLTC(LTC):
    """LTC with a hash-index fast path (same observable behaviour).

    The update logic below intentionally mirrors ``LTC._place`` /
    ``LTC._decrement_smallest`` line for line, adding only index
    maintenance — any semantic divergence is caught by the differential
    test suite.
    """

    def __init__(self, config: LTCConfig) -> None:
        super().__init__(config)
        self._slot_of: Dict[int, int] = {}

    def _place(self, item: int) -> None:
        slot = self._slot_of.get(item)
        if slot is not None:  # Case 1: hit, no bucket scan.
            self._freqs[slot] += 1
            self._flags[slot] |= self._set_bit
            if self._cell_listener is not None:
                self._cell_listener.cell_touched(slot)
            return
        self._place_miss(item)

    def insert_many(
        self, items: Iterable[int], counts: Optional[Sequence[int]] = None
    ) -> None:
        """Batched arrivals with the hit path inlined into the chunk loop.

        Chunking mirrors ``LTC.insert_many`` (harvests land at the same
        arrival positions as the one-at-a-time path); within a chunk a hit
        costs one dict probe and two list writes.  ``_set_bit`` is constant
        for the whole call — it only changes in ``end_period``.
        ``counts`` weights the batch as in the base protocol.
        """
        if self._cell_listener is not None:
            # Listener notifications live in _place/_harvest; the base
            # batched loop routes every arrival through them (same cells,
            # same CLOCK schedule — only the inlined hit shortcut is
            # skipped while an index is attached).
            LTC.insert_many(self, items, counts)
            return
        items = as_items(items)
        if counts is not None:
            items = expand_counts(items, counts)
        try:
            total = len(items)
        except TypeError:
            items = list(items)
            total = len(items)
        if self._m_batch is not None:
            self._m_batch.observe(total)
        harvest = self._harvest
        clock = self._clock
        take = clock._take
        n = clock.items_per_period
        m = clock.num_cells
        acc = clock._acc
        if self._obs is not None:
            self._m_inserts.inc(total)
        get = self._slot_of.get
        freqs = self._freqs
        flags = self._flags
        set_bit = self._set_bit
        miss = self._place_miss
        i = 0
        while i < total:
            # Inlined clock arithmetic (arrivals_until_harvest/on_arrivals):
            # place every arrival that provably triggers no sweep step,
            # plus the one that does, then take that chunk's steps at once.
            j = i + (n - 1 - acc) // m + 1
            if j > total:
                j = total
            for item in items[i:j]:
                slot = get(item)
                if slot is not None:
                    freqs[slot] += 1
                    flags[slot] |= set_bit
                else:
                    miss(item)
            acc += (j - i) * m
            steps = acc // n
            if steps:
                acc -= steps * n
                for slot in take(steps):
                    harvest(slot)
            i = j
        clock._acc = acc

    def _place_miss(self, item: int) -> None:
        d = self._d
        base = (splitmix64(item ^ self._seed) % self._w) * d
        keys = self._keys
        empty = -1
        for j in range(base, base + d):
            if keys[j] is None:
                empty = j
                break
        if empty >= 0:  # Case 2: free cell.
            keys[empty] = item
            self._freqs[empty] = 1
            self._counters[empty] = 0
            self._flags[empty] = self._set_bit
            self._slot_of[item] = empty
            if self._cell_listener is not None:
                self._cell_listener.cell_touched(empty)
            return
        self._decrement_smallest_indexed(item, base)

    def _decrement_smallest_indexed(self, item: int, base: int) -> None:
        d = self._d
        alpha, beta = self._alpha, self._beta
        freqs = self._freqs
        counters = self._counters
        metered = self._obs is not None
        listener = self._cell_listener
        jmin = base
        smin = alpha * freqs[base] + beta * counters[base]
        for j in range(base + 1, base + d):
            s = alpha * freqs[j] + beta * counters[j]
            if s < smin:
                smin, jmin = s, j
        if self._policy == "space-saving":
            if metered:
                self._m_evictions.inc()
            old = self._keys[jmin]
            if old is not None:
                del self._slot_of[old]
            self._keys[jmin] = item
            freqs[jmin] += 1
            self._flags[jmin] = self._set_bit
            self._slot_of[item] = jmin
            if listener is not None:
                listener.cell_touched(jmin)
            return
        if metered:
            self._m_decrements.inc()
        if counters[jmin] > 0:
            counters[jmin] -= 1
        elif freqs[jmin] > 0:
            # Mirror of LTC._decrement_smallest: charge the decrement to
            # the oldest pending flag when the counter is empty and the
            # flags cover the whole post-decrement frequency, so a later
            # harvest can never leave persistency > frequency.
            bits = self._flags[jmin]
            if (bits & 1) + (bits >> 1 & 1) >= freqs[jmin]:
                if bits & self._harvest_bit:
                    self._flags[jmin] = bits & ~self._harvest_bit & 0xFF
                else:
                    self._flags[jmin] = bits & ~self._set_bit & 0xFF
        if freqs[jmin] > 0:
            freqs[jmin] -= 1
        if alpha * freqs[jmin] + beta * counters[jmin] > 0:
            if listener is not None:
                listener.cell_touched(jmin)
            return
        if self._ltr and d > 1:
            f0, c0 = self._longtail_initial(base, jmin)
            if metered:
                self._m_longtail.inc()
        else:
            f0, c0 = 1, 0
        if metered:
            self._m_evictions.inc()
        old = self._keys[jmin]
        if old is not None:
            del self._slot_of[old]
        self._keys[jmin] = item
        freqs[jmin] = f0
        counters[jmin] = c0
        self._flags[jmin] = self._set_bit
        self._slot_of[item] = jmin
        if listener is not None:
            listener.cell_touched(jmin)

    def estimate(self, item: int) -> Tuple[int, int]:
        """Estimated ``(frequency, persistency)`` of ``item`` via the index."""
        slot = self._slot_of.get(item)
        if slot is None:
            return 0, 0
        return self._freqs[slot], self._counters[slot]

    def _tracked(self, item: int) -> bool:
        return item in self._slot_of

    def clear(self) -> None:
        """Reset the structure (and its index) to the fresh state."""
        super().clear()
        self._slot_of.clear()

    def _reindex(self) -> None:
        """Rebuild the item→slot index from the cell arrays (restore path)."""
        self._slot_of = {
            key: j for j, key in enumerate(self._keys) if key is not None
        }
