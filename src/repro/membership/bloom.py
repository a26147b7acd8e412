"""Standard Bloom filter (Bloom 1970).

Used by the sketch-based persistent-items adaptation to answer "has this
item already appeared in the current period?" with no false negatives.
"""

from __future__ import annotations

import math
from typing import List

import numpy as _np

from repro.hashing.family import HashFamily, as_key_array
from repro.metrics.memory import MemoryBudget


class BloomFilter:
    """A clearable Bloom filter over integer keys.

    Args:
        num_bits: Size of the bit array.
        num_hashes: Number of hash functions; if omitted it is chosen as
            ``max(1, round(ln2 · m/n))`` for the expected load, defaulting
            to 3 when no expectation is given.
        expected_items: Optional expected insert count per epoch, used only
            to pick ``num_hashes``.
        seed: Hash-family seed.
    """

    def __init__(
        self,
        num_bits: int,
        num_hashes: int | None = None,
        expected_items: int | None = None,
        seed: int = 0xB100,
    ):
        if num_bits < 1:
            raise ValueError("num_bits must be >= 1")
        if num_hashes is None:
            if expected_items:
                num_hashes = max(1, round(math.log(2) * num_bits / expected_items))
            else:
                num_hashes = 3
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._family = HashFamily(seed)
        self._hashes = [self._family.member(i) for i in range(num_hashes)]
        self._bits = bytearray((num_bits + 7) // 8)
        self._inserted = 0

    @classmethod
    def from_memory(
        cls, budget: MemoryBudget, expected_items: int | None = None, seed: int = 0xB100
    ) -> "BloomFilter":
        """Build a filter occupying the whole byte budget."""
        return cls(budget.bloom_bits(), expected_items=expected_items, seed=seed)

    def insert(self, key: int) -> None:
        """Set ``key``'s bits."""
        bits = self._bits
        m = self.num_bits
        for h in self._hashes:
            idx = h(key) % m
            bits[idx >> 3] |= 1 << (idx & 7)
        self._inserted += 1

    def __contains__(self, key: int) -> bool:
        bits = self._bits
        m = self.num_bits
        for h in self._hashes:
            idx = h(key) % m
            if not bits[idx >> 3] & (1 << (idx & 7)):
                return False
        return True

    def insert_if_absent(self, key: int) -> bool:
        """Insert ``key``; returns True iff it was (probably) absent.

        Single-pass variant used on the hot path of the persistent
        adaptations: one round of hashing for both test and set.
        """
        bits = self._bits
        m = self.num_bits
        absent = False
        for h in self._hashes:
            idx = h(key) % m
            mask = 1 << (idx & 7)
            if not bits[idx >> 3] & mask:
                absent = True
                bits[idx >> 3] |= mask
        if absent:
            self._inserted += 1
        return absent

    def insert_if_absent_many(self, keys) -> List[bool]:
        """Batch :meth:`insert_if_absent`: one result per key, in order.

        Replay-identical to the per-key calls: any occurrence of a key
        after its first within the batch is guaranteed present (its bits
        were just set), so only first occurrences are probed — in stream
        order, because which probe sets which bit decides later false
        positives — and their hash indices are computed in one vectorised
        pass per hash function.
        """
        arr = as_key_array(keys)
        n = int(arr.size)
        if n == 0:
            return []
        uniq, first = _np.unique(arr, return_index=True)
        order = _np.argsort(first, kind="stable")
        uniq = uniq[order]
        first = first[order]
        m = _np.uint64(self.num_bits)
        idx_rows = [
            (self._family.hash_array(i, uniq) % m).astype(_np.int64).tolist()
            for i in range(self.num_hashes)
        ]
        bits = self._bits
        results = [False] * n
        inserted = 0
        for pos, slots in zip(first.tolist(), zip(*idx_rows)):
            absent = False
            for idx in slots:
                mask = 1 << (idx & 7)
                if not bits[idx >> 3] & mask:
                    absent = True
                    bits[idx >> 3] |= mask
            if absent:
                inserted += 1
                results[pos] = True
        self._inserted += inserted
        return results

    def clear(self) -> None:
        """Reset all bits (called at period boundaries)."""
        # A fresh zeroed buffer is O(n) in C; the old in-place byte loop
        # dominated period boundaries at realistic filter sizes.
        self._bits = bytearray(len(self._bits))
        self._inserted = 0

    def estimated_fpp(self) -> float:
        """Estimated false-positive probability at the current load."""
        k, m, n = self.num_hashes, self.num_bits, self._inserted
        if n == 0:
            return 0.0
        return (1.0 - math.exp(-k * n / m)) ** k

    @property
    def bits_set(self) -> int:
        """Number of set bits (diagnostics)."""
        return sum(bin(b).count("1") for b in self._bits)
