"""Seeded hash family used in the library's hot paths.

The family is built on splitmix64, a well-distributed 64-bit mixer with a
single multiply-xor-shift pipeline — deterministic across processes (unlike
Python's builtin ``hash`` for strings) and several times faster in pure
Python than a byte-oriented hash such as Bob Hash.  Accuracy experiments are
hash-agnostic (see ``tests/test_hash_agnostic.py``), so swapping in
:class:`repro.hashing.bobhash.BobHash` changes nothing but speed.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

import numpy as _np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """Mix a 64-bit integer through the splitmix64 finaliser.

    This is the output function of Steele et al.'s SplitMix generator; it is
    a bijection on 64-bit integers with full avalanche.
    """
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def splitmix64_array(keys: Any) -> Any:
    """Vectorised :func:`splitmix64` over a ``uint64`` numpy array.

    Bit-for-bit identical to the scalar function per element (uint64
    arithmetic wraps modulo 2**64 exactly like the scalar's masking).
    """
    x = keys + _np.uint64(_GOLDEN)
    x = (x ^ (x >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return x ^ (x >> _np.uint64(31))


def as_key_array(keys: Any) -> Any:
    """Canonicalise a batch of integer keys to a ``uint64`` numpy array.

    Matches the scalar paths' implicit masking: ``splitmix64`` masks its
    input to 64 bits, so out-of-range or negative keys reduce modulo
    2**64 — the scalar paths apply the same reduction.
    """
    try:
        return _np.asarray(keys, dtype=_np.uint64)
    except (OverflowError, TypeError, ValueError):
        return _np.array([int(k) & _MASK64 for k in keys], dtype=_np.uint64)


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of ``data`` (used to canonicalise non-int keys)."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def canonical_key(item: Hashable) -> int:
    """Reduce an item identifier to a canonical integer key in
    ``[0, 2**64 - 2]``.

    Streams in this library carry integer item identifiers natively (IPs,
    user ids, flow ids).  Strings and bytes are digested with FNV-1a so that
    arbitrary identifiers can be fed to any summary.  The result leaves
    out ``2**64 - 1``, the empty-cell key of a checkpoint and of the
    columnar kernel's key column, so every canonical key can be stored:
    it folds onto ``2**64 - 2`` (for ints, -1 shares a key with -2).
    """
    if isinstance(item, int):
        key = item & _MASK64
    elif isinstance(item, str):
        key = fnv1a64(item.encode("utf-8"))
    elif isinstance(item, (bytes, bytearray)):
        key = fnv1a64(bytes(item))
    else:
        raise TypeError(f"unsupported item key type: {type(item)!r}")
    return min(key, _MASK64 - 1)


class HashFamily:
    """A family of pairwise-independent-style hash functions.

    ``HashFamily(seed)`` derives any number of member functions; member ``i``
    is ``h_i(key) = splitmix64(key XOR seed_i)`` where the ``seed_i`` are a
    splitmix64 stream from the family seed.  Members are accessed by index
    so data structures can document exactly how many independent functions
    they consume.
    """

    def __init__(self, seed: int = 0x5EED) -> None:
        self.seed = seed & _MASK64
        self._member_seeds: list[int] = []

    def _seed_for(self, index: int) -> int:
        while len(self._member_seeds) <= index:
            nxt = splitmix64(self.seed + _GOLDEN * (len(self._member_seeds) + 1))
            self._member_seeds.append(nxt)
        return self._member_seeds[index]

    def hash(self, index: int, key: int) -> int:
        """Return the 64-bit hash of integer ``key`` under member ``index``."""
        return splitmix64(key ^ self._seed_for(index))

    def bucket(self, index: int, key: int, n: int) -> int:
        """Map ``key`` to ``[0, n)`` under member ``index``."""
        return splitmix64(key ^ self._seed_for(index)) % n

    def buckets(self, key: int, n: int, count: int) -> Iterable[int]:
        """Yield ``count`` bucket indices in ``[0, n)`` for ``key``."""
        for i in range(count):
            yield splitmix64(key ^ self._seed_for(i)) % n

    def sign(self, index: int, key: int) -> int:
        """Return a ±1 sign for ``key`` (used by the Count sketch)."""
        return 1 if self.hash(index, key) & 1 else -1

    def member(self, index: int) -> Callable[[int], int]:
        """Return member ``index`` as a standalone ``key -> int`` callable."""
        seed = self._seed_for(index)
        return lambda key: splitmix64(key ^ seed)

    def hash_array(self, index: int, keys: Any) -> Any:
        """Vectorised :meth:`hash` over a ``uint64`` numpy array of keys.

        Element-for-element equal to ``member(index)`` applied per key.
        """
        return splitmix64_array(keys ^ _np.uint64(self._seed_for(index)))
