"""Sliding-window LTC (extension): significance over the last W periods.

The paper defines persistency over the whole stream.  Long-running
deployments usually care about the *recent* stream — a flow that was
persistent last month but silent today should decay.  This extension
replaces each cell's persistency counter with a W-bit presence ring:

* bit 0 of the ring is the current period's presence flag;
* at every period boundary the ring shifts left, dropping the bit that
  falls out of the window;
* windowed persistency = popcount(ring) — the number of the last W
  periods in which the item appeared — and significance becomes
  ``α·f_w + β·popcount(ring)`` where the frequency is likewise decayed
  geometrically (a practical stand-in for exact windowed counts, which
  would need per-period frequency storage).

The CLOCK machinery is unnecessary here: the ring *is* per-period
presence, so there is no harvesting deviation by construction.  Memory:
W bits replace the 32-bit counter + flags, so W ≤ 32 keeps the paper's
12-byte cell.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from repro import obs, sanitize
from repro.hashing.family import splitmix64
from repro.metrics.memory import MemoryBudget
from repro.summaries.base import ItemReport, StreamSummary


def _popcount(x: int) -> int:
    return bin(x).count("1")


class WindowedLTC(StreamSummary):
    """Top-k significant items over a sliding window of W periods.

    Args:
        num_buckets: Bucket count ``w``.
        window: Window length ``W`` in periods (≤ 32 to keep the 12-byte
            cell of the memory model).
        bucket_width: Cells per bucket ``d``.
        alpha: Weight of the (decayed) frequency.
        beta: Weight of the windowed persistency.
        decay: Per-period multiplier applied to frequencies (defaults to
            ``1 − 1/W`` so frequency mass has roughly the window's
            horizon).
        seed: Bucket-hash seed.
    """

    def __init__(
        self,
        num_buckets: int,
        window: int,
        bucket_width: int = 8,
        alpha: float = 1.0,
        beta: float = 1.0,
        decay: Optional[float] = None,
        seed: int = 0x17C,
    ) -> None:
        if num_buckets < 1 or bucket_width < 1:
            raise ValueError("num_buckets and bucket_width must be >= 1")
        if not 1 <= window <= 32:
            raise ValueError("window must be in [1, 32]")
        if alpha < 0 or beta < 0 or (alpha == 0 and beta == 0):
            raise ValueError("invalid significance weights")
        self.num_buckets = num_buckets
        self.bucket_width = bucket_width
        self.window = window
        self.alpha = alpha
        self.beta = beta
        self.decay = decay if decay is not None else 1.0 - 1.0 / window
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError("decay must be in [0, 1]")
        self._seed = splitmix64(seed)
        m = num_buckets * bucket_width
        self._keys: List[Optional[int]] = [None] * m
        self._freqs: List[float] = [0.0] * m
        self._rings: List[int] = [0] * m
        self._ring_mask = (1 << window) - 1
        self._m_batch = obs.batch_size_histogram(type(self).__name__)
        if sanitize.env_enabled():
            sanitize.install_windowed(self)

    @classmethod
    def from_memory(
        cls, budget: MemoryBudget, window: int, bucket_width: int = 8, **kwargs: Any
    ) -> "WindowedLTC":
        """Size for a byte budget (12 bytes/cell as in the base LTC)."""
        return cls(
            num_buckets=budget.ltc_buckets(bucket_width),
            window=window,
            bucket_width=bucket_width,
            **kwargs,
        )

    # ------------------------------------------------------------- updates
    def _sig(self, j: int) -> float:
        return self.alpha * self._freqs[j] + self.beta * _popcount(self._rings[j])

    def insert(self, item: int) -> None:
        """Process one arrival of ``item``."""
        d = self.bucket_width
        base = (splitmix64(item ^ self._seed) % self.num_buckets) * d
        keys = self._keys
        empty = -1
        for j in range(base, base + d):
            key = keys[j]
            if key == item:
                self._freqs[j] += 1.0
                self._rings[j] |= 1
                return
            if key is None and empty < 0:
                empty = j
        if empty >= 0:
            keys[empty] = item
            self._freqs[empty] = 1.0
            self._rings[empty] = 1
            return
        # Significance decrementing, windowed flavour: shrink the victim's
        # frequency by 1 and clear its oldest presence bit.
        jmin = min(range(base, base + d), key=self._sig)
        if self._freqs[jmin] >= 1.0:
            self._freqs[jmin] -= 1.0
        ring = self._rings[jmin]
        if ring:
            # Clear the most significant (oldest) set bit.
            self._rings[jmin] = ring & ~(1 << (ring.bit_length() - 1))
        if self._sig(jmin) <= 0:
            keys[jmin] = item
            self._freqs[jmin] = 1.0
            self._rings[jmin] = 1

    def insert_many(self, items: Iterable[int]) -> None:
        """Batched arrivals: :meth:`insert` per event, in order.

        No fold pays here.  Consecutive repeats, the only arrivals a
        fold could skip the probe for, are 0.5–6.5% of the paper
        datasets' substitutes, and a run of hits must still add its
        ``1.0``s one at a time: ``f + 1.0 + 1.0`` and ``f + 2.0`` can
        round differently once frequencies have decayed.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if self._m_batch is not None:
            self._m_batch.observe(len(items))
        insert = self.insert
        for item in items:
            insert(item)

    def end_period(self) -> None:
        """Shift the window: age rings, decay frequencies, drop dead cells.

        The dead-cell sweep is frequency-driven, so it only applies when
        frequency carries weight (``alpha > 0``).  In persistency-only
        mode (``alpha == 0``) a cell whose ring just aged to zero is kept:
        its significance is already 0, so it is the first victim of any
        bucket-full replacement, but evicting it eagerly would discard
        the decayed frequency history of an item that may still be a
        within-window candidate the moment it reappears.
        """
        mask = self._ring_mask
        decay = self.decay
        sweep_dead = self.alpha > 0
        for j in range(len(self._keys)):
            if self._keys[j] is None:
                continue
            self._rings[j] = (self._rings[j] << 1) & mask
            self._freqs[j] *= decay
            if sweep_dead and self._rings[j] == 0 and self._freqs[j] < 0.5:
                self._keys[j] = None
                self._freqs[j] = 0.0

    # ------------------------------------------------------------- queries
    def estimate(self, item: int) -> Tuple[float, int]:
        """(decayed frequency, windowed persistency) of ``item``."""
        d = self.bucket_width
        base = (splitmix64(item ^ self._seed) % self.num_buckets) * d
        for j in range(base, base + d):
            if self._keys[j] == item:
                return self._freqs[j], _popcount(self._rings[j])
        return 0.0, 0

    def query(self, item: int) -> float:
        """Estimate the summary's ranking quantity for ``item``."""
        f, p = self.estimate(item)
        return self.alpha * f + self.beta * p

    def top_k(self, k: int) -> List[ItemReport]:
        """Report up to the k items with the largest estimates."""
        reports = [
            ItemReport(
                item=key,
                significance=self._sig(j),
                frequency=self._freqs[j],
                persistency=float(_popcount(self._rings[j])),
            )
            for j, key in enumerate(self._keys)
            if key is not None
        ]
        reports.sort(key=lambda r: (-r.significance, r.item))
        return reports[:k]

    def __len__(self) -> int:
        return sum(1 for key in self._keys if key is not None)
