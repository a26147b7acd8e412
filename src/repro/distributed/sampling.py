"""Coordinated sampling with per-period presence bitmaps.

Every site samples the *same* pseudo-random item subset (same hash, same
threshold), and for each sampled item records a bitmap of the periods in
which the site saw it.  Because presence bitmaps OR losslessly, a
coordinator can reconstruct the exact global frequency and persistency of
every sampled item no matter how arrivals were spread across sites —
the property that makes coordinated sampling attractive for distributed
streams (paper §II-B, refs [17]/[30]).  The price is recall: items outside
the sample are invisible everywhere.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.hashing.family import HashFamily
from repro.summaries.base import ItemReport, StreamSummary

_HASH_SPACE = 1 << 64


class CoordinatedSampler(StreamSummary):
    """Per-site sampler recording exact stats of the sampled subset.

    Args:
        sample_rate: Inclusion probability (identical at every site).
        seed: Sampling-hash seed (identical at every site — that is the
            "coordinated" part).
    """

    def __init__(self, sample_rate: float, seed: int = 0xC00D) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        self.sample_rate = sample_rate
        self.seed = seed
        self._hash = HashFamily(seed).member(0)
        self._threshold = int(sample_rate * _HASH_SPACE)
        self._freq: Dict[int, int] = {}
        self._presence: Dict[int, int] = {}  # item -> period bitmap
        self._period = 0

    def insert(self, item: int) -> None:
        """Process one arrival (sampled items only)."""
        if self._hash(item) >= self._threshold:
            return
        self._freq[item] = self._freq.get(item, 0) + 1
        self._presence[item] = self._presence.get(item, 0) | (1 << self._period)

    def insert_many(self, items: Iterable[int]) -> None:
        """Batched arrivals, replay-identical to per-event :meth:`insert`."""
        threshold = self._threshold
        sample_hash = self._hash
        bit = 1 << self._period
        freq = self._freq
        presence = self._presence
        for item in items:
            if sample_hash(item) < threshold:
                freq[item] = freq.get(item, 0) + 1
                presence[item] = presence.get(item, 0) | bit

    def end_period(self) -> None:
        """Advance to the next period's bitmap bit."""
        self._period += 1

    def query(self, item: int) -> float:
        """Exact local persistency of a sampled item (0 otherwise)."""
        return float(bin(self._presence.get(item, 0)).count("1"))

    def top_k(self, k: int) -> List[ItemReport]:
        """Locally most persistent sampled items."""
        ranked = sorted(
            self._presence.items(),
            key=lambda kv: (-bin(kv[1]).count("1"), kv[0]),
        )
        return [
            ItemReport(
                item=item,
                significance=float(bin(bits).count("1")),
                frequency=float(self._freq[item]),
                persistency=float(bin(bits).count("1")),
            )
            for item, bits in ranked[:k]
        ]

    # ------------------------------------------------------------ shipping
    def export(self) -> "list[tuple[int, int, int]]":
        """The site's report: ``(item, frequency, presence_bitmap)`` rows."""
        return [
            (item, self._freq[item], bits)
            for item, bits in self._presence.items()
        ]

    def export_bytes(self) -> int:
        """Communication cost of :meth:`export`.

        4B id + 4B frequency + one byte per 8 tracked periods.
        """
        bitmap_bytes = max(1, (self._period + 7) // 8)
        return len(self._presence) * (8 + bitmap_bytes)


def combine_reports(
    reports: "list[list[tuple[int, int, int]]]",
) -> Dict[int, Tuple[int, int]]:
    """OR/ADD site reports into global ``item -> (frequency, bitmap)``."""
    combined: Dict[int, Tuple[int, int]] = {}
    for report in reports:
        for item, freq, bits in report:
            old_freq, old_bits = combined.get(item, (0, 0))
            combined[item] = (old_freq + freq, old_bits | bits)
    return combined
