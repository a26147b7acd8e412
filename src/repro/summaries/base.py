"""The common stream-summary protocol and report record."""

from __future__ import annotations

import abc
from typing import Iterable, List, NamedTuple


def as_items(items: Iterable[int]) -> Iterable[int]:
    """A batch's items as Python ints: numpy arrays become lists.

    Kernels store batch items as cell keys and hash them with
    :func:`repro.hashing.family.splitmix64`; a numpy integer scalar
    overflows that hash's xor with the 64-bit seed and would leak into
    the key column.  Coercing once at the batch boundary keeps ndarray
    input replay-identical to the same items passed as a list.
    """
    tolist = getattr(items, "tolist", None)
    if tolist is None:
        return items
    converted: List[int] = tolist()
    return converted


class ItemReport(NamedTuple):
    """One reported item with its estimated statistics.

    ``frequency`` and ``persistency`` are estimates; summaries that track
    only one dimension fill the other with 0.  ``significance`` is the
    quantity the summary ranks by (for frequent-only summaries it equals
    the frequency estimate).
    """

    item: int
    significance: float
    frequency: float = 0.0
    persistency: float = 0.0


class StreamSummary(abc.ABC):
    """Abstract base for every approximate summary in this library.

    The periodic-stream driver calls :meth:`insert` for each arrival,
    :meth:`end_period` at each period boundary and :meth:`finalize` once at
    stream end.  Structures that ignore periods inherit the no-op defaults.
    """

    @abc.abstractmethod
    def insert(self, item: int) -> None:
        """Process one arrival of ``item``."""

    def insert_many(self, items: Iterable[int]) -> None:
        """Process a batch of arrivals, in order.

        Semantically identical to calling :meth:`insert` per item; the
        default is a plain loop with the method lookup hoisted.
        Overrides take a cheaper batch path where one pays: the LTC
        kernels and most baselines always, Space-Saving and Frequent
        only while their table has room (then they loop over
        :meth:`insert`), and the windowed LTC never (its override only
        records the batch size).  Differential tests pin every override
        cell-for-cell equal to the one-at-a-time reference.
        """
        insert = self.insert
        for item in items:
            insert(item)

    def end_period(self) -> None:
        """React to a period boundary (no-op for frequency-only summaries)."""

    def finalize(self) -> None:
        """Flush end-of-stream state (no-op by default)."""

    @abc.abstractmethod
    def query(self, item: int) -> float:
        """Estimate the summary's ranking quantity for ``item``.

        Returns 0 for items the summary believes it never saw.
        """

    @abc.abstractmethod
    def top_k(self, k: int) -> List[ItemReport]:
        """Report (up to) the k items with the largest estimates."""

    def reported_pairs(self, k: int) -> "list[tuple[int, float]]":
        """Convenience: ``(item, significance)`` pairs for the metrics API."""
        return [(r.item, r.significance) for r in self.top_k(k)]
