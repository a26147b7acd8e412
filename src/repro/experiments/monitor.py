"""Continuous top-k monitoring with churn tracking (extension).

The paper's website-evaluation use case wants "the rank … updated in
real time".  :class:`TopKMonitor` wraps any summary, snapshots its top-k
at every period boundary, and reports ranking *churn* — which items
entered, which left, and how stable the set is over time.  Churn is
itself a useful signal: a stable top-k means the significant set has
converged; heavy churn flags regime change (or an attack — see
``repro.streams.adversarial``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Set

from repro.summaries.base import ItemReport


@dataclass(frozen=True)
class ChurnEvent:
    """The top-k delta at one period boundary."""

    period: int
    entered: Set[int]
    left: Set[int]

    @property
    def churn(self) -> int:
        """Number of membership changes at this boundary."""
        return len(self.entered) + len(self.left)


@dataclass
class TopKMonitor:
    """Period-by-period top-k snapshots over any summary.

    Drive it exactly like the wrapped summary; it forwards every call and
    records a snapshot on each ``end_period``.

    Args:
        summary: The wrapped summary (any :class:`StreamSummary`).
        k: Top-k size to monitor.
    """

    summary: Any
    k: int
    snapshots: List[List[int]] = field(default_factory=list)
    events: List[ChurnEvent] = field(default_factory=list)

    def insert(self, item: int) -> None:
        """Forwarded arrival."""
        self.summary.insert(item)

    def insert_many(self, items: Iterable[int]) -> None:
        """Forwarded batch of arrivals."""
        self.summary.insert_many(items)

    def end_period(self) -> None:
        """Forward the boundary, then snapshot the top-k and diff it."""
        end_period = getattr(self.summary, "end_period", None)
        if end_period is not None:
            end_period()
        current = [r.item for r in self.summary.top_k(self.k)]
        if self.snapshots:
            previous = set(self.snapshots[-1])
            now = set(current)
            self.events.append(
                ChurnEvent(
                    period=len(self.snapshots),
                    entered=now - previous,
                    left=previous - now,
                )
            )
        self.snapshots.append(current)

    def finalize(self) -> None:
        """Forwarded stream-end flush."""
        finalize = getattr(self.summary, "finalize", None)
        if finalize is not None:
            finalize()

    def query(self, item: int) -> float:
        """Forwarded point query."""
        return float(self.summary.query(item))

    def top_k(self, k: int) -> List[ItemReport]:
        """Forwarded top-k."""
        return list(self.summary.top_k(k))

    # ------------------------------------------------------------- analysis
    def total_churn(self) -> int:
        """Total membership changes across all boundaries."""
        return sum(event.churn for event in self.events)

    def mean_churn(self) -> float:
        """Average membership changes per boundary (0 when < 2 periods)."""
        if not self.events:
            return 0.0
        return self.total_churn() / len(self.events)

    def stabilised_at(self, quiet_periods: int = 3) -> "int | None":
        """First period after which the top-k stayed unchanged for
        ``quiet_periods`` consecutive boundaries (None if never)."""
        run = 0
        for event in self.events:
            run = run + 1 if event.churn == 0 else 0
            if run >= quiet_periods:
                return event.period - quiet_periods + 1
        return None

    def tenure(self, item: int) -> int:
        """Number of snapshots in which ``item`` was in the top-k."""
        return sum(1 for snapshot in self.snapshots if item in snapshot)
