"""The periodic data-stream model used throughout the library.

Following the paper's problem definition, a stream is a sequence of item
arrivals divided into ``T`` equal-sized periods.  :class:`PeriodicStream`
stores the arrivals (integer item identifiers) together with the period
structure and knows how to drive any summary that implements the small
protocol ``insert_many(items)`` / ``end_period()`` / ``finalize()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class StreamStats:
    """Summary statistics of a stream (used in reports and tests)."""

    name: str
    num_events: int
    num_distinct: int
    num_periods: int

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.num_events} events, "
            f"{self.num_distinct} distinct items, {self.num_periods} periods"
        )


@dataclass
class PeriodicStream:
    """A data stream of integer item ids divided into equal periods.

    Args:
        events: Item arrivals in stream order.
        num_periods: Number of equal-sized periods ``T``.  The last period
            absorbs the remainder when ``len(events)`` is not divisible.
        name: Human-readable label used in experiment reports.
    """

    events: List[int]
    num_periods: int
    name: str = "stream"
    _distinct: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        """Count-based streams cannot have more periods than events;
        subclasses with explicit boundaries may relax this."""
        if self.num_periods < 1:
            raise ValueError("num_periods must be >= 1")
        if self.num_periods > max(len(self.events), 1):
            raise ValueError("num_periods cannot exceed the number of events")

    def __len__(self) -> int:
        return len(self.events)

    @property
    def period_length(self) -> int:
        """Number of arrivals per period (the paper's ``n``)."""
        return max(1, len(self.events) // self.num_periods)

    @property
    def stats(self) -> StreamStats:
        """Summary statistics of the stream."""
        if not self._distinct:
            self._distinct = len(set(self.events))
        return StreamStats(
            name=self.name,
            num_events=len(self.events),
            num_distinct=self._distinct,
            num_periods=self.num_periods,
        )

    def period_of(self, event_index: int) -> int:
        """Return the period index of the arrival at ``event_index``."""
        return min(event_index // self.period_length, self.num_periods - 1)

    def period_slices(self) -> List[Tuple[int, int]]:
        """Return each period's ``(start, end)`` event-index range, in order.

        The single source of truth for period structure: ``iter_periods``
        slices ``events`` by these ranges.
        Count-based streams cut equal slices with the last period absorbing
        the remainder; boundary-based subclasses override this.
        """
        n = self.period_length
        slices: List[Tuple[int, int]] = []
        for p in range(self.num_periods):
            start = p * n
            end = len(self.events) if p == self.num_periods - 1 else start + n
            slices.append((start, end))
        return slices

    def iter_periods(self) -> Iterator[Sequence[int]]:
        """Yield the arrivals of each period, in order."""
        for start, end in self.period_slices():
            yield self.events[start:end]

    def run(self, summary: Any) -> None:
        """Feed the entire stream through ``summary``, one period at a time.

        Calls ``summary.insert_many(period)`` with each period's arrivals,
        ``end_period()`` after each period boundary if the summary defines
        it, and ``finalize()`` once at the end if defined.  Every
        summary's ``insert_many`` is pinned replay-identical to per-event
        ``insert`` (the per-event replay itself is
        :func:`repro.metrics.throughput.run_per_event`).
        """
        insert_many = summary.insert_many
        end_period = getattr(summary, "end_period", None)
        for period in self.iter_periods():
            insert_many(period)
            if end_period is not None:
                end_period()
        finalize = getattr(summary, "finalize", None)
        if finalize is not None:
            finalize()

    def head(self, num_events: int, name: str | None = None) -> "PeriodicStream":
        """Return a prefix of the stream with a proportional period count."""
        num_events = min(num_events, len(self.events))
        periods = max(1, self.num_periods * num_events // max(len(self.events), 1))
        return PeriodicStream(
            events=self.events[:num_events],
            num_periods=periods,
            name=name or f"{self.name}-head{num_events}",
        )
