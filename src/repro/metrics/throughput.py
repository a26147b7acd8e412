"""Insertion-throughput measurement.

The paper reports million-insertions-per-second on a C++/Xeon testbed; the
absolute numbers here are Python-scale, so benchmarks report *relative*
throughput between algorithms (DESIGN.md §3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.streams.model import PeriodicStream


@dataclass(frozen=True)
class ThroughputResult:
    """Throughput of one summary over one stream."""

    name: str
    events: int
    seconds: float
    mode: str = "per-event"  # "per-event" or "batched"

    @property
    def mops(self) -> float:
        """Million insertions per second."""
        if self.seconds <= 0:
            return float("inf")
        return self.events / self.seconds / 1e6

    @property
    def ops(self) -> float:
        """Insertions per second."""
        return self.mops * 1e6

    def to_dict(self) -> dict:
        """JSON-safe record (consumed by ``BENCH_throughput.json``)."""
        return {
            "name": self.name,
            "mode": self.mode,
            "events": self.events,
            "seconds": self.seconds,
            "ops_per_second": self.ops,
            "mops": self.mops,
        }

    def __str__(self) -> str:
        return (
            f"{self.name} [{self.mode}]: {self.mops:.3f} Mops "
            f"({self.events} events)"
        )


def measure_query_throughput(
    summary,
    items,
    name: str = "summary",
    repeats: int = 1,
) -> ThroughputResult:
    """Measure point-query throughput of an already-populated summary.

    Args:
        summary: Populated summary exposing ``query(item)``.
        items: The keys to probe (a mix of present and absent keys gives
            the most representative number).
        name: Label for the result.
        repeats: Fastest of N passes is reported.
    """
    items = list(items)
    query = summary.query
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        for item in items:
            query(item)
        best = min(best, time.perf_counter() - start)
    return ThroughputResult(name=name, events=len(items), seconds=best)


def run_per_event(stream: PeriodicStream, summary: Any) -> None:
    """Replay ``stream`` through ``summary`` one ``insert(item)`` at a time.

    The per-event twin of :meth:`PeriodicStream.run`: the same
    ``end_period()`` at each boundary and ``finalize()`` at the end, but
    every arrival goes through ``insert``.  It is the per-event side of
    :func:`measure_throughput` and the reference every batch path is
    differentially tested against.
    """
    insert = summary.insert
    end_period = getattr(summary, "end_period", None)
    for period in stream.iter_periods():
        for item in period:
            insert(item)
        if end_period is not None:
            end_period()
    finalize = getattr(summary, "finalize", None)
    if finalize is not None:
        finalize()


def measure_throughput(
    factory,
    stream: PeriodicStream,
    name: str = "summary",
    repeats: int = 1,
    batched: bool = False,
) -> ThroughputResult:
    """Measure end-to-end insertion throughput of a summary.

    Args:
        factory: Zero-argument callable building a fresh summary.
        stream: The workload.
        name: Label for the result.
        repeats: Number of fresh runs; the fastest is reported (standard
            practice to suppress scheduler noise).
        batched: Time ``PeriodicStream.run`` (one ``insert_many`` per
            period) instead of the per-event replay
            :func:`run_per_event`.
    """
    drive = PeriodicStream.run if batched else run_per_event
    best = float("inf")
    for _ in range(max(1, repeats)):
        summary = factory()
        start = time.perf_counter()
        drive(stream, summary)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return ThroughputResult(
        name=name,
        events=len(stream),
        seconds=best,
        mode="batched" if batched else "per-event",
    )


def compare_modes(
    factory,
    stream: PeriodicStream,
    name: str = "summary",
    repeats: int = 2,
) -> "tuple[ThroughputResult, ThroughputResult]":
    """Measure the same summary per-event and batched over one stream."""
    per_event = measure_throughput(
        factory, stream, name=name, repeats=repeats, batched=False
    )
    batched = measure_throughput(
        factory, stream, name=name, repeats=repeats, batched=True
    )
    return per_event, batched
