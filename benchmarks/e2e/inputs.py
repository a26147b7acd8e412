"""Seeded input streams and exact answers, owned by the benchmark.

The generators live here rather than in ``repro.streams`` so that a
change to the program cannot change the benchmark's inputs: the same
seed gives the same int64 events on every commit.  Shapes follow the
program's own generators (``zipf_stream``, ``network_like``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def _zipf_counts(num_events: int, num_distinct: int, skew: float) -> np.ndarray:
    """Exact per-rank counts summing to ``num_events`` (largest remainder)."""
    weights = 1.0 / np.arange(1, num_distinct + 1, dtype=np.float64) ** skew
    raw = num_events * weights / weights.sum()
    counts = raw.astype(np.int64)
    remainder = num_events - int(counts.sum())
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:remainder]] += 1
    return counts[counts > 0]


def _distinct_ids(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` distinct ids from the 32-bit space, in random order."""
    ids = np.unique(rng.integers(0, 1 << 32, size=count + count // 8 + 64))
    while len(ids) < count:
        ids = np.unique(np.concatenate([ids, rng.integers(0, 1 << 32, size=count)]))
    return rng.permutation(ids)[:count]


def zipf_events(
    num_events: int, num_distinct: int, skew: float, seed: int
) -> np.ndarray:
    """A temporally uniform Zipf stream (every item spread over the run)."""
    rng = np.random.default_rng(seed)
    counts = _zipf_counts(num_events, num_distinct, skew)
    ids = _distinct_ids(rng, len(counts))
    return rng.permutation(np.repeat(ids, counts))


def network_like_events(
    num_events: int,
    num_distinct: int,
    seed: int,
    skew: float = 0.9,
    burst_fraction: float = 0.45,
    burst_width: float = 0.08,
    num_periods: int = 100,
) -> np.ndarray:
    """Zipf counts with bursty items: heavy churn, frequency ≠ persistency.

    A ``burst_fraction`` share of items place all arrivals inside one
    window of relative width up to ``burst_width``; the rest arrive
    uniformly.  Events are ordered by arrival time.
    """
    rng = np.random.default_rng(seed)
    counts = _zipf_counts(num_events, num_distinct, skew)
    ids = _distinct_ids(rng, len(counts))
    bursty = rng.random(len(counts)) < burst_fraction
    width = np.where(
        bursty, np.maximum(burst_width * rng.random(len(counts)), 1.0 / num_periods), 1.0
    )
    start = np.where(bursty, rng.random(len(counts)) * (1.0 - width), 0.0)
    owner = np.repeat(np.arange(len(counts)), counts)
    times = start[owner] + rng.random(len(owner)) * width[owner]
    return ids[owner][np.argsort(times, kind="stable")]


def period_bounds(num_events: int, period: int) -> List[Tuple[int, int]]:
    """``(start, end)`` of each full or final partial period of ``period`` events."""
    return [(s, min(s + period, num_events)) for s in range(0, num_events, period)]


def _runs(ordered: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct values of a sorted array and how often each occurs."""
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))
    return ordered[starts], np.diff(np.append(starts, len(ordered)))


def exact_top_k(
    events: np.ndarray, period: int, k: int, alpha: float = 1.0, beta: float = 1.0
) -> List[Tuple[int, float]]:
    """Exact top-k ``(item, α·f + β·p)``, ranked by ``(-significance, item)``.

    Periods are consecutive runs of ``period`` events; persistency counts
    the periods an item occurs in.  Matches ``GroundTruth.top_k``.  Ids
    must fit in 32 bits, as the generators here make them.
    """
    if len(events) and (events.min() < 0 or events.max() >= 1 << 32):
        raise ValueError("event ids must fit in 32 bits")
    items, freq = _runs(np.sort(events))
    periods = np.arange(len(events), dtype=np.int64) // period
    pairs = np.sort((periods << 32) | events)
    present, _ = _runs(pairs)
    _, pers = _runs(np.sort(present & 0xFFFFFFFF))
    sig = alpha * freq + beta * pers
    order = np.lexsort((items, -sig))[:k]
    return [(int(items[i]), float(sig[i])) for i in order]


def precision(reported: List[int], exact: List[Tuple[int, float]]) -> float:
    """Share of the exact top-k that the reported list contains."""
    truth = {item for item, _ in exact}
    return len(truth.intersection(reported)) / max(1, len(truth))
