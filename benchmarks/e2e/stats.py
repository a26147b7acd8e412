"""Percentiles and quartiles (pure functions, unit-tested)."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Tail percentiles tried, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 75.0)
#: The tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """Nearest rank of the ``p``-th percentile of ``n`` samples (1-based)."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; failures enter as ``math.inf``."""
    if not samples:
        raise ValueError("no samples")
    return sorted(samples)[_rank(len(samples), p) - 1]


def supported(n: int, p: float) -> bool:
    """Whether ``n`` samples leave at least ``MIN_BEYOND`` beyond ``p``."""
    return n - _rank(n, p) >= MIN_BEYOND


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile ``n`` samples support, if any."""
    for p in TAIL_CANDIDATES:
        if supported(n, p):
            return p
    return None


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, p75, p90, the supported tail, p99 and max of one series."""
    n = len(samples)
    out: Dict[str, float] = {"n": float(n)}
    if not n:
        return out
    out["p50"] = percentile(samples, 50)
    out["p75"] = percentile(samples, 75)
    out["p90"] = percentile(samples, 90)
    out["p99"] = percentile(samples, 99)
    out["max"] = max(samples)
    tail = tail_percentile(n)
    if tail is not None:
        out["tail_p"] = tail
        out["tail"] = percentile(samples, tail)
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0
