"""repro.obs — low-overhead observability for the ingestion engine.

A process-global metrics registry with three primitives (counters,
gauges, fixed-bucket histograms), a no-op :class:`NullRegistry` that
makes disabled observability cost ~nothing on the hot paths, and two
exporters (Prometheus text exposition, JSON snapshot files).

Usage::

    from repro import obs

    obs.enable()                       # install a fresh live registry
    ...build structures, run streams...
    print(obs.export.prometheus_text(obs.registry()))
    obs.export.write_json_snapshot(obs.registry(), "metrics.json")
    obs.disable()                      # back to the shared null registry

Design contract (DESIGN.md, "Observability: the null-registry
strategy"):

* observability is **off by default**; :func:`registry` then returns the
  shared :class:`NullRegistry` whose metrics are shared no-op objects;
* instrumented constructors capture the active registry **once** — call
  :func:`enable` *before* building the structures you want metered;
* metrics never feed back into algorithm state, so enabling them cannot
  change any report (differentially tested in ``tests/test_obs.py``).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.obs import export
from repro.obs.registry import (
    DEFAULT_BATCH_SIZE_BUCKETS,
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_RATIO_BUCKETS",
    "DEFAULT_BATCH_SIZE_BUCKETS",
    "enable",
    "disable",
    "is_enabled",
    "registry",
    "export",
    "batch_size_histogram",
]

_NULL = NullRegistry()
_active: Union[MetricsRegistry, NullRegistry] = _NULL


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Turn observability on and return the active registry.

    Installs ``registry`` when given, otherwise a **fresh**
    :class:`MetricsRegistry` (pass the previous registry back in to
    accumulate across runs).  Structures capture the active registry at
    construction time, so enable observability before building them.
    """
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable() -> None:
    """Turn observability off (hot paths fall back to the null registry)."""
    global _active
    _active = _NULL


def is_enabled() -> bool:
    """Whether a live registry is installed."""
    return _active.enabled


def registry() -> Union[MetricsRegistry, NullRegistry]:
    """The active registry (the shared null registry when disabled)."""
    return _active


def batch_size_histogram(summary: str) -> Optional[Histogram]:
    """Capture-at-construction helper for ``insert_many`` batch sizes.

    Returns the ``summary_insert_many_batch_size`` histogram labelled with
    ``summary`` when observability is enabled, else ``None`` — callers
    store the result once and guard the hot path with ``is not None``,
    matching the null-registry strategy used by LTC.
    """
    active = _active
    if isinstance(active, NullRegistry) or not active.enabled:
        return None
    return active.histogram(
        "summary_insert_many_batch_size",
        "Items per insert_many call, by summary class",
        buckets=DEFAULT_BATCH_SIZE_BUCKETS,
        labels={"summary": summary},
    )
