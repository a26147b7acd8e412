"""Distributed stream monitoring (extension; paper use case 3 & §II-B).

Use case 3 of the paper closes with the need to identify persistent flows
"all over the data center"; its related work cites coordinated sampling
for distributed streams.  This package simulates that setting: a logical
stream is split across monitoring *sites*, each site runs a small summary
locally, and a *coordinator* combines the summaries — paying only the
communication cost of shipping them.

Two coordination strategies are provided:

* :class:`~repro.distributed.coordinator.MergingCoordinator` — every site
  runs an identically configured LTC; the coordinator merges the
  serialized tables (exact for item-sharded partitions);
* :class:`~repro.distributed.coordinator.SamplingCoordinator` — every
  site runs a coordinated sampler (same hash ⇒ same item subset
  everywhere) reporting per-period presence bitmaps; the coordinator ORs
  the bitmaps, so sampled items are *exact* even under arbitrary
  partitions — but unsampled items are invisible.

``repro.distributed.partition`` splits a stream by item hash (each item's
traffic enters at one site; :func:`~repro.distributed.partition.shard_of`
is the routing function) or uniformly at random (ECMP-like spraying).
"""

from repro.distributed.partition import (
    partition_random,
    partition_sharded,
    shard_of,
)
from repro.distributed.sampling import CoordinatedSampler
from repro.distributed.coordinator import (
    CoordinatorReport,
    MergingCoordinator,
    SamplingCoordinator,
)

__all__ = [
    "partition_sharded",
    "partition_random",
    "shard_of",
    "CoordinatedSampler",
    "MergingCoordinator",
    "SamplingCoordinator",
    "CoordinatorReport",
]
