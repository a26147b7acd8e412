"""Split a logical periodic stream across monitoring sites.

Period structure is preserved: period ``p`` of every per-site stream
contains exactly the site's share of the logical period ``p``, so
persistency semantics line up across the system.
"""

from __future__ import annotations

import random
from typing import List

import numpy as _np

from repro.hashing.family import as_key_array, splitmix64, splitmix64_array
from repro.streams.model import PeriodicStream


def _assemble(
    per_site_periods: "list[list[list[int]]]", source: PeriodicStream
) -> List[PeriodicStream]:
    streams: List[PeriodicStream] = []
    for site, periods in enumerate(per_site_periods):
        events: List[int] = []
        boundaries: List[int] = []
        for index, block in enumerate(periods):
            events.extend(block)
            if index < len(periods) - 1:
                boundaries.append(len(events))
        # Period sizes vary per site, so reuse the boundary-based stream.
        from repro.streams.io import TimeBinnedStream

        streams.append(
            TimeBinnedStream(
                events=events,
                boundaries=boundaries,
                name=f"{source.name}@site{site}",
            )
        )
    return streams


def shard_of(item: int, num_sites: int, seed: int = 0xD15C) -> int:
    """The site owning ``item`` under the item-sharded split.

    Deterministic and shared between the partitioner and any external
    router: site ``s`` owns exactly the key range
    ``{x : splitmix64(x ^ seed) % num_sites == s}``.
    """
    return splitmix64(item ^ seed) % num_sites


def partition_sharded(
    stream: PeriodicStream, num_sites: int, seed: int = 0xD15C
) -> List[PeriodicStream]:
    """Item-sharded split: all of an item's arrivals go to one site.

    Models traffic entering the fabric at the item's ingress point — the
    regime where :func:`repro.core.merge.merge` is exact.  Site
    assignment is :func:`shard_of`, computed in one vectorised pass
    (bit-for-bit identical per item — see
    :func:`repro.hashing.family.splitmix64_array`).
    """
    if num_sites < 1:
        raise ValueError("num_sites must be >= 1")
    per_site: List[List[List[int]]] = [
        [[] for _ in range(stream.num_periods)] for _ in range(num_sites)
    ]
    keys = as_key_array(stream.events)
    sites = (
        splitmix64_array(keys ^ _np.uint64(seed % (1 << 64)))
        % _np.uint64(num_sites)
    ).tolist()
    # Index the source list so sites receive the original Python int
    # objects, not numpy scalars.
    events = stream.events
    for period_index, (start, end) in enumerate(stream.period_slices()):
        for index in range(start, end):
            per_site[sites[index]][period_index].append(events[index])
    return _assemble(per_site, stream)


def partition_random(
    stream: PeriodicStream, num_sites: int, seed: int = 0xEC3B
) -> List[PeriodicStream]:
    """Uniform random split: each arrival goes to a random site.

    Models per-packet load balancing — an item's arrivals (and therefore
    its per-period presence) are spread over all sites, the regime where
    naive summary merging over-counts persistency.
    """
    if num_sites < 1:
        raise ValueError("num_sites must be >= 1")
    rng = random.Random(seed)
    per_site: List[List[List[int]]] = [
        [[] for _ in range(stream.num_periods)] for _ in range(num_sites)
    ]
    for period_index, period in enumerate(stream.iter_periods()):
        for item in period:
            per_site[rng.randrange(num_sites)][period_index].append(item)
    return _assemble(per_site, stream)
