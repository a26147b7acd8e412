"""Merging LTC summaries from partitioned streams (extension).

Use case 3 of the paper motivates a *global* view over many vantage
points ("If persistent flows all over the data center can be efficiently
identified, we can make a global solution…").  This module merges LTC
summaries built on partitions of one logical stream.

Semantics depend on how the stream was partitioned:

* **item-sharded** (each item's arrivals all go to one summary — e.g.
  shard by ``hash(item) % shards``): the merge is **exact up to bucket
  capacity** — per-item statistics appear in exactly one input, so the
  merged cell values are the inputs' values; only the top-d-per-bucket
  cut can lose (insignificant) items.
* **arbitrary split** (the same item may appear in several summaries):
  frequencies add exactly; persistency addition over-counts periods in
  which the item was seen by several summaries, so the merged persistency
  is an upper bound clipped to the period count.

All inputs must share the structural configuration (w, d, α, β, seed):
cells can then be combined bucket-by-bucket.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.ltc import EMPTY_KEY, LTC


# reprolint: detached — fills a freshly constructed, unobserved LTC; listeners attach only after the merge result is returned
def merge(
    summaries: Sequence[LTC],
    num_periods: Optional[int] = None,
    *,
    check_period: bool = True,
) -> LTC:
    """Merge LTC summaries into a new LTC of the first input's class
    with the shared configuration.

    Inputs should be finalized (all flags harvested); pending flags are
    folded in defensively.  Bucket overflow keeps the d most significant
    merged cells.

    Args:
        summaries: Two or more LTCs with identical structural config.
        num_periods: Total periods of the logical stream; when given,
            merged persistency is clipped to it (relevant for arbitrary
            splits where addition over-counts).
        check_period: Also require identical ``items_per_period``.  Leave
            on for same-stream checkpoint merging; coordinators whose
            sites share the *logical* period structure but see different
            arrival counts per period (so each site's CLOCK runs at its
            own rate) disable it deliberately.
    """
    if not summaries:
        raise ValueError("nothing to merge")
    first = summaries[0]
    for other in summaries[1:]:
        _check_compatible(first, other, check_period=check_period)

    merged = type(first)(first.config)
    alpha, beta = first.config.alpha, first.config.beta
    d = first.config.bucket_width
    for bucket in range(first.config.num_buckets):
        base = bucket * d
        combined: Dict[int, Tuple[int, int]] = {}
        for summary in summaries:
            for j in range(base, base + d):
                key = summary._keys[j]
                if key == EMPTY_KEY:
                    continue
                # int() casts: columnar inputs hold numpy scalars, and a
                # merged reference LTC must stay plain-int for serialization.
                freq = int(summary._freqs[j])
                counter = int(summary._counters[j])
                # Fold pending flags so un-finalized inputs merge sanely.
                bits = int(summary._flags[j])
                counter += (bits & 1) + (bits >> 1 & 1)
                if key in combined:
                    old_f, old_c = combined[key]
                    freq += old_f
                    counter += old_c
                if num_periods is not None:
                    counter = min(counter, num_periods)
                combined[key] = (freq, counter)
        winners = sorted(
            combined.items(),
            key=lambda kv: (-(alpha * kv[1][0] + beta * kv[1][1]), kv[0]),
        )[:d]
        for slot, (key, (freq, counter)) in enumerate(winners):
            j = base + slot
            merged._keys[j] = key
            merged._freqs[j] = freq
            merged._counters[j] = counter
            merged._flags[j] = 0
    return merged


def _check_compatible(a: LTC, b: LTC, *, check_period: bool = True) -> None:
    ca, cb = a.config, b.config
    fields = [
        "num_buckets",
        "bucket_width",
        "alpha",
        "beta",
        "seed",
        # Flag semantics (one vs two flag bits per cell) must line up for
        # the defensive pending-flag fold to mean the same thing.
        "deviation_eliminator",
        # Different policies produce cells with incomparable biases
        # (e.g. space-saving overestimates).
        "replacement_policy",
    ]
    if check_period:
        fields.append("items_per_period")
    for field in fields:
        if getattr(ca, field) != getattr(cb, field):
            raise ValueError(
                f"incompatible LTC configs: {field} differs "
                f"({getattr(ca, field)} vs {getattr(cb, field)})"
            )
