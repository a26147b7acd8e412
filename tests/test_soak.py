"""Chaos soak: long random operation sequences across every summary.

One extended randomized run per summary class, interleaving inserts,
period boundaries, mid-stream queries, top-k calls and (where supported)
finalize — the access pattern of a long-lived service rather than the
tidy run/evaluate cycle.  Invariants are checked throughout; the goal is
to shake out state-machine bugs that scripted tests never reach.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.combined.two_structure import TwoStructureSignificant
from repro.core.columnar import ColumnarLTC
from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.core.windowed import WindowedLTC
from repro.membership.bloom import BloomFilter
from repro.persistent.pie import PIE
from repro.persistent.sketch_persistent import SketchPersistent
from repro.persistent.small_space import SmallSpacePersistent
from repro.persistent.ss_persistent import SpaceSavingPersistent
from repro.sketches.count_min import CountMinSketch
from repro.sketches.cu import CUSketch
from repro.sketches.topk import SketchTopK
from repro.summaries.frequent import Frequent
from repro.summaries.lossy_counting import LossyCounting
from repro.summaries.space_saving import SpaceSaving


def build_all():
    return {
        "LTC": LTC(
            LTCConfig(num_buckets=4, bucket_width=4, items_per_period=37)
        ),
        "ColumnarLTC": ColumnarLTC(
            LTCConfig(num_buckets=4, bucket_width=4, items_per_period=37)
        ),
        "WindowedLTC": WindowedLTC(num_buckets=4, window=5, bucket_width=4),
        "SpaceSaving": SpaceSaving(24),
        "LossyCounting": LossyCounting(24),
        "Frequent": Frequent(24),
        "SketchTopK": SketchTopK(CUSketch(128, rows=3), 12),
        "PIE": PIE(cells_per_period=256),
        "SketchPersistent": SketchPersistent(
            CountMinSketch(128, rows=3), BloomFilter(2048), 12
        ),
        "SpaceSavingPersistent": SpaceSavingPersistent(24, BloomFilter(2048)),
        "SmallSpacePersistent": SmallSpacePersistent(64, sample_rate=0.5),
        "TwoStructure": TwoStructureSignificant(
            CountMinSketch(128, rows=3),
            CountMinSketch(128, rows=3),
            BloomFilter(2048),
            12,
            1.0,
            1.0,
        ),
    }


# The scheduled nightly CI job soaks 10x longer (REPRO_SOAK_STEPS=60000).
SOAK_STEPS = int(os.environ.get("REPRO_SOAK_STEPS", "6000"))


@pytest.mark.parametrize("name", sorted(build_all()))
def test_soak(name):
    rng = random.Random(hash(name) & 0xFFFF)
    summary = build_all()[name]
    supports_finalize = hasattr(summary, "finalize")
    for step in range(SOAK_STEPS):
        roll = rng.random()
        if roll < 0.80:
            summary.insert(rng.randrange(300))
        elif roll < 0.88:
            summary.end_period()
        elif roll < 0.95:
            value = summary.query(rng.randrange(400))
            assert value == value  # not NaN
            assert value >= -1e12
        else:
            k = rng.randint(1, 20)
            top = summary.top_k(k)
            assert len(top) <= k
            sigs = [r.significance for r in top]
            assert sigs == sorted(sigs, reverse=True)
        if supports_finalize and step % 997 == 0 and name != "PIE":
            # PIE's finalize decodes (expensive); others must tolerate
            # arbitrary mid-stream finalize calls.
            summary.finalize()
    # End-of-run sanity: reports are well-formed and queryable.
    for report in summary.top_k(10):
        value = summary.query(report.item)
        assert value >= 0 or name == "TwoStructure"  # count sketch-free here
