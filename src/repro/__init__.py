"""repro — a reproduction of "Finding Significant Items in Data Streams"
(Tong Yang et al., ICDE 2019).

The headline export is :class:`LTC`, the paper's Long-Tail CLOCK structure
for top-k *significant* items (``significance = α·frequency +
β·persistency``), together with every baseline and substrate the paper's
evaluation uses.

Quick start::

    from repro import LTC, LTCConfig
    from repro.streams import network_like, GroundTruth

    stream = network_like()
    ltc = LTC(LTCConfig(num_buckets=512, alpha=1.0, beta=1.0,
                        items_per_period=stream.period_length))
    stream.run(ltc)
    for report in ltc.top_k(10):
        print(report.item, report.significance)
"""

from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.core.windowed import WindowedLTC
from repro.combined.two_structure import TwoStructureSignificant
from repro.membership.bloom import BloomFilter
from repro.membership.stbf import SpaceTimeBloomFilter
from repro.metrics.accuracy import average_relative_error, precision
from repro.metrics.memory import MemoryBudget, kb
from repro.persistent.pie import PIE
from repro.persistent.sketch_persistent import SketchPersistent
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch
from repro.sketches.cu import CUSketch
from repro.sketches.topk import SketchTopK
from repro.streams.ground_truth import GroundTruth
from repro.streams.model import PeriodicStream
from repro.summaries.base import ItemReport, StreamSummary
from repro.summaries.frequent import Frequent
from repro.summaries.lossy_counting import LossyCounting
from repro.summaries.space_saving import SpaceSaving

__version__ = "1.0.0"

__all__ = [
    "LTC",
    "LTCConfig",
    "WindowedLTC",
    "SpaceSaving",
    "LossyCounting",
    "Frequent",
    "CountMinSketch",
    "CUSketch",
    "CountSketch",
    "SketchTopK",
    "SketchPersistent",
    "PIE",
    "TwoStructureSignificant",
    "BloomFilter",
    "SpaceTimeBloomFilter",
    "PeriodicStream",
    "GroundTruth",
    "MemoryBudget",
    "kb",
    "precision",
    "average_relative_error",
    "ItemReport",
    "StreamSummary",
    "__version__",
]
