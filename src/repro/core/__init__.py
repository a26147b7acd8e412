"""LTC — the paper's algorithm for finding top-k significant items.

:class:`repro.core.ltc.LTC` is the primary contribution: a lossy table of
``w`` buckets × ``d`` cells with Significance Decrementing, a modified
CLOCK sweep for persistency, the Deviation Eliminator (Optimization I) and
Long-tail Replacement (Optimization II).

Extensions beyond the paper (documented as such): state serialization
(:mod:`repro.core.serialize`), summary merging for partitioned streams
(:mod:`repro.core.merge`) and a sliding-window variant
(:mod:`repro.core.windowed`).
"""

from repro.core.config import LTCConfig
from repro.core.clock import ClockPointer
from repro.core.cell import CellView
from repro.core.columnar import ColumnarLTC
from repro.core.kernels import build_ltc
from repro.core.keyed import KeyedSummary
from repro.core.ltc import LTC
from repro.core.merge import merge
from repro.core.serialize import from_bytes, to_bytes
from repro.core.windowed import WindowedLTC

__all__ = [
    "LTC",
    "ColumnarLTC",
    "build_ltc",
    "LTCConfig",
    "ClockPointer",
    "CellView",
    "WindowedLTC",
    "KeyedSummary",
    "merge",
    "to_bytes",
    "from_bytes",
]
