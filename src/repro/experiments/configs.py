"""Per-figure experiment configuration: datasets and algorithm line-ups.

These builders encode the paper's §V-C setup rules once so every benchmark
compares the same way: identical memory for all algorithms (except PIE,
which receives ``T×`` as in the paper), 3 sketch rows, LTC with ``d = 8``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.combined.two_structure import TwoStructureSignificant
from repro.core.config import LTCConfig
from repro.core.kernels import build_ltc
from repro.core.ltc import LTC
from repro.metrics.memory import MemoryBudget
from repro.persistent.pie import PIE
from repro.persistent.sketch_persistent import SketchPersistent
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch
from repro.sketches.cu import CUSketch
from repro.sketches.topk import SketchTopK
from repro.streams.datasets import caida_like, network_like, social_like
from repro.streams.model import PeriodicStream
from repro.summaries.frequent import Frequent
from repro.summaries.lossy_counting import LossyCounting
from repro.summaries.space_saving import SpaceSaving

DATASET_BUILDERS: Dict[str, Callable[..., PeriodicStream]] = {
    "caida": caida_like,
    "network": network_like,
    "social": social_like,
}

_DATASET_CACHE: Dict[str, PeriodicStream] = {}


def make_dataset(name: str, **kwargs: Any) -> PeriodicStream:
    """Build (and cache) one of the paper-dataset substitutes.

    Benchmarks sweep many memory sizes over the same stream; the cache
    keeps generation out of the measured loop.  Only parameter-free
    default builds are cached.
    """
    if kwargs:
        return DATASET_BUILDERS[name](**kwargs)
    if name not in _DATASET_CACHE:
        _DATASET_CACHE[name] = DATASET_BUILDERS[name]()
    return _DATASET_CACHE[name]


def ltc_factory(
    budget: MemoryBudget,
    stream: PeriodicStream,
    alpha: float,
    beta: float,
    **options: Any,
) -> Callable[[], LTC]:
    """Factory for a paper-default LTC sized for ``budget``.

    ``options`` forwards to :class:`repro.core.config.LTCConfig`.  The
    factory builds the columnar kernel unless ``kernel="reference"``
    asks for the paper-faithful oracle
    (:func:`repro.core.kernels.build_ltc`).
    """

    def build() -> LTC:
        config = LTCConfig.from_memory(
            budget,
            items_per_period=stream.period_length,
            alpha=alpha,
            beta=beta,
            **options,
        )
        return build_ltc(config)

    return build


def default_algorithms_frequent(
    budget: MemoryBudget, stream: PeriodicStream, k: int, **ltc_options: Any
) -> Dict[str, Callable[[], object]]:
    """The Fig. 9/10 line-up: LTC vs SS, LC, Frequent, CM, CU, Count."""
    return {
        "LTC": ltc_factory(budget, stream, alpha=1.0, beta=0.0, **ltc_options),
        "SS": lambda: SpaceSaving.from_memory(budget),
        "LC": lambda: LossyCounting.from_memory(budget),
        "Freq": lambda: Frequent.from_memory(budget),
        "CM": lambda: SketchTopK.from_memory(CountMinSketch, budget, k),
        "CU": lambda: SketchTopK.from_memory(CUSketch, budget, k),
        "Count": lambda: SketchTopK.from_memory(CountSketch, budget, k),
    }


def default_algorithms_persistent(
    budget: MemoryBudget, stream: PeriodicStream, k: int, **ltc_options: Any
) -> Dict[str, Callable[[], object]]:
    """The Fig. 12/13 line-up: LTC vs PIE (T× memory) and BF+sketch+heap."""
    per_period = stream.period_length
    return {
        "LTC": ltc_factory(budget, stream, alpha=0.0, beta=1.0, **ltc_options),
        # Paper §V-C: PIE keeps one filter per period, so it receives the
        # default budget *per period* (T times the total).
        "PIE": lambda: PIE.from_memory(budget),
        "CM+BF": lambda: SketchPersistent.from_memory(
            CountMinSketch, budget, k, expected_per_period=per_period
        ),
        "CU+BF": lambda: SketchPersistent.from_memory(
            CUSketch, budget, k, expected_per_period=per_period
        ),
        "Count+BF": lambda: SketchPersistent.from_memory(
            CountSketch, budget, k, expected_per_period=per_period
        ),
    }


def default_algorithms_significant(
    budget: MemoryBudget,
    stream: PeriodicStream,
    k: int,
    alpha: float,
    beta: float,
    **ltc_options: Any,
) -> Dict[str, Callable[[], object]]:
    """The Fig. 14/15 line-up: LTC vs the two-structure CU and CM combos
    (CU is the paper's strongest baseline; CM shown for reference)."""
    return {
        "LTC": ltc_factory(budget, stream, alpha=alpha, beta=beta, **ltc_options),
        "CU+CU": lambda: TwoStructureSignificant.from_memory(
            CUSketch, budget, k, alpha, beta
        ),
        "CM+CM": lambda: TwoStructureSignificant.from_memory(
            CountMinSketch, budget, k, alpha, beta
        ),
    }
