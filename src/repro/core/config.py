"""Configuration for the LTC structure."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.metrics.memory import MemoryBudget


@dataclass(frozen=True)
class LTCConfig:
    """All tunables of an LTC instance.

    Args:
        num_buckets: Bucket count ``w``.
        bucket_width: Cells per bucket ``d`` (paper default 8, §V-C).
        alpha: Frequency weight α of the significance function.
        beta: Persistency weight β.
        items_per_period: Arrivals per period ``n`` — drives the CLOCK step
            so the pointer sweeps the whole table exactly once per period
            (count-based periods).  Ignored when driving the structure with
            :meth:`repro.core.ltc.LTC.insert_timed`.
        deviation_eliminator: Enable Optimization I (two flags per cell).
        replacement_policy: How a newcomer takes over a cell.
            ``"longtail"`` (default) = Optimization II, the second-smallest
            − 1 initialisation; ``"one"`` = the basic version's 1/0
            initialisation; ``"space-saving"`` = the ablation with no
            Significance Decrementing at all — a full-bucket miss directly
            replaces the minimum cell and inherits its value + 1 (the
            Space-Saving strategy the paper argues against, §I-C).
        seed: Bucket-hash seed.
        kernel: Which LTC implementation :func:`repro.core.kernels.build_ltc`
            constructs for this config: ``"columnar"`` (default; the
            production :class:`repro.core.columnar.ColumnarLTC`, numpy
            columns updated by one compiled C loop, built on first use)
            or ``"reference"`` (the paper-faithful
            :class:`repro.core.ltc.LTC`, the differential oracle, which
            needs no C compiler).  Both kernels are observably identical
            (differential-tested), so the field is excluded from config
            equality and merge compatibility: either kernel checkpoints
            and merges like the other.
    """

    num_buckets: int
    bucket_width: int = 8
    alpha: float = 1.0
    beta: float = 1.0
    items_per_period: int = 1
    deviation_eliminator: bool = True
    replacement_policy: str = "longtail"
    seed: int = 0x17C
    kernel: str = field(default="columnar", compare=False)

    def __post_init__(self) -> None:
        if self.num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        if self.bucket_width < 1:
            raise ValueError("bucket_width must be >= 1")
        if not (self.alpha >= 0 and self.beta >= 0):  # also rejects NaN
            raise ValueError("alpha and beta must be non-negative")
        if self.alpha == float("inf") or self.beta == float("inf"):
            raise ValueError("alpha and beta must be finite")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("alpha and beta cannot both be zero")
        if self.items_per_period < 1:
            raise ValueError("items_per_period must be >= 1")
        if self.replacement_policy not in ("longtail", "one", "space-saving"):
            raise ValueError(
                "replacement_policy must be 'longtail', 'one' or 'space-saving'"
            )
        if self.kernel not in ("reference", "columnar"):
            raise ValueError("kernel must be 'reference' or 'columnar'")
        # Normalize the seed to its 64-bit image at construction time.
        # Hashing already reduces modulo 2**64 (splitmix64 masks its
        # input), but the binary checkpoint header stores the masked
        # value — without this, a config built with a negative or
        # >64-bit seed would compare unequal to its own restored
        # checkpoint and `repro.core.merge._check_compatible` would
        # refuse the restore-then-merge flow.
        object.__setattr__(self, "seed", self.seed & 0xFFFFFFFFFFFFFFFF)

    @property
    def total_cells(self) -> int:
        """Table size ``m = w·d`` (also the number of CLOCK time slots)."""
        return self.num_buckets * self.bucket_width

    @classmethod
    def from_memory(
        cls,
        budget: MemoryBudget,
        items_per_period: int,
        bucket_width: int = 8,
        alpha: float = 1.0,
        beta: float = 1.0,
        **kwargs: Any,
    ) -> "LTCConfig":
        """Size the table for a byte budget (12 bytes per cell, §V-C)."""
        return cls(
            num_buckets=budget.ltc_buckets(bucket_width),
            bucket_width=bucket_width,
            alpha=alpha,
            beta=beta,
            items_per_period=items_per_period,
            **kwargs,
        )

    def with_options(self, **changes: Any) -> "LTCConfig":
        """A copy with the given fields replaced (ablation helper)."""
        return replace(self, **changes)
