"""Coordinators: run sites on partitioned streams and combine summaries."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro import obs
from repro.core.config import LTCConfig
from repro.core.kernels import build_ltc
from repro.core.ltc import LTC
from repro.core.merge import merge
from repro.core.serialize import to_bytes
from repro.distributed.sampling import CoordinatedSampler, combine_reports
from repro.streams.model import PeriodicStream


@dataclass(frozen=True)
class CoordinatorReport:
    """Outcome of one distributed run.

    ``communication_bytes`` counts site→coordinator traffic (serialized
    summaries or sample reports).
    """

    top_k: List[Tuple[int, float]]  # (item, estimated significance)
    communication_bytes: int
    num_sites: int

    def items(self) -> "set[int]":
        """The reported item set."""
        return {item for item, _ in self.top_k}


class MergingCoordinator:
    """Each site runs an identical LTC; the coordinator merges the tables.

    Exact up to bucket capacity when the partition is item-sharded; for
    arbitrary partitions merged persistency is an upper bound clipped to
    the period count (see :mod:`repro.core.merge`).

    Args:
        config: The LTC configuration every site instantiates.  The
            count-based CLOCK needs each site's own period length, so the
            per-site config overrides ``items_per_period``.
    """

    def __init__(self, config: LTCConfig) -> None:
        self.config = config

    def run(
        self, site_streams: Sequence[PeriodicStream], k: int
    ) -> CoordinatorReport:
        """Drive every site and produce the merged global answer.

        With observability on, ``coordinator_site_merge_seconds`` gets one
        observation per site (drive + serialize) and
        ``coordinator_merge_seconds`` one per table merge.
        """
        if not site_streams:
            raise ValueError("no site streams to run")
        num_periods = max(s.num_periods for s in site_streams)
        reg = obs.registry()  # the null registry's histograms are no-ops
        site_timer = reg.histogram(
            "coordinator_site_merge_seconds",
            "Per-site summary build time feeding one merge (seconds)",
        )
        merge_timer = reg.histogram(
            "coordinator_merge_seconds",
            "Time merging all site summaries into the global table (seconds)",
        )
        summaries: List[LTC] = []
        communication = 0
        for stream in site_streams:
            site_config = self.config.with_options(
                items_per_period=stream.period_length
            )
            started = time.perf_counter()
            ltc = build_ltc(site_config)
            stream.run(ltc)
            communication += len(to_bytes(ltc))
            site_timer.observe(time.perf_counter() - started)
            summaries.append(ltc)
        # Sites share the logical period structure but see different
        # arrival counts, so their CLOCK rates legitimately differ.
        started = time.perf_counter()
        merged = merge(summaries, num_periods=num_periods, check_period=False)
        merge_timer.observe(time.perf_counter() - started)
        return CoordinatorReport(
            top_k=[(r.item, r.significance) for r in merged.top_k(k)],
            communication_bytes=communication,
            num_sites=len(site_streams),
        )


class SamplingCoordinator:
    """Each site runs a coordinated sampler; the coordinator ORs bitmaps.

    Sampled items get *exact* global frequency and persistency under any
    partition; unsampled items are invisible, capping recall at roughly
    the sampling rate.

    Args:
        sample_rate: Shared inclusion probability.
        alpha: Frequency weight of the reported significance.
        beta: Persistency weight.
        seed: Shared sampling seed.
    """

    def __init__(
        self,
        sample_rate: float,
        alpha: float = 0.0,
        beta: float = 1.0,
        seed: int = 0xC00D,
    ) -> None:
        self.sample_rate = sample_rate
        self.alpha = alpha
        self.beta = beta
        self.seed = seed

    def run(
        self, site_streams: Sequence[PeriodicStream], k: int
    ) -> CoordinatorReport:
        """Drive every site and rank the union of the sampled reports."""
        reports: List[List[Tuple[int, int, int]]] = []
        communication = 0
        for stream in site_streams:
            sampler = CoordinatedSampler(self.sample_rate, seed=self.seed)
            stream.run(sampler)
            reports.append(sampler.export())
            communication += sampler.export_bytes()
        combined = combine_reports(reports)
        scored = [
            (self.alpha * freq + self.beta * bin(bits).count("1"), item)
            for item, (freq, bits) in combined.items()
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return CoordinatorReport(
            top_k=[(item, sig) for sig, item in scored[:k]],
            communication_bytes=communication,
            num_sites=len(site_streams),
        )
