"""PIE (Dai, Shahzad, Liu, Zhu 2016) — persistent-items state of the art.

One Space-Time Bloom Filter per period records Raptor-coded fragments of
the identifiers seen in that period.  After the stream ends, each period's
singleton cells are grouped by fingerprint and fed to the fountain-code
decoder; an identifier decoded in a period counts one unit of persistency.

Memory: PIE keeps *all* period filters, so the paper grants it ``T×`` the
budget of the single-structure algorithms to make it comparable (§V-C) —
:meth:`PIE.from_memory` takes the per-period budget.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

import numpy as _np

from repro import obs
from repro.codes.raptor import RaptorCode
from repro.hashing.family import as_key_array
from repro.membership.stbf import SpaceTimeBloomFilter
from repro.metrics.memory import MemoryBudget
from repro.summaries.base import ItemReport, StreamSummary

_ID_MASK32 = 0xFFFFFFFF


class PIE(StreamSummary):
    """Persistent-item detection via per-period STBFs and Raptor decoding.

    Args:
        cells_per_period: STBF cell count per period.
        num_hashes: Cells written per insertion.
        fp_bits: Fingerprint width.
        seed: Hash seed, shared across periods.
        code: Raptor code; a default 4+2-chunk code over 32-bit ids is
            built when omitted.
    """

    def __init__(
        self,
        cells_per_period: int,
        num_hashes: int = 3,
        fp_bits: int = 12,
        seed: int = 0x91E,
        code: RaptorCode | None = None,
    ) -> None:
        self.cells_per_period = cells_per_period
        self.num_hashes = num_hashes
        self.fp_bits = fp_bits
        self.seed = seed
        self.code = code or RaptorCode(num_source=2, num_parity=1, chunk_bits=16)
        self._filters: List[SpaceTimeBloomFilter] = []
        self._current = self._new_filter()
        self._persistency: Dict[int, int] = {}
        self._decoded = False
        # STBF insertion is idempotent within a period, so repeat arrivals
        # can be skipped outright.  This set is a pure speed cache (the C++
        # original simply pays the per-duplicate hash cost).
        self._seen_this_period: Set[int] = set()
        self._m_batch = obs.batch_size_histogram(type(self).__name__)

    @classmethod
    def from_memory(
        cls,
        per_period_budget: MemoryBudget,
        num_hashes: int = 3,
        fp_bits: int = 12,
        seed: int = 0x91E,
    ) -> "PIE":
        """Size one period's filter from the per-period byte budget."""
        return cls(
            cells_per_period=per_period_budget.stbf_cells(),
            num_hashes=num_hashes,
            fp_bits=fp_bits,
            seed=seed,
        )

    def _new_filter(self) -> SpaceTimeBloomFilter:
        # Each period's filter hashes with a period-derived seed.  This
        # decorrelates both cell collisions and fountain-decode failures
        # across periods: an item whose symbol equations happen to be rank-
        # deficient in one period is recoverable in the next, instead of
        # being permanently undetectable.
        period_seed = self.seed + 0x9E3779B9 * (len(self._filters) + 1)
        return SpaceTimeBloomFilter(
            num_cells=self.cells_per_period,
            code=self.code,
            num_hashes=self.num_hashes,
            fp_bits=self.fp_bits,
            seed=period_seed,
        )

    # ------------------------------------------------------------ streaming
    def insert(self, item: int) -> None:
        """Process one arrival of ``item``."""
        item &= _ID_MASK32
        if item in self._seen_this_period:
            return
        self._seen_this_period.add(item)
        self._current.insert(item)

    def insert_many(self, items: Iterable[int]) -> None:
        """Batched arrivals, replay-identical to per-event :meth:`insert`.

        Persistency only cares about period-first appearances, so the
        batch folds to its distinct masked identifiers (first-occurrence
        order, which the STBF preserves in collided cells' residuals),
        minus those already seen this period; the survivors go to the
        current filter's vectorised ``insert_many``.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if self._m_batch is not None:
            self._m_batch.observe(len(items))
        arr = as_key_array(items) & _np.uint64(_ID_MASK32)
        if arr.size == 0:
            return
        uniq, first = _np.unique(arr, return_index=True)
        uniq = uniq[_np.argsort(first, kind="stable")]
        seen = self._seen_this_period
        fresh = [item for item in uniq.tolist() if item not in seen]
        if not fresh:
            return
        seen.update(fresh)
        self._current.insert_many(fresh)

    def end_period(self) -> None:
        """Archive the period's filter and start a fresh one."""
        self._filters.append(self._current)
        self._current = self._new_filter()
        self._seen_this_period.clear()
        self._decoded = False

    def finalize(self) -> None:
        """Decode every archived filter (idempotent)."""
        if self._decoded:
            return
        self._persistency = {}
        for stbf in self._filters:
            for item in self._decode_period(stbf):
                self._persistency[item] = self._persistency.get(item, 0) + 1
        self._decoded = True

    def _decode_period(self, stbf: SpaceTimeBloomFilter) -> List[int]:
        """Recover the identifiers decodable from one period's filter."""
        by_fp: Dict[int, List[Tuple[int, int]]] = {}
        for cell, fp, symbol in stbf.singletons():
            by_fp.setdefault(fp, []).append((cell, symbol))
        recovered: List[int] = []
        for fp, symbols in by_fp.items():
            value = self.code.decode(symbols)
            if value is None:
                continue
            value &= _ID_MASK32
            # Verification: the decoded id must reproduce the fingerprint
            # and be compatible with the filter (guards against decodes of
            # mixed-item symbol groups that happen to be consistent).
            if stbf.fingerprint(value) != fp:
                continue
            if not stbf.might_contain(value):
                continue
            recovered.append(value)
        return recovered

    # -------------------------------------------------------------- queries
    def query(self, item: int) -> float:
        """Estimate the summary's ranking quantity for ``item``."""
        self.finalize()
        return float(self._persistency.get(item & _ID_MASK32, 0))

    def top_k(self, k: int) -> List[ItemReport]:
        """Report up to the k items with the largest estimates."""
        self.finalize()
        ranked = sorted(
            self._persistency.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [
            ItemReport(item=item, significance=float(p), persistency=float(p))
            for item, p in ranked[:k]
        ]

    @property
    def periods_recorded(self) -> int:
        """Number of archived period filters."""
        return len(self._filters)
