"""Runtime kernel selection: ``LTCConfig(kernel="auto")``.

The columnar kernel dominates FastLTC when chunks are mostly *clean*
(events that hit before their bucket's first in-chunk miss aggregate in
bulk), and loses only in the deeply contended regime where nearly every
bucket takes a miss early in every chunk (tiny tables under heavy skew).
Which regime a deployment sits in depends on the workload, not just the
geometry — so :class:`AutoLTC` measures instead of guessing.

The probe is free: :meth:`ColumnarLTC._ingest_chunk` already classifies
every chunk into clean and dirty events, and reports the counts through
the ``_probe`` hook.  AutoLTC accumulates them into fixed-size voting
windows and compares the window's clean fraction against
``CLEAN_FLOOR``.  Three guardrails keep the decision stable and
deterministic (event counts only — never wall-clock timing, which rule
R003 forbids in kernel logic):

* **Fill suppression** — while the table is still claiming empty cells
  the stream looks artificially miss-heavy, so windows whose occupancy
  grew by more than ``FILL_FRACTION`` of their events don't vote.
* **Hysteresis** — a switch needs ``HYSTERESIS`` *consecutive* windows
  voting against the current mode; a single skew burst changes nothing.
* **Period alignment** — a decided switch is deferred to the next
  ``end_period()`` boundary, so a period is always ingested by one
  kernel end to end (mid-period the two paths interleave their CLOCK
  arithmetic differently enough that switching would be hard to audit,
  even though both are replay-identical).

In fast mode the per-chunk probe would itself cost the columnar
overhead being avoided, so AutoLTC goes quiet and re-probes one period
out of every ``RECHECK_PERIODS`` through the columnar path — drift back
into a columnar-friendly regime is picked up within a few rechecks and
costs at most one period's throughput delta each time.

Cell state, CLOCK state, metrics, and checkpoint bytes are identical to
the other kernels in either mode (fast mode replays through the same
memoryview scalar machinery the segmented kernel uses for its queue
drains); ``kernel_in_use`` exposes the current choice for the serving
tier's stats endpoint and the benchmarks.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.columnar import ColumnarLTC
from repro.core.config import LTCConfig
from repro.summaries.base import as_items, expand_counts


class AutoLTC(ColumnarLTC):
    """Columnar LTC that falls back to scalar batches when probes say so."""

    #: Chunks per voting window.
    PROBE_CHUNKS = 4
    #: Consecutive opposing windows required before a switch is scheduled.
    HYSTERESIS = 2
    #: In fast mode, re-probe one period out of every this many.
    RECHECK_PERIODS = 16
    #: Clean fraction at/above which a window votes columnar.
    CLEAN_FLOOR = 0.5
    #: Windows whose occupancy grew by more than this fraction of their
    #: events are still filling the table and don't vote.
    FILL_FRACTION = 0.02

    def __init__(self, config: LTCConfig) -> None:
        super().__init__(config)
        self._auto_reset()
        self._probe = self._auto_observe

    # ------------------------------------------------------------- state

    def _auto_reset(self) -> None:
        self._auto_mode = "columnar"
        self._auto_pending: Optional[str] = None
        self._auto_votes = 0
        self._auto_events = 0
        self._auto_clean = 0
        self._auto_chunks = 0
        self._auto_occ0 = len(self._slot_of)
        self._auto_period = 0
        self._auto_recheck = False

    @property
    def kernel_in_use(self) -> str:
        """The kernel the next batch will ingest through."""
        if self._auto_mode == "fast" and not self._auto_recheck:
            return "fast"
        return "columnar"

    # ------------------------------------------------------------- probe

    def _auto_observe(self, span: int, n_clean: int, n_dirty: int) -> None:
        """Accumulate one chunk's probe counts; vote on full windows."""
        self._auto_events += span
        self._auto_clean += n_clean
        self._auto_chunks += 1
        if self._auto_chunks < self.PROBE_CHUNKS:
            return
        events, clean = self._auto_events, self._auto_clean
        occ_delta = len(self._slot_of) - self._auto_occ0
        self._auto_events = self._auto_clean = self._auto_chunks = 0
        self._auto_occ0 = len(self._slot_of)
        if occ_delta > self.FILL_FRACTION * events:
            return  # still filling: miss-heavy by construction, no vote
        vote = "columnar" if clean >= self.CLEAN_FLOOR * events else "fast"
        if vote == self._auto_mode:
            self._auto_votes = 0
            self._auto_pending = None
            return
        self._auto_votes += 1
        if self._auto_votes >= self.HYSTERESIS:
            self._auto_pending = vote

    # ------------------------------------------------------------ ingest

    def insert_many(
        self, items: Iterable[int], counts: Optional[Sequence[int]] = None
    ) -> None:
        if self._auto_mode != "fast" or self._auto_recheck or not self._vec:
            super().insert_many(items, counts)
            return
        # Fast mode: skip hashing/probing entirely and replay the whole
        # batch through the memoryview scalar path (replay-identical to
        # both parents; see _replay_scalar).
        items = as_items(items)
        if counts is not None:
            items = expand_counts(items, counts)
        seq: Sequence[int] = (
            items if isinstance(items, (list, tuple)) else list(items)
        )
        total = len(seq)
        if self._m_batch is not None:
            self._m_batch.observe(total)
        if self._obs is not None:
            self._m_inserts.inc(total)
        if total:
            self._replay_scalar(seq, 0, total, range(total))  # type: ignore[arg-type]

    def end_period(self) -> None:
        super().end_period()
        self._auto_period += 1
        if self._auto_pending is not None:
            self._auto_mode = self._auto_pending
            self._auto_pending = None
            self._auto_votes = 0
            self._auto_events = self._auto_clean = self._auto_chunks = 0
            self._auto_occ0 = len(self._slot_of)
        self._auto_recheck = (
            self._auto_mode == "fast"
            and self._auto_period % self.RECHECK_PERIODS == 0
        )

    def clear(self) -> None:
        super().clear()
        self._auto_reset()
