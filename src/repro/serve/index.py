"""ServingIndex: ranked answers from one column scan per table change.

The index keeps no copy of the table.  It stays attached as the
structure's :class:`repro.core.hooks.CellListener`, but a notification
only marks it **stale** — one attribute store whatever the slot or
batch, so ingestion does no index work.

Ranked answers are kept per **epoch** (DESIGN.md §12.2).  The first
ranked query after a table change starts a new epoch with one scan:
``alpha * f + beta * p`` over the kernel's frequency and persistency
columns in one numpy pass, free cells (key ``EMPTY_KEY``) masked out.
Queries then extend a ranked prefix of ``(item, sig, f, p)`` reports
from the epoch's remaining cells: ``np.partition`` finds the boundary
significance, every cell at or above it joins the prefix (ties with the
boundary included), and the newcomers are sorted by
``(-significance, item)`` on the plain-int keys the kernel's key list
reads back.  Repeated ``top_k`` / ``significant``
calls within an epoch only slice or extend the prefix, which holds at
most one report per tracked item, so callers that render answers (the
server) may cache per prefix position, keyed by
:attr:`ServingIndex.epoch`.

Point queries go to the kernel: one probe of the item's bucket in the
key list (``LTC._slot``), then ``cell_state``; they never scan.

numpy computes each significance with the same IEEE-754 multiplies and
add that the full-scan oracle performs on Python numbers, so served
answers are bit-identical to the oracle's.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

import numpy as np

from repro.core.ltc import EMPTY_KEY, LTC

#: ``(item, significance, frequency, persistency)`` as served.
Report = Tuple[int, float, int, int]

_EMPTY = np.uint64(EMPTY_KEY)


def _rank(report: Report) -> Tuple[float, int]:
    """The oracle's report order, ``(-significance, item)``."""
    return -report[1], report[0]


class ServingIndex:
    """Per-epoch ranked prefix over a live LTC's columns.

    Attaches itself as the structure's cell listener on construction;
    call :meth:`close` to detach (e.g. before handing the LTC to code
    that should not pay the notification branch).
    """

    def __init__(self, ltc: LTC) -> None:
        self._ltc = ltc
        self._alpha = float(ltc.config.alpha)
        self._beta = float(ltc.config.beta)
        #: Set by every notification, cleared by the scan that starts an
        #: epoch.  Attaching does not replay history, so a new index
        #: starts stale and adopts whatever the table holds.
        self._stale = True
        #: This epoch's ranked prefix: every tracked item whose
        #: significance is at least ``_floor``, in oracle order.
        self._reports: List[Report] = []
        self._floor = math.inf
        #: ``(significance, slot, frequency, persistency)`` columns of
        #: the tracked cells not yet on the prefix.
        self._rest: Tuple[np.ndarray, ...] = ()
        #: Bumped by every scan, so it also counts them (``/stats``
        #: ``repairs``); an answer (or anything rendered from the ranked
        #: prefix) holds for one epoch.
        self.epoch = 0
        ltc.attach_cell_listener(self)

    # ------------------------------------------------- CellListener protocol
    def cell_touched(self, slot: int) -> None:
        self._stale = True

    def cells_touched(self, slots: Iterable[int]) -> None:
        self._stale = True

    def cells_reset(self) -> None:
        self._stale = True

    # ------------------------------------------------------------------ scan
    def _scan(self) -> None:
        """Start a new epoch from the table's columns (only when stale)."""
        if not self._stale:
            return
        ltc = self._ltc
        slots = np.flatnonzero(np.asarray(ltc._keys, dtype=np.uint64) != _EMPTY)
        f = np.asarray(ltc._freqs)[slots]
        p = np.asarray(ltc._counters)[slots]
        self._rest = (self._alpha * f + self._beta * p, slots, f, p)
        self._reports = []
        self._floor = math.inf
        self._stale = False
        self.epoch += 1

    def _extend(self, floor: float) -> None:
        """Rank every remaining cell with significance ≥ ``floor`` onto
        the prefix; the prefix then holds every such cell."""
        take = self._rest[0] >= floor
        sig, slots, f, p = (col[take] for col in self._rest)
        self._rest = tuple(col[~take] for col in self._rest)
        keys = self._ltc._keys
        items = [keys[s] for s in slots.tolist()]
        # Everything taken ranks below everything already on the prefix.
        self._reports += sorted(
            zip(items, sig.tolist(), f.tolist(), p.tolist()), key=_rank
        )
        self._floor = floor

    # --------------------------------------------------------------- queries
    def query(self, item: int) -> Tuple[bool, float, int, int]:
        """``(tracked, significance, frequency, persistency)`` — no scan."""
        ltc = self._ltc
        slot = ltc._slot(item)
        if slot < 0:
            return False, 0.0, 0, 0
        _, f, p = ltc.cell_state(slot)
        return True, self._alpha * f + self._beta * p, f, p

    def top_k(self, k: int) -> List[Report]:
        """The ``k`` most significant tracked items, ranked.

        A repeat within the epoch slices the ranked prefix, or extends
        it from the cells not yet ranked.
        """
        self._scan()
        need = k - len(self._reports)
        sig = self._rest[0]
        if need > 0 and len(sig):
            kth = len(sig) - need
            # The need-th largest remaining significance; ties with it
            # join the prefix too, so the prefix stays closed downwards.
            floor = float(np.partition(sig, kth)[kth]) if kth > 0 else -math.inf
            self._extend(floor)
        return self._reports[:k]

    def significant(self, threshold: float) -> List[Report]:
        """All tracked items with significance ≥ ``threshold``, ranked."""
        self._scan()
        if threshold < self._floor:
            self._extend(threshold)
        # The prefix may reach past the threshold (an earlier, deeper
        # top_k); it is ranked, so the answer is its head.  Bisect on the
        # oracle's own predicate, which also keeps a NaN threshold empty.
        reports = self._reports
        lo, hi = 0, len(reports)
        while lo < hi:
            mid = (lo + hi) // 2
            if reports[mid][1] >= threshold:
                lo = mid + 1
            else:
                hi = mid
        return reports[:lo]

    def tracked(self) -> int:
        """Number of currently tracked items (from this epoch's scan)."""
        self._scan()
        return len(self._reports) + len(self._rest[0])

    def held(self) -> int:
        """Reports on this epoch's ranked prefix (≤ :meth:`tracked`;
        ``/stats`` ``heap_size``)."""
        return len(self._reports)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Detach from the structure (hot paths go branch-cheap again)."""
        self._ltc.detach_cell_listener()
