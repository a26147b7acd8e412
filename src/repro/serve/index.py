"""ServingIndex: inverted index + lazy top-k heap over a live LTC.

The read path of the serving tier must not scan the table: a point query
is one dict probe, ``top_k`` pops ``k`` entries off a heap, and
``significant`` pops until the significance drops below the threshold.
The index stays correct under concurrent ingestion because every kernel
mutation — hit, CLOCK harvest, Significance Decrementing, eviction,
Long-tail Replacement — notifies the attached
:class:`repro.core.hooks.CellListener` with the touched slot id.

Invalidation strategy (DESIGN.md §12):

* notifications are *deferred*: a touched slot is marked dirty (one
  bytearray flag, so duplicate touches are free) and queued; nothing
  else happens on the ingest hot path;
* before answering any query the index **repairs**: each queued slot is
  re-read through :meth:`repro.core.ltc.LTC.cell_state`, diffed against
  the index's own mirror of the key column (a departed key is removed
  from the item→slot dict only if it still maps to this slot — the item
  may have been re-inserted elsewhere between repairs), the slot's
  version is bumped, and a fresh ``(-significance, item, slot, version)``
  entry is pushed onto the heap;
* heap entries are validated lazily on pop: an entry is live iff its
  version equals the slot's current version, so stale entries from
  earlier repairs cost one pop each and are dropped.  The heap is
  compacted (rebuilt from live cells) when it outgrows a small multiple
  of the table size, bounding memory.

Ranked answers are kept per **epoch** (DESIGN.md §12.2): a repair that
drains a non-empty pending list, and a table reset, start a new epoch.
Within an epoch the live entries popped so far stay off the heap as a
ranked prefix, with their ``(item, sig, f, p)`` reports, so repeated
``top_k`` / ``significant`` calls between two table changes only extend
that prefix — no re-pops, no ``cell_state`` reads, no push-backs.  The
next repair hands the prefix back to the heap.  The prefix holds at
most one entry per live cell, so it is bounded by the table size ``m``
whatever ``k`` or threshold a caller asks for; callers that render
answers (the server) may cache per prefix position under the same
bound, keyed by :attr:`ServingIndex.epoch`.

Significance is computed as ``alpha * f + beta * p`` on plain Python
ints, the same expression the full-scan oracle uses, so served answers
are bit-identical to the oracle's (the ``-(-x)`` round-trip through the
heap only flips the IEEE-754 sign bit).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.ltc import LTC

#: ``(-significance, item, slot, version)`` — heap order equals the
#: oracle's report order ``(-significance, item)`` because at most one
#: live entry exists per slot (and so per item).
HeapEntry = Tuple[float, int, int, int]

#: ``(item, significance, frequency, persistency)`` as served.
Report = Tuple[int, float, int, int]


class ServingIndex:
    """Item→cell inverted index with a lazily-repaired top-k heap.

    Attaches itself as the structure's cell listener on construction;
    call :meth:`close` to detach (e.g. before handing the LTC to code
    that should not pay the notification branch).
    """

    def __init__(self, ltc: LTC) -> None:
        self._ltc = ltc
        self._alpha = float(ltc.config.alpha)
        self._beta = float(ltc.config.beta)
        m = ltc.total_cells
        self._m = m
        self._mirror: List[Optional[int]] = [None] * m
        self._slot_of: Dict[int, int] = {}
        self._version: List[int] = [0] * m
        self._heap: List[HeapEntry] = []
        self._dirty = bytearray(m)
        self._pending: List[int] = []
        #: Live entries popped this epoch, in heap order, and their reports.
        self._ranked: List[HeapEntry] = []
        self._reports: List[Report] = []
        #: Bumped whenever the indexed table view changes; an answer (or
        #: anything rendered from the ranked prefix) holds for one epoch.
        self.epoch = 0
        #: Repair passes run (visible in /stats; tests assert laziness).
        self.repairs = 0
        ltc.attach_cell_listener(self)
        # Attach does not replay history: adopt whatever the table holds
        # now (restored snapshots arrive mid-life) by dirtying all slots.
        self.cells_touched(range(m))

    # ------------------------------------------------- CellListener protocol
    def cell_touched(self, slot: int) -> None:
        if not self._dirty[slot]:
            self._dirty[slot] = 1
            self._pending.append(slot)

    def cells_touched(self, slots: Iterable[int]) -> None:
        dirty = self._dirty
        pending = self._pending
        for slot in slots:
            if not dirty[slot]:
                dirty[slot] = 1
                pending.append(slot)

    def cells_reset(self) -> None:
        self._mirror = [None] * self._m
        self._slot_of.clear()
        self._heap.clear()
        self._dirty = bytearray(self._m)
        self._pending.clear()
        self._ranked.clear()
        self._reports.clear()
        self.epoch += 1

    # ---------------------------------------------------------------- repair
    def _repair(self) -> None:
        """Fold queued mutations into the dict/heap (runs before queries)."""
        pending = self._pending
        if not pending:
            return
        ltc = self._ltc
        mirror = self._mirror
        slot_of = self._slot_of
        version = self._version
        heap = self._heap
        dirty = self._dirty
        alpha, beta = self._alpha, self._beta
        # Hand the ranked prefix back first.  An entry whose slot is
        # about to be repaired goes stale here, so it is dropped now
        # instead of costing a pop later.
        for entry in self._ranked:
            if not dirty[entry[2]]:
                heapq.heappush(heap, entry)
        self._ranked.clear()
        self._reports.clear()
        for slot in pending:
            dirty[slot] = 0
            key, f, p = ltc.cell_state(slot)
            old = mirror[slot]
            if old is not None and old != key and slot_of.get(old) == slot:
                del slot_of[old]
            mirror[slot] = key
            v = version[slot] + 1
            version[slot] = v
            if key is not None:
                slot_of[key] = slot
                heapq.heappush(heap, (-(alpha * f + beta * p), key, slot, v))
        pending.clear()
        self.repairs += 1
        self.epoch += 1
        if len(heap) > max(64, 4 * self._m):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live cells, dropping stale entries."""
        mirror = self._mirror
        version = self._version
        alpha, beta = self._alpha, self._beta
        ltc = self._ltc
        fresh: List[HeapEntry] = []
        for slot, key in enumerate(mirror):
            if key is None:
                continue
            _, f, p = ltc.cell_state(slot)
            fresh.append((-(alpha * f + beta * p), key, slot, version[slot]))
        heapq.heapify(fresh)
        self._heap = fresh

    def _extend(self, k: int, threshold: float) -> None:
        """Move live heap entries onto the ranked prefix until it holds
        ``k`` entries or the heap head drops below ``threshold``."""
        heap = self._heap
        ranked = self._ranked
        reports = self._reports
        version = self._version
        mirror = self._mirror
        cell_state = self._ltc.cell_state
        while heap and len(ranked) < k and -heap[0][0] >= threshold:
            entry = heapq.heappop(heap)
            negsig, item, slot, v = entry
            if version[slot] != v or mirror[slot] != item:
                continue  # stale: dropped for good
            ranked.append(entry)
            _, f, p = cell_state(slot)
            reports.append((item, -negsig, f, p))

    # --------------------------------------------------------------- queries
    def query(self, item: int) -> Tuple[bool, float, int, int]:
        """``(tracked, significance, frequency, persistency)`` — O(1)."""
        self._repair()
        slot = self._slot_of.get(item)
        if slot is None:
            return False, 0.0, 0, 0
        _, f, p = self._ltc.cell_state(slot)
        return True, self._alpha * f + self._beta * p, f, p

    def top_k(self, k: int) -> List[Report]:
        """The ``k`` most significant tracked items, ranked.

        O(k log m) pops the first time in an epoch; a repeat within the
        epoch only slices the ranked prefix.
        """
        self._repair()
        self._extend(k, float("-inf"))
        return self._reports[:k]

    def significant(self, threshold: float) -> List[Report]:
        """All tracked items with significance ≥ ``threshold``, ranked."""
        self._repair()
        self._extend(self._m, threshold)
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
        """Number of currently tracked items."""
        self._repair()
        return len(self._slot_of)

    def heap_size(self) -> int:
        """Heap entries, stale ones and the ranked prefix included
        (tests/stats)."""
        return len(self._heap) + len(self._ranked)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Detach from the structure (hot paths go branch-cheap again)."""
        self._ltc.detach_cell_listener()
