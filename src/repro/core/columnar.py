"""ColumnarLTC: struct-of-arrays LTC kernel with a vectorized batch path.

:class:`repro.core.fast_ltc.FastLTC` removes the bucket scan from the hit
path but still pays one interpreted iteration per arrival.  This kernel
removes the per-arrival loop itself: the cell state lives in numpy
**columns** (``int64`` frequency / persistency / flag arrays plus a
``uint64`` fingerprint column and a boolean occupancy column), a whole
batch is hashed and probed with array expressions, and the CLOCK sweep is
applied as at most two contiguous array slices per harvest.

Replay identity with the per-event path rests on a commutation argument,
valid exactly when the Deviation Eliminator is on (``set`` and ``harvest``
flags are then distinct bits):

* a **hit** touches only its own cell's frequency and set-flag; a
  **harvest** touches only a cell's harvest-flag and persistency counter —
  disjoint state, so hits commute with harvests;
* misses do not commute *within a bucket* (they evict, reseed, and consult
  bucket minima), so any bucket receiving a miss in the current chunk is
  **dirty**.  Clean buckets receive only hits, their key sets provably
  cannot change inside the chunk, and their hits are aggregated up front
  with one ``bincount``.
* operations on **different buckets** touch disjoint cells, so the dirty
  tail only needs per-bucket order: events targeting different dirty
  buckets may be applied in any interleaving.

The dirty tail is resolved by a **segmented, round-based replay**
(:meth:`ColumnarLTC._replay_segmented`): each dirty bucket gets a FIFO
queue of its pending operations (events, plus the CLOCK sweeps of its
slots at their exact arrival offsets), worked as one *lane* with a
cursor and the position of its next pending miss, read from a per-chunk
next-miss index.  One *round* flushes every lane's hits and sweeps up to
its next miss in one bulk pass, then applies that miss on every lane at
once: a batched ``argmin`` over the ``(lanes, d)`` row gather, the
Significance Decrement and death test as column ops, and claim/evict/
Long-tail Replacement only on the lanes that need them.  A decrement
that leaves the incumbent alive changes no classification, so its lane
just steps to its next miss; a claim or eviction flips exactly two
keys' later events in its own queue, and only those lanes reclassify
their pending slice and rebuild it in the index.  A round therefore
costs its active lanes, the ops it applies, and the pending slices of
the lanes whose key set changed — nothing rescans the other lanes'
pending ops.  Within-bucket order is preserved, so cell state stays
byte-identical to per-event replay.  Sweeps of clean buckets commute
with every chunk operation and are applied in one bulk pass; the CLOCK
accumulator/hand are finalised in closed form.  When too few lanes
stay active for vectorization to pay (a collision storm on one bucket,
or a lightly dirty chunk), the replay degrades to the scalar per-event
loop, which remains the exact reference for the round kernel.

The batch is processed in fixed-size chunks so dirtiness is a per-chunk
property — on hit-heavy streams almost every chunk is all-clean and runs
entirely in numpy.  Without numpy (guarded import below) or with the
Deviation Eliminator off, the class degrades to plain FastLTC behaviour;
the differential suite in ``tests/test_columnar.py`` pins cell-level
equality against FastLTC and the reference LTC either way.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

try:  # numpy accelerates the batch path; scalar paths work without it.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

from repro.core.cell import CellView
from repro.core.config import LTCConfig
from repro.core.fast_ltc import FastLTC
from repro.hashing.family import splitmix64, splitmix64_array
from repro.summaries.base import ItemReport, as_items, expand_counts

#: Events per classification chunk.  Dirtiness (bucket received a miss) is
#: decided per chunk, so smaller chunks keep more of a mixed stream on the
#: vectorized path while larger ones amortise the probe; 4096 balances the
#: two for the bench workloads.
_CHUNK = 4096

#: Minimum dirty-tail size before the segmented round replay engages.
#: Below it, queue construction (argsort + segment bookkeeping) costs more
#: than the scalar loop it replaces — the hit-heavy w=512 bench point has
#: a handful of dirty events per chunk and must stay on the scalar tail.
_SEG_MIN_DIRTY = 64

#: Peel-loop drain threshold: once fewer queues than this still hold
#: pending misses, the per-round numpy overhead exceeds the scalar cost
#: of finishing their queues, so the remainder drains through the
#: memoryview per-event path.  Also the adversarial guard: a collision
#: storm on one bucket never pays for degenerate single-lane rounds.
_SEG_MIN_ACTIVE = 16

_INT64_MAX = (1 << 63) - 1
#: Products like ``total_steps * items_per_period`` must stay inside
#: int64 for the vectorized sweep schedule; beyond this the replay falls
#: back to the (arbitrary-precision) scalar tail.
_SCHEDULE_LIMIT = 1 << 62


#: Flag byte -> pending flags it holds, and (per harvest bit) the byte
#: with the oldest pending flag charged: the harvest flag when set, else
#: the set flag (``LTC._decrement_smallest``).  With the Deviation
#: Eliminator on, flag bytes only ever hold the two low bits.
_FLAG_COUNT: Any = None
_CHARGE_OLDEST: Dict[int, Any] = {}
if _np is not None:
    _FLAG_COUNT = _np.array([0, 1, 1, 2], dtype=_np.int64)
    _CHARGE_OLDEST = {
        hb: _np.array(
            [bits & ~hb if bits & hb else bits & ~(3 ^ hb) for bits in range(4)],
            dtype=_np.int64,
        )
        for hb in (1, 2)
    }


def _ranges(lo: Any, lens: Any) -> Any:
    """Concatenated ``arange(lo[i], lo[i] + lens[i])`` over all ``i``."""
    ends = lens.cumsum()
    if not len(ends) or not ends[-1]:
        return ends[:0]
    return _np.arange(ends[-1], dtype=_np.int64) + (lo - ends + lens).repeat(lens)


def _next_miss(ops: Any, pos: Any, qend: Any) -> Any:
    """Per op at ``pos``: the first miss at or after it in its queue.

    ``ops`` are the ops' classes (miss < 0) and ``qend`` their queue's
    end, returned where no miss follows.  ``pos`` may concatenate
    several queue suffixes in ascending order: a later suffix's values
    are at least the earlier queue's end, so one reverse running minimum
    never carries across a suffix boundary.
    """
    return _np.minimum.accumulate(_np.where(ops < 0, pos, qend)[::-1])[::-1]


class ColumnarLTC(FastLTC):
    """LTC with numpy column storage and a vectorized ``insert_many``.

    Observable behaviour is identical to :class:`FastLTC` (and therefore
    to the reference :class:`repro.core.ltc.LTC`); the columns are pure
    acceleration, checked by the differential suite and, under
    ``REPRO_SANITIZE=1``, by the column-agreement invariant in
    :func:`repro.sanitize.check_ltc`.
    """

    def __init__(self, config: LTCConfig) -> None:
        super().__init__(config)
        #: Per-chunk classification hook ``(span, n_clean, n_dirty)`` —
        #: the auto-kernel probe attaches here; one is-None test per chunk
        #: when unused.
        self._probe: Optional[Callable[[int, int, int], None]] = None
        self._vec = _np is not None
        if self._vec:
            self._columnize()

    # ------------------------------------------------------------- columns
    # reprolint: detached — rebinds columns to numpy storage with identical values
    def _columnize(self) -> None:
        """Adopt numpy column storage for the row arrays and build the
        fingerprint/occupancy mirror of the key list."""
        self._freqs = _np.array(self._freqs, dtype=_np.int64)
        self._counters = _np.array(self._counters, dtype=_np.int64)
        self._flags = _np.frombuffer(bytes(self._flags), dtype=_np.uint8).astype(
            _np.int64
        )
        # Memoryviews over the same buffers: scalar indexed read/write is
        # ~2x cheaper than through the ndarray protocol, which is what the
        # per-event insert() short-circuit and the queue drain ride on.
        self._freq_mv = memoryview(self._freqs)
        self._counter_mv = memoryview(self._counters)
        self._flag_mv = memoryview(self._flags)
        # Cached (w, d) row views of the value columns for the batched
        # argmin eviction (reshape is cheap but not free per miss round).
        self._freqs2 = self._freqs.reshape(self._w, self._d)
        self._counters2 = self._counters.reshape(self._w, self._d)
        self._rebuild_key_columns()

    def _rebuild_key_columns(self) -> None:
        m = self.total_cells
        self._kcol = _np.zeros(m, dtype=_np.uint64)
        self._occ = _np.zeros(m, dtype=bool)
        # Per-bucket (w, d) views share memory with the flat columns; the
        # batch probe gathers whole bucket rows through them.
        self._kcol2 = self._kcol.reshape(self._w, self._d)
        self._occ2 = self._occ.reshape(self._w, self._d)
        for j, key in enumerate(self._keys):
            if key is not None:
                self._occ[j] = True
                try:
                    self._kcol[j] = key
                except (OverflowError, TypeError, ValueError):
                    self._disable_vectorization()
                    return

    # reprolint: detached — drops view aliases only; the backing cell arrays are untouched
    def _disable_vectorization(self) -> None:
        # A key outside the uint64 domain cannot live in the fingerprint
        # column (and masking it would alias another key), so the instance
        # permanently falls back to the scalar FastLTC paths.  clear()
        # re-enables vectorization on the fresh table.
        self._vec = False
        self._kcol = None
        self._occ = None
        self._kcol2 = None
        self._occ2 = None
        self._freq_mv = None
        self._counter_mv = None
        self._flag_mv = None
        self._freqs2 = None
        self._counters2 = None

    def _sync_bucket(self, base: int) -> None:
        """Refresh the key columns for one bucket after a scalar miss."""
        kcol = self._kcol
        occ = self._occ
        for j in range(base, base + self._d):
            key = self._keys[j]
            if key is None:
                occ[j] = False
                kcol[j] = 0
            else:
                occ[j] = True
                try:
                    kcol[j] = key
                except (OverflowError, TypeError, ValueError):
                    self._disable_vectorization()
                    return

    # ----------------------------------------------------------- insertion
    def insert(self, item: int) -> None:
        """Single arrival, short-circuited past the ndarray protocol.

        Matches :meth:`repro.core.ltc.LTC.insert` observable-state-for-
        state; the hit path goes through int64 memoryviews (cheap scalar
        indexing) and the CLOCK advance is inlined so per-event mode costs
        no more than :class:`FastLTC` despite the column mirror.
        """
        if not self._vec:
            super().insert(item)
            return
        if self._obs is not None:
            self._m_inserts.inc()
        slot = self._slot_of.get(item)
        if slot is not None:
            self._freq_mv[slot] += 1
            self._flag_mv[slot] |= self._set_bit
            if self._cell_listener is not None:
                self._cell_listener.cell_touched(slot)
        else:
            self._scalar_miss(item)
        clock = self._clock
        acc = clock._acc + clock.num_cells
        n = clock.items_per_period
        if acc < n:
            clock._acc = acc
            return
        steps = acc // n
        clock._acc = acc - steps * n
        self._harvest_segments(steps)

    def _scalar_miss(self, item: int) -> bool:
        """One miss through the memoryview columns (no CLOCK advance).

        Mirrors ``FastLTC._place_miss`` line for line — same float
        scoring, same tie-breaking, same flag reconciliation — but reads
        and writes the int64 columns through memoryviews and syncs only
        the single touched fingerprint slot, instead of re-deriving the
        whole bucket.  Serves both the per-event ``insert`` short-circuit
        and the segmented replay's queue drain.  Returns ``True`` when
        the bucket's key set changed (claim or eviction), ``False`` for a
        Significance Decrement the incumbent survived — the drain uses
        this to know when cached hit slots go stale.
        """
        if not self._vec:
            # A prior oversized key dropped the column mirror mid-stream
            # (callers may hold stale memoryviews over the still-live
            # numpy buffers); finish through the FastLTC path.
            self._place_miss(item)
            return True
        d = self._d
        base = (splitmix64(item ^ self._seed) % self._w) * d
        keys = self._keys
        fmv = self._freq_mv
        cmv = self._counter_mv
        flmv = self._flag_mv
        listener = self._cell_listener
        empty = -1
        for j in range(base, base + d):
            if keys[j] is None:
                empty = j
                break
        if empty >= 0:  # Free cell: claim it.
            keys[empty] = item
            fmv[empty] = 1
            cmv[empty] = 0
            flmv[empty] = self._set_bit
            self._slot_of[item] = empty
            self._occ[empty] = True
            try:
                self._kcol[empty] = item
            except (OverflowError, TypeError, ValueError):
                self._disable_vectorization()
            if listener is not None:
                listener.cell_touched(empty)
            return True
        alpha, beta = self._alpha, self._beta
        metered = self._obs is not None
        jmin = base
        smin = alpha * fmv[base] + beta * cmv[base]
        for j in range(base + 1, base + d):
            s = alpha * fmv[j] + beta * cmv[j]
            if s < smin:
                smin, jmin = s, j
        if self._policy == "space-saving":
            if metered:
                self._m_evictions.inc()
            old = keys[jmin]
            if old is not None:
                del self._slot_of[old]
            keys[jmin] = item
            fmv[jmin] += 1
            flmv[jmin] = self._set_bit
            self._slot_of[item] = jmin
            try:
                self._kcol[jmin] = item
            except (OverflowError, TypeError, ValueError):
                self._disable_vectorization()
            if listener is not None:
                listener.cell_touched(jmin)
            return True
        if metered:
            self._m_decrements.inc()
        fj = fmv[jmin]
        if cmv[jmin] > 0:
            cmv[jmin] -= 1
        elif fj > 0:
            # Charge the decrement to the oldest pending flag when the
            # counter is empty and the flags cover the whole frequency
            # (see LTC._decrement_smallest).
            bits = flmv[jmin]
            if (bits & 1) + (bits >> 1 & 1) >= fj:
                if bits & self._harvest_bit:
                    flmv[jmin] = bits & ~self._harvest_bit & 0xFF
                else:
                    flmv[jmin] = bits & ~self._set_bit & 0xFF
        if fj > 0:
            fj -= 1
            fmv[jmin] = fj
        if alpha * fj + beta * cmv[jmin] > 0:
            if listener is not None:
                listener.cell_touched(jmin)
            return False
        if self._ltr and d > 1:
            f2 = c2 = None
            for j in range(base, base + d):
                if j == jmin:
                    continue
                fv = fmv[j]
                if f2 is None or fv < f2:
                    f2 = fv
                cv = cmv[j]
                if c2 is None or cv < c2:
                    c2 = cv
            assert f2 is not None and c2 is not None
            f0 = max(f2 - 1, 1)
            c0 = min(max(c2 - 1, 0), f0 - 1)
            if metered:
                self._m_longtail.inc()
        else:
            f0, c0 = 1, 0
        if metered:
            self._m_evictions.inc()
        old = keys[jmin]
        if old is not None:
            del self._slot_of[old]
        keys[jmin] = item
        fmv[jmin] = f0
        cmv[jmin] = c0
        flmv[jmin] = self._set_bit
        self._slot_of[item] = jmin
        try:
            self._kcol[jmin] = item
        except (OverflowError, TypeError, ValueError):
            self._disable_vectorization()
        if listener is not None:
            listener.cell_touched(jmin)
        return True

    def _place_miss(self, item: int) -> None:
        super()._place_miss(item)
        if self._vec:
            base = (splitmix64(item ^ self._seed) % self._w) * self._d
            self._sync_bucket(base)

    def insert_many(
        self, items: Iterable[int], counts: Optional[Sequence[int]] = None
    ) -> None:
        """Batched arrivals through the columnar kernel.

        Replay-identical to :meth:`FastLTC.insert_many` (same cells, same
        CLOCK state, same metrics); see the module docstring for the
        commutation argument.  Falls back to the scalar path without
        numpy, with the Deviation Eliminator off (set and harvest flags
        share a bit and stop commuting), or when the batch contains keys
        outside the uint64 domain.
        """
        items = as_items(items)
        if counts is not None:
            items = expand_counts(items, counts)
        if not self._vec or not self._de:
            super().insert_many(items)
            return
        seq: Sequence[int] = (
            items if isinstance(items, (list, tuple)) else list(items)
        )
        try:
            arr = _np.asarray(seq, dtype=_np.uint64)
        except (OverflowError, TypeError, ValueError):
            super().insert_many(seq)
            return
        total = len(seq)
        if self._m_batch is not None:
            self._m_batch.observe(total)
        if self._obs is not None:
            self._m_inserts.inc(total)
        if total == 0:
            return
        hashed = splitmix64_array(arr ^ _np.uint64(self._seed))
        w = self._w
        if w & (w - 1) == 0:
            # Power-of-two bucket counts (the common sizing) mask instead
            # of paying the uint64 modulo, which costs ~2x the hash.
            buckets = (hashed & _np.uint64(w - 1)).astype(_np.int64)
        else:
            buckets = (hashed % _np.uint64(w)).astype(_np.int64)
        slots0 = buckets * self._d
        for start in range(0, total, _CHUNK):
            self._ingest_chunk(
                seq, arr, buckets, slots0, start, min(start + _CHUNK, total)
            )

    def _ingest_chunk(
        self,
        seq: Sequence[int],
        arr: Any,
        buckets: Any,
        slots0: Any,
        start: int,
        stop: int,
    ) -> None:
        """Classify and apply one chunk against the current table state."""
        b = buckets[start:stop]
        s0 = slots0[start:stop]
        span = stop - start
        eq, hit = self._probe_chunk(b, arr[start:stop])
        # Per-event hit slots, valid wherever ``hit`` holds — reused by
        # both the clean-hit aggregation and the dirty replay's initial
        # classification (no key set changes between here and there).
        slots = s0 + eq.argmax(axis=1)
        if hit.all():
            # All-hit chunk (the steady state on hit-heavy streams): every
            # event is clean, aggregate with one bincount and advance the
            # CLOCK over the whole span in one go.
            if self._probe is not None:
                self._probe(span, span, 0)
            self._apply_hit_slots(slots)
            self._advance_and_harvest(span)
            return
        # An event is clean iff it hits AND precedes its bucket's first
        # in-chunk miss: nothing can have mutated its bucket's key set by
        # its arrival, so the start-state hit stands.
        misses = _np.flatnonzero(~hit)
        first_miss = _np.full(self._w, span, dtype=_np.int64)
        _np.minimum.at(first_miss, b[misses], misses)
        clean = hit & (_np.arange(span, dtype=_np.int64) < first_miss[b])
        dirty = _np.flatnonzero(~clean)
        if self._probe is not None:
            self._probe(span, span - len(dirty), len(dirty))
        if len(dirty) < span:
            # Clean hits commute with everything in the chunk: aggregate
            # them up front with one bincount per chunk.
            self._apply_hit_slots(slots[clean])
        # Initial dirty-tail classification, straight from the chunk
        # probe: the clean hits just applied cannot change any key set.
        dirty_slots = _np.where(hit[dirty], slots[dirty], _np.int64(-1))
        self._replay_dirty(seq, arr, b, start, span, dirty, dirty_slots)

    def _probe_chunk(self, b: Any, karr: Any) -> Tuple[Any, Any]:
        """Probe one chunk's keys against their bucket rows.

        Row-gather through the (w, d) views: one fancy index per column
        instead of materialising a per-event cell-index matrix.  Returns
        the per-event ``(span, d)`` equality matrix and the hit mask.
        """
        eq = (self._kcol2[b] == karr[:, None]) & self._occ2[b]
        return eq, eq.any(axis=1)

    def _apply_hit_slots(self, slots: Any) -> None:
        """Aggregate a set of hit events (given as slots) in one pass."""
        adds = _np.bincount(slots, minlength=self.total_cells)
        self._freqs += adds
        self._flags[adds > 0] |= self._set_bit
        if self._cell_listener is not None:
            self._cell_listener.cells_touched(_np.flatnonzero(adds).tolist())

    # ------------------------------------------------------- dirty replay
    def _replay_dirty(
        self,
        seq: Sequence[int],
        arr: Any,
        b: Any,
        start: int,
        span: int,
        dirty: Any,
        dirty_slots: Any,
    ) -> None:
        """Replay the dirty tail of one chunk (events at offsets ``dirty``).

        ``dirty_slots`` carries the chunk probe's classification of each
        dirty event against the pre-replay table (slot, or -1 for a miss).
        """
        clock = self._clock
        if (
            len(dirty) >= _SEG_MIN_DIRTY
            and clock.items_per_period * (clock.num_cells + 1) < _SCHEDULE_LIMIT
        ):
            self._replay_segmented(seq, arr, b, start, span, dirty, dirty_slots)
        else:
            self._replay_scalar(seq, start, span, dirty.tolist())

    def _replay_scalar(
        self, seq: Sequence[int], start: int, span: int, dirty: List[int]
    ) -> None:
        """Per-event dirty-tail replay (the segmented kernel's reference).

        Events replay one-by-one in stream order, the CLOCK advanced to
        each event's exact arrival offset (inlined on_arrivals arithmetic
        and hit path, as in FastLTC.insert_many) — hits and misses
        through the memoryview columns, which also serves
        :class:`repro.core.auto.AutoLTC` as its whole-batch fast mode.
        """
        listener = self._cell_listener
        get = self._slot_of.get
        freqs = self._freq_mv
        flags = self._flag_mv
        set_bit = self._set_bit
        miss = self._scalar_miss
        clock = self._clock
        n = clock.items_per_period
        m = clock.num_cells
        acc = clock._acc
        prev = 0
        for k in dirty:
            gap = k - prev
            if gap:
                acc += gap * m
                steps = acc // n
                if steps:
                    acc -= steps * n
                    self._harvest_segments(steps)
            item = seq[start + k]
            slot = get(item)
            if slot is not None:
                freqs[slot] += 1
                flags[slot] |= set_bit
                if listener is not None:
                    listener.cell_touched(slot)
            else:
                miss(item)
            acc += m
            steps = acc // n
            if steps:
                acc -= steps * n
                self._harvest_segments(steps)
            prev = k + 1
        if span > prev:
            acc += (span - prev) * m
            steps = acc // n
            if steps:
                acc -= steps * n
                self._harvest_segments(steps)
        clock._acc = acc

    def _replay_segmented(
        self,
        seq: Sequence[int],
        arr: Any,
        b: Any,
        start: int,
        span: int,
        dirty: Any,
        dirty_slots: Any,
    ) -> None:
        """Segmented, round-based vectorized replay of the dirty tail.

        Builds one FIFO operation queue per dirty bucket — the bucket's
        events, merged with the CLOCK sweeps of its slots at the exact
        arrival offsets the per-event path would take them (a sweep
        triggered by arrival ``k`` lands *after* event ``k``) — then
        resolves the queues round by round in :meth:`_run_peels`.  Sweeps
        of clean buckets commute with the whole chunk and are applied in
        one bulk pass; the CLOCK state is finalised in closed form (the
        accumulator evolves mod ``items_per_period`` independently of the
        sweep cap).
        """
        np = _np
        d = self._d
        clock = self._clock
        n = clock.items_per_period
        m = clock.num_cells
        acc0 = clock._acc
        hand0 = clock.hand
        scanned0 = clock.scanned_in_period
        total_steps = (acc0 + span * m) // n
        if total_steps > m - scanned0:
            total_steps = m - scanned0
        if total_steps > 0:
            t = np.arange(1, total_steps + 1, dtype=np.int64)
            sweep_slots = (hand0 + t - 1) % m
            # Sweep t fires after the arrival at offset ceil((t*n-acc0)/m)-1.
            sweep_offsets = (t * n - acc0 - 1) // m
        else:
            sweep_slots = np.empty(0, dtype=np.int64)
            sweep_offsets = sweep_slots
        eb = b[dirty]
        dirty_bucket = np.zeros(self._w, dtype=bool)
        dirty_bucket[eb] = True
        sweep_bucket = sweep_slots // d
        sweep_is_dirty = dirty_bucket[sweep_bucket]
        if not sweep_is_dirty.all():
            self._sweep_slots(sweep_slots[~sweep_is_dirty])
        qsweep = sweep_slots[sweep_is_dirty]
        qoff = sweep_offsets[sweep_is_dirty]
        # One op per dirty event and per dirty-bucket sweep, merged in
        # stream order (a sweep fires after the event at its offset, and
        # sweep offsets never decrease), then grouped by bucket with a
        # stable sort, which keeps each bucket's order.
        nev = len(dirty)
        nops = nev + len(qsweep)
        ev_at = np.arange(nev) + np.searchsorted(qoff, dirty)
        sw_at = np.arange(len(qsweep)) + np.searchsorted(dirty, qoff, side="right")
        obucket = np.empty(nops, dtype=np.int64)
        obucket[ev_at] = eb
        obucket[sw_at] = qsweep // d
        # Per op: the event's chunk offset (0 for a sweep) and its class
        # under the current table — the slot it hits, -1 for a miss, or
        # ``m + slot`` for a sweep of ``slot``.
        offset = np.zeros(nops, dtype=np.int64)
        offset[ev_at] = dirty
        opclass = np.empty(nops, dtype=np.int64)
        opclass[ev_at] = dirty_slots
        opclass[sw_at] = qsweep + m
        # Bucket ids fit 16 bits at every practical width, where the
        # stable sort is a radix sort.
        by_bucket = obucket.astype(np.uint16) if self._w <= 1 << 16 else obucket
        order = np.argsort(by_bucket, kind="stable")
        sizes = np.bincount(obucket)
        qbucket = sizes.nonzero()[0]
        ends = sizes[qbucket].cumsum()
        self._run_peels(
            seq, arr, start, qbucket, offset[order], opclass[order],
            ends - sizes[qbucket], ends,
        )
        clock._acc = (acc0 + span * m) % n
        clock.hand = (hand0 + total_steps) % m
        clock.scanned_in_period = scanned0 + total_steps

    def _run_peels(
        self,
        seq: Sequence[int],
        arr: Any,
        start: int,
        qbucket: Any,
        offset: Any,
        opclass: Any,
        starts: Any,
        ends: Any,
    ) -> None:
        """Resolve the per-bucket op queues (``[starts, ends)``) by rounds.

        Each queue is a *lane* with a cursor (its first unapplied op) and
        the position of its next pending **miss**, read from the chunk's
        next-miss index ``nxt``.  A round flushes every lane's ops in
        ``[cursor, next miss)`` in one bulk pass — hits and sweeps never
        change a bucket's key set, so their classes stand — then applies
        one miss per lane vectorized (:meth:`_apply_misses`).  Lanes whose
        miss only decremented leave every class and ``nxt`` entry valid
        and simply step to ``nxt[miss + 1]``.  A claim or eviction flips
        exactly two keys' later events in its own queue — the installed
        key's misses become hits on the slot, the evicted key's hits on
        that slot become misses — so only those lanes reclassify their
        pending slice and rebuild it in ``nxt``.  Nothing scans the other
        lanes' pending ops, so a round costs the lanes it advances, the
        ops it applies and the slices it reclassifies.  A lane whose
        queue holds no further miss retires; its trailing hits and sweeps
        flush in one pass at the end.  When fewer than
        ``_SEG_MIN_ACTIVE`` lanes remain, they drain through the scalar
        per-event machinery (which keeps metrics and listener
        notifications exact).
        """
        np = _np
        nops = len(offset)
        okey = arr[start + offset]
        # One slot past the last queue, so ``nxt[miss + 1]`` is always
        # in range; it reads as that lane's end (no further miss).
        nxt = np.empty(nops + 1, dtype=np.int64)
        nxt[:nops] = _next_miss(
            opclass, np.arange(nops, dtype=np.int64), ends.repeat(ends - starts)
        )
        nxt[nops] = nops
        head = nxt[starts]
        live = head < ends
        tail_lo = [starts[~live]]
        tail_hi = [ends[~live]]
        # Active lanes in queue order: cursor, next miss, end, bucket.
        cur = starts[live]
        nm = head[live]
        end = ends[live]
        bk = qbucket[live]
        while len(nm) >= _SEG_MIN_ACTIVE:
            gap = nm - cur
            if np.count_nonzero(gap):
                self._flush_ops(opclass[_ranges(cur, gap)])
            rows, slots = self._apply_misses(
                seq, start, offset[nm], okey[nm], bk
            )
            if len(rows):
                # Key set changed: in each such lane the installed key's
                # pending misses become hits on the slot and the evicted
                # key's hits on that slot become misses.  Rewrite the
                # lane's pending slice and its part of the next-miss index.
                head = nm[rows]
                lo = head + 1
                hi = end[rows]
                rl = hi - lo
                idx = _ranges(lo, rl)
                if len(idx):
                    slot_rep = slots.repeat(rl)
                    cls = opclass[idx]
                    gained = (okey[idx] == okey[head].repeat(rl)) & (cls < 0)
                    cls = np.where(
                        gained, slot_rep, np.where(cls == slot_rep, -1, cls)
                    )
                    opclass[idx] = cls
                    nxt[idx] = _next_miss(cls, idx, hi.repeat(rl))
            cur = nm + 1
            nm = nxt[cur]
            done = nm >= end
            if np.count_nonzero(done):
                tail_lo.append(cur[done])
                tail_hi.append(end[done])
                keep = ~done
                cur = cur[keep]
                nm = nm[keep]
                end = end[keep]
                bk = bk[keep]
        lo = np.concatenate(tail_lo)
        idx = _ranges(lo, np.concatenate(tail_hi) - lo)
        if len(idx):
            self._flush_ops(opclass[idx])
        if len(cur):
            self._drain_lanes(seq, start, offset, opclass, cur, end)

    def _drain_lanes(
        self,
        seq: Sequence[int],
        start: int,
        offset: Any,
        opclass: Any,
        cur: Any,
        end: Any,
    ) -> None:
        """Scalar drain of the lanes' ops ``[cur, end)``.

        Per-bucket order is all that matters, so each lane finishes
        independently through the memoryview per-event machinery.
        """
        m = self.total_cells
        get = self._slot_of.get
        fmv = self._freq_mv
        flmv = self._flag_mv
        set_bit = self._set_bit
        miss = self._scalar_miss
        harvest = self._drain_harvest
        listener = self._cell_listener
        cls_l = opclass.tolist()
        off_l = offset.tolist()
        for lo, hi in zip(cur.tolist(), end.tolist()):
            # Op classes are current for every unapplied op, so the drain
            # trusts them until this lane's first key-set change; after
            # that, it falls back to dict lookups.
            fresh = True
            for p in range(lo, hi):
                c = cls_l[p]
                if c >= m:
                    harvest(c - m)
                elif fresh:
                    if c >= 0:
                        fmv[c] += 1
                        flmv[c] |= set_bit
                        if listener is not None:
                            listener.cell_touched(c)
                    else:
                        fresh = not miss(seq[start + off_l[p]])
                else:
                    item = seq[start + off_l[p]]
                    slot = get(item)
                    if slot is not None:
                        fmv[slot] += 1
                        flmv[slot] |= set_bit
                        if listener is not None:
                            listener.cell_touched(slot)
                    else:
                        miss(item)

    def _drain_harvest(self, slot: int) -> None:
        """CLOCK scan of one cell through the memoryview columns.

        Mirrors ``LTC._harvest`` minus the pointer bookkeeping — the
        segmented replay schedules sweeps itself.
        """
        flmv = self._flag_mv
        bits = flmv[slot]
        if bits & self._harvest_bit:
            flmv[slot] = bits & ~self._harvest_bit & 0xFF
            if self._keys[slot] is not None:
                self._counter_mv[slot] += 1
                if self._obs is not None:
                    self._m_harvests.inc()
                if self._cell_listener is not None:
                    self._cell_listener.cell_touched(slot)

    def _flush_ops(self, ops: Any) -> None:
        """Bulk-apply a set of op classes holding hits and sweeps (no misses).

        Hits commute with hits (frequency adds and identical set-bit OR)
        and with sweeps (disjoint cell state), so one unbuffered add and
        one sweep pass apply the whole set exactly.
        """
        m = self.total_cells
        sw = ops >= m
        if _np.count_nonzero(sw):
            self._sweep_slots(ops[sw] - m)
            ops = ops[~sw]
            if not len(ops):
                return
        _np.add.at(self._freqs, ops, 1)
        self._flags[ops] |= self._set_bit
        if self._cell_listener is not None:
            # Sorted distinct slots via bincount, as the clean-hit path
            # does (np.unique measured ~1.3 MB higher peak RSS at serve).
            touched = _np.bincount(ops, minlength=self.total_cells).nonzero()[0]
            self._cell_listener.cells_touched(touched.tolist())

    def _apply_misses(
        self, seq: Sequence[int], start: int, koff: Any, kval: Any, ebk: Any
    ) -> Tuple[Any, Any]:
        """Apply one miss per lane (all buckets ``ebk`` distinct), vectorized.

        Mirrors ``FastLTC._place_miss`` lane for lane: a lane whose bucket
        has a free cell claims the first one; the rest go through
        Significance Decrementing (:meth:`_decrement_lanes`).  ``koff`` /
        ``kval`` are the misses' chunk offsets and uint64 keys.  Returns
        the ascending lanes whose bucket's **key set** changed (claim or
        eviction) and the slot each changed — the only lanes whose pending
        classes need revisiting.
        """
        np = _np
        if np.count_nonzero(self._occ) == self.total_cells:
            # Full table (the steady state): every lane decrements.
            return self._decrement_lanes(seq, start, koff, kval, ebk)
        d = self._d
        rows_o = self._occ2.take(ebk, axis=0)
        has_empty = ~rows_o.all(axis=1)
        crow = has_empty.nonzero()[0]
        # First free cell, as in the scalar scan.
        cslot = ebk[crow] * d + (~rows_o[crow]).argmax(axis=1)
        coff = koff[crow]
        self._freqs[cslot] = 1
        self._counters[cslot] = 0
        self._flags[cslot] = self._set_bit
        self._occ[cslot] = True
        self._kcol[cslot] = kval[crow]
        keys = self._keys
        slot_of = self._slot_of
        for s, k in zip(cslot.tolist(), coff.tolist()):
            item = seq[start + k]
            keys[s] = item
            slot_of[item] = s
        if self._cell_listener is not None:
            self._cell_listener.cells_touched(cslot.tolist())
        frow = (~has_empty).nonzero()[0]
        if not len(frow):
            return crow, cslot
        drow, dslot = self._decrement_lanes(
            seq, start, koff[frow], kval[frow], ebk[frow]
        )
        rows = np.concatenate((crow, frow[drow]))
        slots = np.concatenate((cslot, dslot))
        order = rows.argsort()
        return rows[order], slots[order]

    def _decrement_lanes(
        self, seq: Sequence[int], start: int, koff: Any, kval: Any, fbk: Any
    ) -> Tuple[Any, Any]:
        """Significance Decrementing on full buckets, one miss per lane.

        The common lane only decrements its bucket's least significant
        cell: gather, ``argmin``, decrement, death test.  Lanes whose cell
        dies go on to eviction (with Long-tail Replacement when enabled).
        Distinct buckets make every slot array duplicate-free, so plain
        fancy writes are exact.  Returns the evicting lanes and slots.
        """
        np = _np
        d = self._d
        freqs = self._freqs
        counters = self._counters
        flags = self._flags
        set_bit = self._set_bit
        listener = self._cell_listener
        metered = self._obs is not None
        alpha, beta = self._alpha, self._beta
        rows_f = self._freqs2.take(fbk, axis=0)
        rows_c = self._counters2.take(fbk, axis=0)
        # argmin returns the first minimum — the same tie-breaking as the
        # scalar strict-< scan; float64 scoring matches the scalar
        # arithmetic bit for bit.
        jmin = (alpha * rows_f + beta * rows_c).argmin(axis=1)
        slot = fbk * d + jmin
        if self._policy == "space-saving":
            if metered:
                self._m_evictions.inc(len(slot))
            freqs[slot] += 1
            flags[slot] = set_bit
            self._install(seq, start, slot, koff, kval, slot)
            return np.arange(len(slot)), slot
        if metered:
            self._m_decrements.inc(len(slot))
        fj = freqs[slot]
        cj = counters[slot]
        has_c = cj > 0
        has_f = fj > 0
        nc = cj - has_c
        nf = fj - has_f
        counters[slot] = nc
        freqs[slot] = nf
        # Counter empty: charge the oldest pending flag when the flags
        # cover the whole pre-decrement frequency.
        bits = flags[slot]
        covered = (has_f > has_c) & (_FLAG_COUNT.take(bits) >= fj)
        if np.count_nonzero(covered):
            flags[slot] = np.where(
                covered, _CHARGE_OLDEST[self._harvest_bit].take(bits), bits
            )
        drow = (alpha * nf + beta * nc <= 0).nonzero()[0]
        if len(drow):
            dslot = slot[drow]
            if metered:
                self._m_evictions.inc(len(drow))
            if self._ltr and d > 1:
                if metered:
                    self._m_longtail.inc(len(drow))
                # Second-smallest per row with the evicted cell masked
                # out; only that cell changed since the gather, so the
                # pre-decrement rows are exact for the rest.
                sub = np.arange(len(drow))
                jm = jmin[drow]
                masked_f = rows_f.take(drow, axis=0)
                masked_c = rows_c.take(drow, axis=0)
                masked_f[sub, jm] = _INT64_MAX
                masked_c[sub, jm] = _INT64_MAX
                # Row minima through argmin, several times cheaper than a
                # min reduction over short rows.
                f2 = masked_f[sub, masked_f.argmin(axis=1)]
                c2 = masked_c[sub, masked_c.argmin(axis=1)]
                f0 = np.maximum(f2 - 1, 1)
                c0 = np.minimum(np.maximum(c2 - 1, 0), f0 - 1)
            else:
                f0 = 1
                c0 = 0
            freqs[dslot] = f0
            counters[dslot] = c0
            flags[dslot] = set_bit
            self._install(seq, start, dslot, koff[drow], kval[drow], slot)
            return drow, dslot
        if listener is not None:
            listener.cells_touched(slot.tolist())
        return drow, drow  # no evictions: both empty

    def _install(
        self,
        seq: Sequence[int],
        start: int,
        slots: Any,
        koff: Any,
        kval: Any,
        touched: Any,
    ) -> None:
        """Replace the keys of occupied ``slots`` by the chunk's events,
        then notify the listener of every slot in ``touched`` (the whole
        round's writes, evicted slots included)."""
        self._kcol[slots] = kval
        keys = self._keys
        slot_of = self._slot_of
        items = map(seq.__getitem__, (koff + start).tolist())
        for s, item in zip(slots.tolist(), items):
            del slot_of[keys[s]]
            keys[s] = item
            slot_of[item] = s
        if self._cell_listener is not None:
            self._cell_listener.cells_touched(touched.tolist())

    def _sweep_slots(self, slots: Any) -> None:
        """Apply the CLOCK sweep to an explicit (duplicate-free) slot set.

        The harvest itself, without pointer arithmetic — the segmented
        replay schedules sweeps itself and finalises the CLOCK in closed
        form.  A set harvest-flag implies an occupied cell (flags are only
        ever set by hits/claims), matching ``_harvest_segments``.
        """
        if len(slots) == 0:
            return
        flags = self._flags
        bits = flags[slots]
        hm = (bits & self._harvest_bit) != 0
        harvested = int(_np.count_nonzero(hm))
        if not harvested:
            return
        hs = slots[hm]
        self._counters[hs] += 1
        flags[hs] = bits[hm] & (~self._harvest_bit & 0xFF)
        if self._obs is not None:
            self._m_harvests.inc(harvested)
        if self._cell_listener is not None:
            self._cell_listener.cells_touched(hs.tolist())

    # ----------------------------------------------------------- harvesting
    def _advance_and_harvest(self, count: int) -> None:
        """Advance the CLOCK by ``count`` arrivals, harvesting as slices.

        The accumulator arithmetic inlines
        :meth:`repro.core.clock.ClockPointer.on_arrivals`; the swept slot
        range is applied to the flag/counter columns by
        :meth:`_harvest_segments` instead of a per-slot loop.
        """
        clock = self._clock
        acc = clock._acc + count * clock.num_cells
        steps = acc // clock.items_per_period
        clock._acc = acc - steps * clock.items_per_period
        if steps:
            self._harvest_segments(steps)

    def _harvest_segments(self, steps: int) -> None:
        """Sweep ``steps`` slots from the hand as ≤ 2 contiguous slices."""
        clock = self._clock
        m = clock.num_cells
        steps = min(steps, m - clock.scanned_in_period)
        if steps <= 0:
            return
        if steps <= 8:
            # Array-slice overhead dwarfs a handful of scalar probes.
            for slot in clock._take(steps):
                self._harvest(slot)
            return
        hand = clock.hand
        hb = self._harvest_bit
        first = min(steps, m - hand)
        flags = self._flags
        counters = self._counters
        listener = self._cell_listener
        harvested = 0
        for a, b in ((hand, hand + first), (0, steps - first)):
            if b <= a:
                continue
            seg = flags[a:b]
            mask = (seg & hb) != 0
            if mask.any():
                counters[a:b][mask] += 1
                seg &= ~hb
                harvested += int(mask.sum())
                if listener is not None:
                    listener.cells_touched((a + _np.flatnonzero(mask)).tolist())
        clock.hand = (hand + steps) % m
        clock.scanned_in_period += steps
        if harvested and self._obs is not None:
            self._m_harvests.inc(harvested)

    # --------------------------------------------------------------- queries
    # The numpy columns double as the row storage, so the inherited read
    # paths would hand numpy scalars (``np.int64`` / ``np.float64``) to
    # callers — breaking e.g. ``json.dumps`` of a report.  Coerce back to
    # Python scalars at the public read boundary.
    def estimate(self, item: int) -> Tuple[int, int]:
        f, p = super().estimate(item)
        return int(f), int(p)

    def query(self, item: int) -> float:
        return float(super().query(item))

    def top_k(self, k: int) -> List[ItemReport]:
        return [
            r._replace(significance=float(r.significance))
            for r in super().top_k(k)
        ]

    def cells(self) -> Iterator[CellView]:
        for cv in super().cells():
            yield cv._replace(
                frequency=int(cv.frequency), persistency=int(cv.persistency)
            )

    # ------------------------------------------------------------- lifecycle
    def clear(self) -> None:
        """Reset the structure (re-enabling vectorization) to fresh state."""
        super().clear()
        self._vec = _np is not None
        if self._vec:
            self._columnize()

    def _reindex(self) -> None:
        """Rebuild the item→slot index and the key columns (restore path).

        The serializer fills the row arrays element-wise (which works on
        numpy columns), then calls this hook to refresh the derived state.
        """
        super()._reindex()
        if self._vec:
            self._rebuild_key_columns()
