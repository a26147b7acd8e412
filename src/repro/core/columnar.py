"""ColumnarLTC: the production LTC kernel, struct-of-arrays with a
compiled batch path.

The cell state lives in numpy **columns**: ``int64`` frequency,
persistency and flags, and one ``uint64`` key column where an empty cell
holds the checkpoint format's :data:`~repro.core.serialize.EMPTY_KEY`.
``insert_many`` is one call into a C loop (``_ltc_kernel.c``, built on
first use by :mod:`repro.core.ckernel`) that runs the reference update
arrival by arrival, so it is replay-identical to per-event
:meth:`LTC.insert`; ``tests/test_columnar.py`` pins cells, CLOCK state,
checkpoint bytes and the ``ltc_*`` counters against the reference LTC.

Keys live in ``[0, MAX_KEY]``, the range the key column and a checkpoint
can hold; ``insert`` and ``insert_many`` raise ``ValueError`` for any
other key before changing anything.  A Python key list and an item→slot
dict mirror the key column for the per-event paths and the read API; a
batch patches them once, from the slots whose key it replaced.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as _np

from repro.core import ckernel
from repro.core.config import LTCConfig
from repro.core.ltc import LTC
from repro.core.serialize import EMPTY_KEY, MAX_KEY
from repro.hashing.family import splitmix64
from repro.summaries.base import ItemReport, as_items, expand_counts

_INT64_MAX = (1 << 63) - 1

_EMPTY = _np.uint64(EMPTY_KEY)


def _out_of_range(key: Any) -> ValueError:
    return ValueError(
        f"key {key!r} is outside ColumnarLTC's key range [0, {MAX_KEY}]"
    )


class ColumnarLTC(LTC):
    """LTC with numpy column storage and a compiled ``insert_many``.

    Observable behaviour is identical to the reference
    :class:`repro.core.ltc.LTC` for keys in ``[0, MAX_KEY]``; the
    item→slot index and the key column are pure acceleration, checked by
    the differential suite and, under ``REPRO_SANITIZE=1``, by the index
    and column-agreement invariants in :func:`repro.sanitize.check_ltc`.

    Raises:
        RuntimeError: the batch kernel cannot be built (no C compiler).
        ValueError: ``items_per_period + w*d`` does not fit an int64, the
            compiled CLOCK accumulator's type.
    """

    def __init__(self, config: LTCConfig) -> None:
        self._kernel = ckernel.load()
        if config.items_per_period + config.total_cells > _INT64_MAX:
            raise ValueError(
                "items_per_period + num_buckets*bucket_width must fit an "
                "int64 for the columnar kernel"
            )
        super().__init__(config)
        m = self.total_cells
        self._freqs = _np.zeros(m, dtype=_np.int64)
        self._counters = _np.zeros(m, dtype=_np.int64)
        self._flags = _np.zeros(m, dtype=_np.int64)
        self._kcol = _np.full(m, _EMPTY, dtype=_np.uint64)
        self._slot_of: Dict[int, int] = {}
        # The kernel's slot masks: keys replaced, and cells a listener
        # must hear of.
        self._changed = _np.zeros(m, dtype=_np.uint8)
        self._touched = _np.zeros(m, dtype=_np.uint8)
        # The columns are never rebound, only reset in place (``clear``,
        # restore), so the kernel state and these memoryviews keep their
        # buffers for the instance's life.  A memoryview reads and writes
        # one element ~2x cheaper than the ndarray protocol, which is what
        # the per-event paths ride on.
        self._freq_mv = memoryview(self._freqs)
        self._counter_mv = memoryview(self._counters)
        self._flag_mv = memoryview(self._flags)
        self._state = ckernel.KernelState(
            w=self._w, d=self._d, m=m, n=config.items_per_period,
            seed=self._seed, alpha=self._alpha, beta=self._beta,
            policy=ckernel.POLICIES[self._policy],
            keys=self._kcol.ctypes.data, freqs=self._freqs.ctypes.data,
            counters=self._counters.ctypes.data,
            flags=self._flags.ctypes.data, changed=self._changed.ctypes.data,
        )

    def _reindex(self) -> None:
        """Rebuild the item→slot index and the key column from the key
        list: the serializer fills the row arrays element-wise, then
        calls this hook to refresh the derived state."""
        keys = self._keys
        for key in keys:
            if key is not None and not 0 <= key <= MAX_KEY:
                raise _out_of_range(key)
        self._slot_of = {key: j for j, key in enumerate(keys) if key is not None}
        self._kcol[:] = [EMPTY_KEY if key is None else key for key in keys]

    # ----------------------------------------------------------- insertion
    def insert(self, item: int) -> None:
        """Single arrival, as :meth:`repro.core.ltc.LTC.insert`, through
        the memoryviews, with the CLOCK advance inlined."""
        self._place(item)
        if self._obs is not None:
            self._m_inserts.inc()
        clock = self._clock
        acc = clock._acc + clock.num_cells
        n = clock.items_per_period
        if acc < n:
            clock._acc = acc
            return
        steps = acc // n
        clock._acc = acc - steps * n
        for slot in clock._take(steps):
            self._harvest(slot)

    def _place(self, item: int) -> None:
        """The lossy-table update (per-event and timed inserts): an index
        hit, or else :meth:`_scalar_miss`."""
        slot = self._slot_of.get(item)
        if slot is None:
            self._scalar_miss(item)
            return
        self._freq_mv[slot] += 1
        self._flag_mv[slot] |= self._set_bit
        if self._cell_listener is not None:
            self._cell_listener.cell_touched(slot)

    def _scalar_miss(self, item: int) -> None:
        """One miss through the memoryview columns (no CLOCK advance).

        Mirrors ``LTC._place`` cases 2–3 line for line — same float
        scoring, same tie-breaking, same flag reconciliation — but reads
        and writes the int64 columns through memoryviews and keeps the
        index and the key column in step.  A key outside ``[0, MAX_KEY]``
        raises ``ValueError`` here, before any write (an indexed key is
        always in range, so hits need no check).
        """
        if not 0 <= item <= MAX_KEY:
            raise _out_of_range(item)
        d = self._d
        base = (splitmix64(item ^ self._seed) % self._w) * d
        keys = self._keys
        fmv = self._freq_mv
        cmv = self._counter_mv
        flmv = self._flag_mv
        for j in range(base, base + d):
            if keys[j] is None:  # Free cell: claim it.
                fmv[j] = 1
                cmv[j] = 0
                break
        else:
            alpha, beta = self._alpha, self._beta
            metered = self._obs is not None
            j = base
            smin = alpha * fmv[base] + beta * cmv[base]
            for i in range(base + 1, base + d):
                s = alpha * fmv[i] + beta * cmv[i]
                if s < smin:
                    smin, j = s, i
            if self._policy == "space-saving":
                fmv[j] += 1
            else:
                if metered:
                    self._m_decrements.inc()
                fj = fmv[j]
                if cmv[j] > 0:
                    cmv[j] -= 1
                elif fj > 0:
                    # Charge the decrement to the oldest pending flag when
                    # the counter is empty and the flags cover the whole
                    # frequency (see LTC._decrement_smallest).
                    bits = flmv[j]
                    if (bits & 1) + (bits >> 1 & 1) >= fj:
                        if bits & self._harvest_bit:
                            flmv[j] = bits & ~self._harvest_bit & 0xFF
                        else:
                            flmv[j] = bits & ~self._set_bit & 0xFF
                if fj > 0:
                    fj -= 1
                    fmv[j] = fj
                if alpha * fj + beta * cmv[j] > 0:
                    if self._cell_listener is not None:
                        self._cell_listener.cell_touched(j)
                    return
                if self._ltr and d > 1:
                    f2 = c2 = None
                    for i in range(base, base + d):
                        if i == j:
                            continue
                        fv = fmv[i]
                        if f2 is None or fv < f2:
                            f2 = fv
                        cv = cmv[i]
                        if c2 is None or cv < c2:
                            c2 = cv
                    assert f2 is not None and c2 is not None
                    fmv[j] = f0 = max(f2 - 1, 1)
                    cmv[j] = min(max(c2 - 1, 0), f0 - 1)
                    if metered:
                        self._m_longtail.inc()
                else:
                    fmv[j] = 1
                    cmv[j] = 0
            if metered:
                self._m_evictions.inc()
            del self._slot_of[keys[j]]
        keys[j] = item
        flmv[j] = self._set_bit
        self._slot_of[item] = j
        self._kcol[j] = item
        if self._cell_listener is not None:
            self._cell_listener.cell_touched(j)

    # reprolint: parity-ok — the C kernel writes the columns through their buffers
    def insert_many(
        self, items: Iterable[int], counts: Optional[Sequence[int]] = None
    ) -> None:
        """Batched arrivals through the compiled kernel.

        Replay-identical to per-event :meth:`insert` (same cells, same
        CLOCK state, same metrics): the C loop takes the arrivals one by
        one.  The whole batch is checked first, so a key outside
        ``[0, MAX_KEY]`` raises ``ValueError`` with the table untouched.
        """
        items = as_items(items)
        if counts is not None:
            items = expand_counts(items, counts)
        arr = self._key_array(items)
        total = len(arr)
        if self._m_batch is not None:
            self._m_batch.observe(total)
        if not total:
            return
        clock = self._clock
        st = self._state
        st.acc = clock._acc
        st.hand = clock.hand
        st.scanned = clock.scanned_in_period
        st.set_bit = self._set_bit
        st.harvest_bit = self._harvest_bit
        self._changed.fill(0)
        if self._cell_listener is None:
            st.touched = None
        else:
            self._touched.fill(0)
            st.touched = self._touched.ctypes.data
        self._kernel(st, arr.ctypes.data, total)
        clock._acc = st.acc
        clock.hand = st.hand
        clock.scanned_in_period = st.scanned
        if self._obs is not None:
            self._m_inserts.inc(total)
            for counter, delta in (
                (self._m_decrements, st.decrements),
                (self._m_evictions, st.evictions),
                (self._m_longtail, st.longtail),
                (self._m_harvests, st.harvests),
            ):
                if delta:
                    counter.inc(delta)
        self._publish()

    def _key_array(self, items: Iterable[int]) -> Any:
        """A batch as a ``uint64`` array; ``ValueError`` names the first
        key outside ``[0, MAX_KEY]``."""
        seq = items if isinstance(items, (list, tuple)) else list(items)
        try:
            arr = _np.asarray(seq, dtype=_np.uint64)
        except (OverflowError, TypeError, ValueError):
            arr = None
        if arr is None or arr.ndim != 1 or (len(arr) and arr.max() == _EMPTY):
            bad = (k for k in seq if not (isinstance(k, int) and 0 <= k <= MAX_KEY))
            raise _out_of_range(next(bad, seq))
        return arr

    def _publish(self) -> None:
        """Bring the key list and the item→slot index up to the key
        column at the slots the kernel marked changed (those whose key a
        batch replaced), then notify the listener of the touched slots.

        Every old key sat in exactly one slot, so all of them go before
        the new ones come in: a key that moved within the batch is
        dropped once and re-added at its final slot.
        """
        slots = self._changed.nonzero()[0]
        if len(slots):
            keys = self._keys
            slot_of = self._slot_of
            where = slots.tolist()
            for j in where:
                old = keys[j]
                if old is not None:
                    del slot_of[old]
            for j, key in zip(where, self._kcol[slots].tolist()):
                keys[j] = key
                slot_of[key] = j
        if self._cell_listener is not None:
            self._cell_listener.cells_touched(self._touched.nonzero()[0].tolist())

    # ----------------------------------------------------------- harvesting
    def _harvest(self, slot: int) -> None:
        """CLOCK scan of one cell (``LTC._harvest``) through the
        memoryview columns: the per-event paths and ``end_period``."""
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

    # --------------------------------------------------------------- queries
    # The numpy columns double as the row storage, so the inherited read
    # paths would hand numpy scalars (``np.int64`` / ``np.float64``) to
    # callers — breaking e.g. ``json.dumps`` of a report.  Coerce back to
    # Python scalars at the public read boundary.
    def estimate(self, item: int) -> Tuple[int, int]:
        """Estimated ``(frequency, persistency)`` of ``item`` via the index."""
        slot = self._slot_of.get(item)
        if slot is None:
            return 0, 0
        return self._freq_mv[slot], self._counter_mv[slot]

    def top_k(self, k: int) -> List[ItemReport]:
        return [
            r._replace(significance=float(r.significance))
            for r in super().top_k(k)
        ]

    def _tracked(self, item: int) -> bool:
        return item in self._slot_of

    # ------------------------------------------------------------- lifecycle
    def clear(self) -> None:
        """Reset the structure to its freshly-built state, in place."""
        self._kcol.fill(_EMPTY)
        self._slot_of = {}
        super().clear()
