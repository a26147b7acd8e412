"""ColumnarLTC: the production LTC kernel, struct-of-arrays with a
compiled update.

The cell state lives in numpy **columns**: ``int64`` frequency,
persistency and flags, and one ``uint64`` key column where a free cell
holds :data:`~repro.core.ltc.EMPTY_KEY`; ``_keys`` is a memoryview of
that column, so the inherited read paths see Python ints.  Every update
runs in C (``_ltc_kernel.c``, built on first use by
:mod:`repro.core.ckernel`): ``insert`` and ``insert_many`` through one
loop that takes the arrivals one by one, ``insert_timed`` and
``end_period`` through its place and sweep steps.  It is the reference
update step for step, so the kernel is replay-identical to
:class:`~repro.core.ltc.LTC`; ``tests/test_columnar.py`` pins cells,
CLOCK state, checkpoint bytes and the ``ltc_*`` counters against it.

Keys are ints in ``[0, MAX_KEY]``: every insert raises ``TypeError`` for
a key that is not an int and ``ValueError`` for one out of range, before
it changes anything.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence

import numpy as _np

from repro.core import ckernel
from repro.core.config import LTCConfig
from repro.core.ltc import EMPTY_KEY, LTC, MAX_KEY, out_of_range
from repro.summaries.base import as_items, expand_counts

_INT64_MAX = (1 << 63) - 1

_EMPTY = _np.uint64(EMPTY_KEY)


class ColumnarLTC(LTC):
    """LTC with numpy column storage and a compiled update.

    Observable behaviour is identical to the reference
    :class:`repro.core.ltc.LTC`.

    Raises:
        RuntimeError: the kernel cannot be built (no C compiler).
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
        # The columns are never rebound, only written in place (``clear``,
        # restore), so the kernel state and the key memoryview keep their
        # buffers for the instance's life.
        self._kcol = _np.full(m, EMPTY_KEY, dtype=_np.uint64)
        self._keys = memoryview(self._kcol)  # type: ignore[assignment]
        self._freqs = _np.zeros(m, dtype=_np.int64)
        self._counters = _np.zeros(m, dtype=_np.int64)
        self._flags = _np.zeros(m, dtype=_np.int64)
        # The cells a call changed, for the listener (bool: numpy finds
        # the set bytes of a bool array ~20x faster than of a uint8 one).
        self._touched = _np.zeros(m, dtype=_np.bool_)
        self._touched_addr = self._touched.ctypes.data
        # One arrival's key, for the per-event paths.
        self._one = array("Q", [0])
        self._one_addr = self._one.buffer_info()[0]
        self._state = ckernel.KernelState(
            w=self._w, d=self._d, m=m, n=config.items_per_period,
            seed=self._seed, alpha=self._alpha, beta=self._beta,
            policy=ckernel.POLICIES[self._policy],
            keys=self._kcol.ctypes.data, freqs=self._freqs.ctypes.data,
            counters=self._counters.ctypes.data, flags=self._flags.ctypes.data,
        )

    # ----------------------------------------------------------- insertion
    def insert(self, item: int) -> None:
        """Single arrival, as :meth:`repro.core.ltc.LTC.insert`: the batch
        loop with a count of one."""
        self._key(item)
        self._arrivals(self._one_addr, 1)

    # reprolint: parity-ok — the C kernel writes the columns through their buffers
    def insert_many(
        self, items: Iterable[int], counts: Optional[Sequence[int]] = None
    ) -> None:
        """Batched arrivals through the compiled loop.

        Replay-identical to per-event :meth:`insert` (same cells, same
        CLOCK state, same metrics).  The whole batch is checked first, so
        a bad key raises with the table untouched.
        """
        items = as_items(items)
        if counts is not None:
            items = expand_counts(items, counts)
        keys = self._key_array(items)
        total = len(keys)
        if self._m_batch is not None:
            self._m_batch.observe(total)
        if total:
            self._arrivals(keys.buffer_info()[0], total)

    def insert_timed(self, item: int, timestamp: float, period_seconds: float) -> None:
        """One arrival with a wall-clock timestamp, as
        :meth:`repro.core.ltc.LTC.insert_timed`."""
        ticks = self._elapsed_ticks(timestamp, period_seconds)
        key = self._key(item)
        self._kernel.ltc_place(self._enter(), key)
        self._leave(1)
        self._sweep(self._clock.on_elapsed_ticks(ticks))
        self._last_timestamp = timestamp

    def _key_array(self, items: Iterable[int]) -> "array[int]":
        """A batch as a ``uint64`` buffer: ``TypeError`` for a key that is
        not an int, ``ValueError`` naming the first key outside
        ``[0, MAX_KEY]``."""
        seq = items if isinstance(items, (list, tuple)) else list(items)
        try:
            keys = array("Q", seq)
        except OverflowError:
            bad = next(k for k in seq if not 0 <= k <= MAX_KEY)
            raise out_of_range(bad) from None
        if keys and _np.frombuffer(keys, _np.uint64).max() == _EMPTY:
            raise out_of_range(EMPTY_KEY)
        return keys

    def _key(self, item: int) -> int:
        """``item`` as a key, also left in the one-arrival buffer:
        ``TypeError`` unless it is an int, ``ValueError`` outside
        ``[0, MAX_KEY]``."""
        one = self._one
        try:
            one[0] = item
        except OverflowError:
            raise out_of_range(item) from None
        if one[0] == EMPTY_KEY:
            raise out_of_range(item)
        return one[0]

    def _arrivals(self, items: int, count: int) -> None:
        """``count`` count-based arrivals from the ``uint64`` buffer at
        address ``items``, with the CLOCK carried into the loop and back."""
        clock = self._clock
        st = self._enter()
        st.acc = clock._acc
        st.hand = clock.hand
        st.scanned = clock.scanned_in_period
        self._kernel.ltc_insert_many(st, items, count)
        clock._acc = st.acc
        clock.hand = st.hand
        clock.scanned_in_period = st.scanned
        self._leave(count)

    # ----------------------------------------------------------- harvesting
    def _sweep(self, slots: List[int]) -> None:
        """CLOCK scan of a run of slots (consecutive modulo the table
        size, as :class:`~repro.core.clock.ClockPointer` hands them out)."""
        if slots:
            self._kernel.ltc_sweep(self._enter(), slots[0], len(slots))
            self._leave(0)

    # ---------------------------------------------------------- kernel calls
    def _enter(self) -> ckernel.KernelState:
        """The kernel state, with this period's flag bits and, when a
        listener is attached, a cleared touched mask."""
        st = self._state
        st.set_bit = self._set_bit
        st.harvest_bit = self._harvest_bit
        if self._cell_listener is None:
            st.touched = None
        else:
            self._touched.fill(0)
            st.touched = self._touched_addr
        return st

    def _leave(self, arrivals: int) -> None:
        """Fold a kernel call's arrivals and counter deltas into the
        metrics, and notify the listener of the cells it touched."""
        if self._obs is not None:
            st = self._state
            if arrivals:
                self._m_inserts.inc(arrivals)
            for counter, delta in (
                (self._m_decrements, st.decrements),
                (self._m_evictions, st.evictions),
                (self._m_longtail, st.longtail),
                (self._m_harvests, st.harvests),
            ):
                if delta:
                    counter.inc(delta)
            st.decrements = st.evictions = st.longtail = st.harvests = 0
        if self._cell_listener is not None:
            self._cell_listener.cells_touched(self._touched.nonzero()[0].tolist())
