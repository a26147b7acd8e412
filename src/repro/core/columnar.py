"""ColumnarLTC: the production LTC kernel, struct-of-arrays with a
compiled update.

The cell state lives in numpy **columns**: ``int64`` frequency,
persistency and flags, and one ``uint64`` key column where a free cell
holds :data:`~repro.core.ltc.EMPTY_KEY`; ``_keys`` is a memoryview of
that column, so the inherited read paths see Python ints.  Every update
runs in C: ``_ltc_kernel.c`` is a CPython extension module, built on
first use by :mod:`repro.core.ckernel`, whose ``Kernel`` object holds
the column buffers and is the only home of the count-based CLOCK state
and the period's flag bits.  ``insert`` is the kernel's own bound method
and ``insert_many`` one call per batch (a ``uint64`` array is read in
place); ``insert_timed`` uses its place and sweep steps, and
``end_period`` its sweep.  Each kernel call ends in the kernel's
``watch``, set while metrics are on or a listener is attached, so a
bound ``insert`` is a whole insert.  ``_clock`` is a
:class:`~repro.core.clock.ClockPointer` whose count-based fields are
views of the kernel's, so checkpoints, the sanitizer and
``period_fill`` read and restore it as they do the reference's.  The
update is the reference update step for step, so the kernel is
replay-identical to :class:`~repro.core.ltc.LTC`;
``tests/test_columnar.py`` pins cells, CLOCK state, checkpoint bytes
and the ``ltc_*`` counters against it.

Keys are ints in ``[0, MAX_KEY]``: every insert raises ``TypeError`` for
a key that is not an int and ``ValueError`` for one out of range, before
it changes anything.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Iterable

import numpy as _np

from repro.core import ckernel
from repro.core.clock import ClockPointer
from repro.core.config import LTCConfig
from repro.core.hooks import CellListener
from repro.core.ltc import EMPTY_KEY, LTC
from repro.hashing.family import splitmix64
from repro.summaries.base import as_items

_INT64_MAX = (1 << 63) - 1


def _kernel_field(name: str) -> Any:
    """A property over the field ``name`` of the owner's ``_kernel``,
    whose setter refuses values outside the CLOCK invariants."""

    def set_field(self: Any, value: int) -> None:
        setattr(self._kernel, name, value)

    return property(attrgetter(f"_kernel.{name}"), set_field)


class KernelClock(ClockPointer):
    """A :class:`ClockPointer` whose count-based state is the compiled
    kernel's.  The time accumulator stays here: only Python code drives
    it."""

    hand = _kernel_field("hand")
    _acc = _kernel_field("acc")
    scanned_in_period = _kernel_field("scanned")

    def __init__(self, kernel: Any, num_cells: int, items_per_period: int) -> None:
        self._kernel = kernel
        super().__init__(num_cells, items_per_period)


class ColumnarLTC(LTC):
    """LTC with numpy column storage and a compiled update.

    Observable behaviour is identical to the reference
    :class:`repro.core.ltc.LTC`.

    Raises:
        RuntimeError: the kernel cannot be built (no C compiler or no
            ``Python.h``).
        ValueError: ``items_per_period + w*d`` does not fit an int64, the
            compiled CLOCK accumulator's type.
    """

    # The period's flag bits live in the kernel.
    _set_bit = _kernel_field("set_bit")
    _harvest_bit = _kernel_field("harvest_bit")

    def __init__(self, config: LTCConfig) -> None:
        kernel_type = ckernel.load().Kernel
        if config.items_per_period + config.total_cells > _INT64_MAX:
            raise ValueError(
                "items_per_period + num_buckets*bucket_width must fit an "
                "int64 for the columnar kernel"
            )
        m = config.total_cells
        # The columns are never rebound, only written in place (``clear``,
        # restore), so the kernel and the key memoryview keep their
        # buffers for the instance's life.
        self._kcol = _np.full(m, EMPTY_KEY, dtype=_np.uint64)
        columns = [_np.zeros(m, dtype=_np.int64) for _ in range(3)]
        # Built before LTC.__init__, which sets the flag bits it holds.
        self._kernel = kernel_type(
            self._kcol, *columns,
            w=config.num_buckets, d=config.bucket_width,
            n=config.items_per_period, seed=splitmix64(config.seed),
            alpha=config.alpha, beta=config.beta,
            policy=ckernel.POLICIES[config.replacement_policy],
        )
        super().__init__(config)
        self._keys = memoryview(self._kcol)  # type: ignore[assignment]
        self._freqs, self._counters, self._flags = columns  # type: ignore[assignment]
        self._clock = KernelClock(self._kernel, m, config.items_per_period)
        # The cells a call changed, for the listener (bool: numpy finds
        # the set bytes of a bool array ~20x faster than of a uint8 one).
        self._touched = _np.zeros(m, dtype=_np.bool_)
        # Every kernel call ends in ``_leave`` while metrics are on or a
        # listener is attached, so the kernel's own ``insert`` is a whole
        # insert: bind it, unless a subclass or a class-level wrapper
        # overrides ``insert``, or the sanitizer wrapped this instance.
        self._kernel.watch = None if self._obs is None else self._leave
        if type(self).insert is _forward_insert and "insert" not in vars(self):
            self.insert = self._kernel.insert  # type: ignore[method-assign]

    # ----------------------------------------------------------------- hooks
    def attach_cell_listener(self, listener: CellListener) -> None:
        super().attach_cell_listener(listener)
        self._kernel.touched = self._touched
        self._kernel.watch = self._leave

    def detach_cell_listener(self) -> None:
        super().detach_cell_listener()
        self._kernel.touched = None
        self._kernel.watch = None if self._obs is None else self._leave

    # ----------------------------------------------------------- insertion
    def insert(self, item: int) -> None:
        """Single arrival, as :meth:`repro.core.ltc.LTC.insert`."""
        self._kernel.insert(item)

    # reprolint: parity-ok — the C kernel writes the columns through their buffers
    def insert_many(self, items: Iterable[int]) -> None:
        """Batched arrivals through the compiled loop.

        Replay-identical to per-event :meth:`insert` (same cells, same
        CLOCK state, same metrics).  The whole batch is checked first, so
        a bad key raises with the table untouched.  A ``uint64`` ndarray
        or memoryview goes to the kernel as it is, which reads its buffer
        in place.
        """
        if not (
            isinstance(items, memoryview) or getattr(items, "dtype", None) == _np.uint64
        ):
            items = as_items(items)
        total = self._kernel.insert_many(items)
        if self._m_batch is not None:
            self._m_batch.observe(total)

    def insert_timed(self, item: int, timestamp: float, period_seconds: float) -> None:
        """One arrival with a wall-clock timestamp, as
        :meth:`repro.core.ltc.LTC.insert_timed`."""
        ticks = self._elapsed_ticks(timestamp, period_seconds)
        self._kernel.place(item)
        self._kernel.sweep(self._clock.elapsed_steps(ticks), 1)
        self._last_timestamp = timestamp

    def end_period(self) -> None:
        """As :meth:`repro.core.ltc.LTC.end_period`, with the rest of the
        period's sweep run in C first (the inherited one then finds no
        slot left)."""
        self._kernel.sweep(self.total_cells)
        super().end_period()

    def _leave(self, arrivals: int) -> None:
        """Fold a kernel call's arrivals and counter deltas into the
        metrics, and notify the listener of the cells it touched."""
        if self._obs is not None:
            if arrivals:
                self._m_inserts.inc(arrivals)
            for counter, delta in zip(
                (
                    self._m_decrements,
                    self._m_evictions,
                    self._m_longtail,
                    self._m_harvests,
                ),
                self._kernel.take_counts(),
            ):
                if delta:
                    counter.inc(delta)
        if self._cell_listener is not None:
            touched = self._touched
            slots = touched.nonzero()[0]
            if len(slots):
                touched[slots] = False
                self._cell_listener.cells_touched(slots.tolist())


#: The class's own ``insert``, which ``__init__`` replaces with the
#: kernel's bound method where nothing overrides it.
_forward_insert = ColumnarLTC.insert

