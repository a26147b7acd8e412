"""Cell-mutation hooks: observe lossy-table changes as they happen.

The serving tier (:mod:`repro.serve`) keeps ranked answers for as long
as the table does not change.  To know when they go stale it must learn
about *every* cell mutation — hits, CLOCK harvests, Significance
Decrementing, evictions, Long-tail Replacement reseeds.  Rather than
teach the kernels about indexes, each kernel notifies at most one
attached :class:`CellListener` with the **slot id** of any cell whose
key, frequency or persistency just changed.

Contract (relied on by :class:`repro.serve.index.ServingIndex`, which
only needs to know *that* the table changed: it marks itself stale and
rescans the columns at its next ranked query, without a per-slot diff):

* a notification fires *after* the mutation is applied, in the same
  call — by the time the listener runs, the cell arrays already show
  the new state;
* key replacement (eviction + newcomer) is just a touch of the slot;
* ``cells_reset`` fires when the whole table is invalidated at once
  (:meth:`repro.core.ltc.LTC.clear`);
* notifications are O(1) per mutated slot and fire only when a listener
  is attached — the disabled cost is one ``is None`` test per mutation
  site, mirroring the observability discipline (DESIGN.md §9).

Supported structures: the two LTC kernels
(:class:`~repro.core.ltc.LTC` and
:class:`~repro.core.columnar.ColumnarLTC`).  Other summaries do not
emit notifications.
"""

from __future__ import annotations

from typing import Iterable, Protocol

# --------------------------------------------------------------------------
# Machine-readable mutation-site inventory.
#
# reprolint's R006 (hook discipline) parses these tuples statically and
# verifies that every write to a cell-state attribute inside a hooked
# kernel is post-dominated by a listener notification (or carries an
# explicit ``# reprolint: detached`` waiver).  Keep them in sync with the
# kernels: adding a cell-state column without listing it here silently
# exempts it from the check.  The kernels keep no derived copy of a cell
# (ColumnarLTC's ``_kcol`` is the buffer under ``_keys``, written only by
# the compiled kernel and restore); listing the flag bytes would demand
# notifications for writes the serving index never observes.

#: Classes whose cells a :class:`CellListener` may observe.  Subclasses
#: of these inherit the contract.
HOOKED_STRUCTURES = ("LTC", "ColumnarLTC")

#: Attributes holding observable cell state: the key column and the
#: frequency/persistency counters (Python lists in the reference kernel,
#: numpy columns and a key memoryview in the columnar one).
CELL_STATE_ATTRS = (
    "_keys",
    "_freqs",
    "_counters",
)

#: The notification surface of :class:`CellListener`.
NOTIFY_METHODS = ("cell_touched", "cells_touched", "cells_reset")


class CellListener(Protocol):
    """What an attached cell-mutation observer must implement."""

    def cell_touched(self, slot: int) -> None:
        """One cell's key, frequency or persistency changed."""

    def cells_touched(self, slots: Iterable[int]) -> None:
        """A batch of cells changed: every cell one compiled-kernel call
        wrote (``ColumnarLTC``), reported once the call returns."""

    def cells_reset(self) -> None:
        """The whole table was reset; any derived state is invalid."""
