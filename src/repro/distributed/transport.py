"""Shared-memory batch transport for the persistent shard workers.

The process-parallel coordinator used to pickle every period batch into
its worker's pipe — megabytes of `ingest_ipc_bytes` on the exact path the
throughput benchmark showed was IPC-bound.  This module provides the
zero-copy alternative: a :class:`ShmRing` of fixed-size ``int64`` slots
in one `multiprocessing.shared_memory` segment per worker.  The parent
writes a period batch into a free slot (one ``memcpy``); the worker —
which inherited the segment via ``fork`` — reads the slot directly.  The
only bytes that cross the pipe are tiny control tuples (shard id, slot
index, batch length), so ingest IPC drops from the full event volume to
a few dozen bytes per period.

Lifecycle and crash safety:

* the **parent** creates every segment, records it in a module-level
  live-segment registry, and ``destroy()``s it (close + unlink) in a
  ``finally`` when the run ends — including runs aborted by
  :class:`~repro.distributed.parallel.WorkerCrashError`;
* **workers** only ever read; a worker killed mid-run (``SIGKILL``,
  ``os._exit``) leaks nothing because it owns nothing — the parent's
  unlink removes the ``/dev/shm`` entry regardless;
* if the **parent** itself dies hard, the stdlib ``resource_tracker``
  (which registered the segment at creation) unlinks it at interpreter
  teardown, so even double crashes cannot strand ``/dev/shm`` entries.

When ``shared_memory`` or the ``fork`` start method is missing,
:func:`shm_available` is false and the coordinator falls back to pickled
batches over the pipe (chunked, see ``parallel.py``) — same results,
higher IPC cost.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Optional, Sequence, Set

import numpy as _np

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platforms without shm support
    _shm = None

_ITEM_BYTES = 8  # int64 slots

# Names of segments created by this process and not yet unlinked.  The
# leak tests assert this drains to empty after every run, crashes
# included; it intentionally tracks creation, not attachment, because
# the creator (the coordinator parent) owns cleanup.
_live_segments: Set[str] = set()


def shm_available() -> bool:
    """Whether the zero-copy shared-memory transport can be used.

    Requires ``multiprocessing.shared_memory`` (the segments) and the
    ``fork`` start method (workers inherit the mapped segment instead of
    re-attaching by name, which keeps the stdlib resource tracker's
    accounting to exactly one owner: the parent).
    """
    if _shm is None:
        return False
    try:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()
    except (ImportError, NotImplementedError):  # pragma: no cover
        return False


def live_segment_names() -> FrozenSet[str]:
    """Names of segments this process created and has not yet unlinked."""
    return frozenset(_live_segments)


class ShmRing:
    """A ring of fixed-size ``int64`` batch slots in one shm segment.

    The parent creates the ring, writes batches into free slots, and
    tells the worker ``(slot, length)`` over the control pipe; the worker
    reads the slot view and acknowledges, returning the slot to the free
    pool.  Flow control (which slots are free) lives with the caller —
    the ring is just the memory and its geometry.

    Args:
        slots: Number of batch slots (the in-flight window per worker).
        slot_items: Capacity of each slot in ``int64`` items.  Batches
            larger than this spill to the pickle path.
        name: Attach to an existing segment instead of creating one.
    """

    def __init__(
        self, slots: int, slot_items: int, name: Optional[str] = None
    ) -> None:
        if _shm is None:
            raise RuntimeError("shared-memory transport requires shm")
        if slots < 1 or slot_items < 1:
            raise ValueError("slots and slot_items must be >= 1")
        self.slots = slots
        self.slot_items = slot_items
        self._created = name is None
        size = slots * slot_items * _ITEM_BYTES
        if name is None:
            self._segment = _shm.SharedMemory(create=True, size=size)
            _live_segments.add(self._segment.name)
        else:
            self._segment = _shm.SharedMemory(name=name)
            # Attaching registers the segment with the resource tracker a
            # second time (until 3.13's track= parameter); undo it so the
            # creator stays the sole owner and exit-time accounting is
            # clean.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(
                    getattr(self._segment, "_name", self._segment.name),
                    "shared_memory",
                )
            except Exception:  # pragma: no cover - best effort
                pass
        self._view: Any = _np.frombuffer(
            self._segment.buf, dtype=_np.int64, count=slots * slot_items
        )
        self._closed = False

    @property
    def name(self) -> str:
        """The segment name (its ``/dev/shm`` entry on Linux)."""
        return str(self._segment.name)

    def write(self, slot: int, values: Any) -> int:
        """Copy ``values`` (array or sequence of ints) into ``slot``.

        Returns the number of items written.  Raises ``ValueError`` when
        the batch does not fit — callers spill oversized batches to the
        pickle path instead.
        """
        length = len(values)
        if length > self.slot_items:
            raise ValueError(
                f"batch of {length} items exceeds slot capacity "
                f"{self.slot_items}"
            )
        base = slot * self.slot_items
        if length:
            self._view[base : base + length] = values
        return length

    def read_list(self, slot: int, length: int) -> List[int]:
        """Copy ``slot``'s first ``length`` items out as Python ints.

        ``int64.tolist()`` round-trips exactly, so the worker feeds its
        summary the same values the pickled list would have carried —
        the bit-identity gate depends on this.  The copy also makes it
        safe to acknowledge the slot (the parent may overwrite it) before
        the caller finishes consuming the batch.
        """
        base = slot * self.slot_items
        result: List[int] = self._view[base : base + length].tolist()
        return result

    def close(self) -> None:
        """Release this handle's mapping (does not remove the segment)."""
        if self._closed:
            return
        self._closed = True
        # The numpy view holds a buffer export; drop it before closing
        # the mapping or SharedMemory.close() raises BufferError.
        self._view = None
        self._segment.close()

    def unlink(self) -> None:
        """Remove the segment from the system (creator only)."""
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already removed
            pass
        _live_segments.discard(self._segment.name)

    def destroy(self) -> None:
        """Close, and unlink if this handle created the segment.

        Idempotent; the parent's ``finally`` hook.  Non-creator handles
        only close — the creator's registry entry stays until *it*
        unlinks.
        """
        self.close()
        if self._created:
            self.unlink()

    @classmethod
    def attach(cls, name: str, slots: int, slot_items: int) -> "ShmRing":
        """Attach to an existing ring by name (non-fork consumers)."""
        return cls(slots, slot_items, name=name)
