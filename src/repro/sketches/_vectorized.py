"""Vectorised group-by kernels shared by the sketch batch paths.

Both helpers answer per-event questions about a batch of slot indices
without materialising the per-event loop: for event ``i`` hitting slot
``idx[i]``, how many earlier events of the same batch hit the same slot
(:func:`grouped_cumcount`), and what is the inclusive running sum of a
per-event value over same-slot events (:func:`grouped_cumsum`)?  The
answers let ``update_and_query_many`` reconstruct the counter value each
event *would* have observed mid-batch while committing the whole batch to
the table in one pass.
"""

from __future__ import annotations

from typing import Any

import numpy as _np


def _group_offsets(sorted_idx: Any) -> Any:
    """Start offset (into the sorted order) of each event's slot group."""
    n = sorted_idx.shape[0]
    is_start = _np.empty(n, dtype=bool)
    is_start[0] = True
    _np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=is_start[1:])
    starts = _np.flatnonzero(is_start)
    sizes = _np.diff(_np.append(starts, n))
    return _np.repeat(starts, sizes)


def grouped_cumcount(idx: Any) -> Any:
    """Per event, the number of *earlier* batch events hitting its slot.

    ``idx`` is an int array of slot indices in stream order; the result
    has the same shape, with ``out[i] == |{j < i : idx[j] == idx[i]}|``.
    """
    n = idx.shape[0]
    if n == 0:
        return _np.empty(0, dtype=_np.int64)
    order = _np.argsort(idx, kind="stable")
    offsets = _group_offsets(idx[order])
    out = _np.empty(n, dtype=_np.int64)
    out[order] = _np.arange(n, dtype=_np.int64) - offsets
    return out


def _sorted_groups(idx: Any) -> Any:
    """Stable sort of ``idx`` plus segment metadata for the sorted order.

    Returns ``(order, is_start, gid)``: the stable argsort, a boolean
    marking each group's first element in sorted order, and a dense
    0-based group id per sorted position.  Within a group the sorted
    order preserves stream order (stable sort), which is what the
    segmented running-max kernels below rely on.
    """
    order = _np.argsort(idx, kind="stable")
    si = idx[order]
    n = si.shape[0]
    is_start = _np.empty(n, dtype=bool)
    is_start[0] = True
    _np.not_equal(si[1:], si[:-1], out=is_start[1:])
    gid = _np.cumsum(is_start) - 1
    return order, is_start, gid


_I64_MIN = -(1 << 63)


def segmented_running_max(
    vals: Any, gid: Any, is_start: Any, inclusive: bool
) -> Any:
    """Per-segment running maximum of ``vals`` (already in sorted order).

    Segments are the maximal runs of equal ``gid``.  With
    ``inclusive=False`` each position gets the max over *strictly
    earlier* same-segment positions (``_I64_MIN`` for segment heads).
    Implemented as one ``np.maximum.accumulate`` over values offset by
    ``gid * span`` so later segments dominate earlier ones; raises
    :class:`OverflowError` when that offset would leave int64 range
    (callers fall back to the scalar path — counters that large do not
    occur in practice).
    """
    lo = int(vals[0] if vals.shape[0] == 1 else vals.min())
    hi = int(vals.max())
    span = hi - lo + 1
    ngroups = int(gid[-1]) + 1
    if ngroups * span >= (1 << 62):
        raise OverflowError("segment offset would overflow int64")
    shifted = (vals - lo) + gid * span
    run = _np.maximum.accumulate(shifted)
    if inclusive:
        return run - gid * span + lo
    out = _np.empty_like(run)
    out[0] = 0
    out[1:] = run[:-1]
    out -= gid * span
    out += lo
    out[is_start] = _I64_MIN
    return out


def conservative_update_targets(
    slot_rows: Any,
    table_views: Any,
    keys: Any,
    deltas: Any,
    max_passes: int = 64,
) -> Any:
    """Per-event CU targets for a batch, replay-identical, or ``None``.

    Sequential conservative update obeys the recurrence

        ``t[i] = d[i] + min_r max(T0_r[s_r[i]],
                                  max{t[j] : j < i, s_r[j] == s_r[i]})``

    — each row's counter seen by event ``i`` is its pre-batch value
    raised by every earlier same-slot target.  ``t`` is the unique
    solution of that recurrence, and it is the least fixpoint of the
    (monotone) right-hand side above the no-interaction lower bound
    ``t0[i] = d[i] + min_r T0_r[s_r[i]]``.  The kernel iterates the
    operator with segmented running-max passes (sort each row's slots
    once, then one ``maximum.accumulate`` per row per pass) plus a
    same-key chain tightening (same-key events share every slot, so
    ``t`` along a key's occurrences grows by at least its delta each
    time; folding that in via a per-key running max collapses the long
    duplicate chains of skewed batches to one pass).  Iterates increase
    monotonically and are always lower bounds, so the first repeated
    iterate *is* the sequential answer.  On convergence the targets are
    committed to ``table_views`` (each counter rises to the max target
    routed through it, one segmented max per row over the cached sort)
    and returned.  Returns ``None`` — tables untouched — if
    ``max_passes`` iterations do not converge or the offset trick would
    overflow; callers replay scalar then.
    """
    np = _np
    n = keys.shape[0]
    row_meta = []
    t = None
    for idx, view in zip(slot_rows, table_views):
        order, is_start, gid = _sorted_groups(idx)
        t0 = view[idx]
        row_meta.append((order, is_start, gid, t0))
        t = t0.copy() if t is None else np.minimum(t, t0, out=t)
    assert t is not None
    t += deltas
    korder, kstart, kgid = _sorted_groups(keys)
    # Inclusive per-key running sum of deltas in stream order (inlined
    # grouped_cumsum so the key argsort is shared with the tightening).
    running = np.cumsum(deltas[korder])
    kheads = np.flatnonzero(kstart)
    base = np.where(kheads > 0, running[kheads - 1], 0)
    kdelta = np.empty(n, dtype=np.int64)
    kdelta[korder] = running - base[kgid]
    scratch = np.empty(n, dtype=np.int64)
    converged = False
    try:
        for _ in range(max_passes):
            t_prev = t
            v = None
            for order, is_start, gid, t0 in row_meta:
                prev = segmented_running_max(
                    t[order], gid, is_start, inclusive=False
                )
                scratch[order] = prev
                if v is None:
                    v = np.maximum(t0, scratch)
                else:
                    np.minimum(v, np.maximum(t0, scratch), out=v)
            assert v is not None
            t = v + deltas
            # Same-key chain tightening: u removes each occurrence's own
            # cumulative delta so a per-key running max of u restores the
            # "+delta per occurrence" floor in one vector pass.
            u = t - kdelta
            incl = segmented_running_max(
                u[korder], kgid, kstart, inclusive=True
            )
            scratch[korder] = incl
            np.maximum(t, scratch + kdelta, out=t)
            if np.array_equal(t, t_prev):
                converged = True
                break
    except OverflowError:  # pragma: no cover - astronomically large counters
        return None
    if not converged:
        return None
    for (idx, view), (order, is_start, gid, t0) in zip(
        zip(slot_rows, table_views), row_meta
    ):
        heads = np.flatnonzero(is_start)
        segmax = np.maximum.reduceat(t[order], heads)
        slots = idx[order][heads]
        view[slots] = np.maximum(view[slots], segmax)
    return t


def grouped_cumsum(idx: Any, values: Any) -> Any:
    """Inclusive running sum of ``values`` over same-slot events.

    ``out[i] == sum(values[j] for j <= i if idx[j] == idx[i])`` — the
    signed-counter analogue of :func:`grouped_cumcount` (Count sketch
    needs per-event ±1 contributions, not occurrence ranks).
    """
    n = idx.shape[0]
    if n == 0:
        return _np.empty(0, dtype=_np.int64)
    order = _np.argsort(idx, kind="stable")
    sorted_vals = values[order].astype(_np.int64)
    running = _np.cumsum(sorted_vals)
    offsets = _group_offsets(idx[order])
    base = _np.where(offsets > 0, running[offsets - 1], 0)
    out = _np.empty(n, dtype=_np.int64)
    out[order] = running - base
    return out
