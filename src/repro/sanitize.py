"""repro.sanitize — opt-in runtime invariant checking (debug mode).

The library's structures are bound by structural contracts that normally
only differential tests enforce after the fact: a cell's persistency can
never exceed its frequency (paper §III — every period counted by
persistency contains at least one arrival), CLOCK flags stay in their
two-bit domain, the top-k heap keeps the heap property, and Space-Saving
buckets stay strictly count-ordered.  This module checks those contracts
*at the mutation site* so a violation produces a precise repro message
instead of a distant assertion failure.

Enabling:

* environment: ``REPRO_SANITIZE=1``, read at **construction** time,
  turns sanitization on for every structure built afterwards (the
  nightly CI hypothesis profile runs the suites this way);
* per instance: call :func:`install_ltc` (or :func:`install_windowed`,
  :func:`install_heap`, :func:`install_space_saving`) on a structure
  after building it.

When disabled (the default) nothing is installed — the public mutators
remain the plain class functions, so the hot paths carry **zero** extra
cost (no wrapper, no flag branch).  When enabled, the mutators are
wrapped per instance:

* ``insert`` / ``insert_timed`` validate the touched bucket plus the
  slots the CLOCK hand just swept (O(d + harvested) per arrival);
* ``insert_many`` validates the full table once per batch;
* ``end_period`` / ``finalize`` validate the full table, and
  ``end_period`` additionally proves checkpoint round-trip stability
  (``to_bytes → from_bytes → to_bytes`` must be byte-identical).

Every failure raises :class:`SanitizeError` naming the failing invariant
and the exact cell/slot involved.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.ltc import LTC
    from repro.core.windowed import WindowedLTC
    from repro.summaries.heap import TopKHeap
    from repro.summaries.space_saving import SpaceSaving
    from repro.summaries.stream_summary import StreamSummaryList

__all__ = [
    "SanitizeError",
    "env_enabled",
    "check_ltc",
    "check_ltc_bucket",
    "check_ltc_checkpoint",
    "check_windowed",
    "check_heap",
    "check_stream_summary_list",
    "check_space_saving",
    "install_ltc",
    "install_windowed",
    "install_heap",
    "install_space_saving",
]

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class SanitizeError(AssertionError):
    """A structural invariant was violated.

    Attributes:
        structure: Class name of the offending structure.
        invariant: Short machine-readable name of the violated invariant
            (e.g. ``persistency_le_frequency``).
        detail: Human-readable description with the offending values.
    """

    def __init__(self, structure: str, invariant: str, detail: str) -> None:
        self.structure = structure
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"{structure}: invariant '{invariant}' violated: {detail}")


def env_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` requests sanitization (read per call)."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


def _fail(structure: Any, invariant: str, detail: str) -> None:
    name = structure if isinstance(structure, str) else type(structure).__name__
    raise SanitizeError(name, invariant, detail)


# --------------------------------------------------------------------- LTC
def _check_ltc_home(ltc: "LTC", j: int, key: int) -> None:
    # Imported here: repro.core imports this module.
    from repro.hashing.family import splitmix64

    d = ltc._d
    base = j - j % d
    home = splitmix64(key ^ ltc._seed) % ltc._w
    if home * d != base:
        _fail(
            ltc,
            "key_in_home_bucket",
            f"cell {j} (bucket {j // d}) holds key {key}, which hashes to "
            f"bucket {home}",
        )
    for i in range(base, j):
        if ltc._keys[i] == key:
            _fail(
                ltc,
                "key_in_home_bucket",
                f"key {key} is held twice in bucket {j // d} (cells {i} and {j})",
            )


def _check_ltc_cell(ltc: "LTC", j: int, strong: bool) -> None:
    from repro.core.ltc import EMPTY_KEY

    bits = ltc._flags[j]
    if bits & ~0b11:
        _fail(ltc, "flag_domain", f"cell {j} carries flag bits {bits:#x} > 0b11")
    if not ltc._de and bits & 0b10:
        _fail(
            ltc,
            "flag_domain",
            f"cell {j} has the odd-parity flag set without the Deviation "
            f"Eliminator (flags={bits:#x})",
        )
    freq = ltc._freqs[j]
    counter = ltc._counters[j]
    key = ltc._keys[j]
    if key == EMPTY_KEY:
        if freq or counter or bits:
            _fail(
                ltc,
                "empty_cell_zeroed",
                f"empty cell {j} holds freq={freq} counter={counter} "
                f"flags={bits:#x}",
            )
        return
    _check_ltc_home(ltc, j, key)
    if freq < 0:
        _fail(ltc, "frequency_non_negative", f"cell {j} has frequency {freq}")
    if counter < 0:
        _fail(ltc, "persistency_non_negative", f"cell {j} has persistency {counter}")
    if strong:
        pending = (bits & 1) + (bits >> 1 & 1)
        if counter + pending > freq:
            _fail(
                ltc,
                "persistency_le_frequency",
                f"cell {j} (item {key}): persistency {counter} + "
                f"{pending} pending flag(s) exceeds frequency {freq}",
            )


def _check_ltc_clock(ltc: "LTC") -> None:
    clock = ltc._clock
    m = clock.num_cells
    if not 0 <= clock.hand < m:
        _fail(ltc, "clock_hand_in_range", f"hand={clock.hand} outside [0, {m})")
    if not 0 <= clock.scanned_in_period <= m:
        _fail(
            ltc,
            "clock_scan_bound",
            f"scanned_in_period={clock.scanned_in_period} outside [0, {m}]",
        )
    if not 0 <= clock._acc < clock.items_per_period:
        _fail(
            ltc,
            "clock_accumulator_in_range",
            f"acc={clock._acc} outside [0, {clock.items_per_period})",
        )
    if not 0 <= clock._tacc < clock.TICKS_PER_PERIOD:
        _fail(
            ltc,
            "clock_accumulator_in_range",
            f"tacc={clock._tacc} outside [0, {clock.TICKS_PER_PERIOD})",
        )
    if ltc._parity not in (0, 1):
        _fail(ltc, "parity_domain", f"parity={ltc._parity}")
    if ltc._de:
        if ltc._set_bit != 1 << ltc._parity or ltc._harvest_bit != 1 << (
            ltc._parity ^ 1
        ):
            _fail(
                ltc,
                "parity_domain",
                f"DE bit assignment inconsistent with parity {ltc._parity}: "
                f"set={ltc._set_bit} harvest={ltc._harvest_bit}",
            )
    elif ltc._set_bit != 1 or ltc._harvest_bit != 1:
        _fail(
            ltc,
            "parity_domain",
            f"basic version must use flag bit 1 (set={ltc._set_bit} "
            f"harvest={ltc._harvest_bit})",
        )


def check_ltc(
    ltc: "LTC", cells: Optional[Iterable[int]] = None, *, persistency: bool = True
) -> None:
    """Validate the structural invariants of an LTC (or subclass).

    ``cells`` restricts the scan to the given slot indices; the default
    checks the whole table and the CLOCK state.  Every occupied cell's key
    must hash to the cell's own bucket and appear there once.  The
    ``persistency <= frequency`` check counts un-harvested flags as
    pending persistency credit, so a decrement that strands excess credit
    is caught at the mutation site — before the harvest that would
    materialise the violation.  The check is skipped for the
    ``space-saving`` ablation policy, which overestimates by design
    (§I-C), and when ``persistency`` is false (checkpoint restore, which
    must read images written by builds that did not keep it).
    """
    strong = persistency and ltc._policy != "space-saving"
    if cells is None:
        # The whole table is checked in numpy; the per-cell check then
        # re-runs on the buckets it flags, in order, so the first
        # failure raises with the same text a full per-cell scan gives.
        cells = _flagged_cells(ltc, strong)
    for j in cells:
        _check_ltc_cell(ltc, j, strong)
    _check_ltc_clock(ltc)


def _flagged_cells(ltc: "LTC", strong: bool) -> Iterable[int]:
    """The cells of every bucket in which some cell breaks an invariant
    :func:`_check_ltc_cell` checks (every cell, for columns numpy cannot
    hold)."""
    import numpy as np

    from repro.core.ltc import EMPTY_KEY
    from repro.hashing.family import splitmix64_array

    w, d = ltc._w, ltc._d
    try:
        keys = np.asarray(ltc._keys, dtype=np.uint64)
        freqs = np.asarray(ltc._freqs, dtype=np.int64)
        counters = np.asarray(ltc._counters, dtype=np.int64)
        flags = np.asarray(ltc._flags, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        return range(ltc.total_cells)
    empty = keys == np.uint64(EMPTY_KEY)
    bad = (flags & ~0b11) != 0
    if not ltc._de:
        bad |= (flags & 0b10) != 0
    bad |= empty & ((freqs != 0) | (counters != 0) | (flags != 0))
    home = splitmix64_array(keys ^ np.uint64(ltc._seed)) % np.uint64(w)
    wrong = (home != np.arange(w * d, dtype=np.uint64) // np.uint64(d))
    wrong |= (freqs < 0) | (counters < 0)
    if strong:
        # freq - pending cannot wrap: a negative freq is flagged above.
        wrong |= counters > freqs - ((flags & 1) + (flags >> 1 & 1))
    bad |= ~empty & wrong
    ranked = np.sort(keys.reshape(w, d), axis=1)
    held_twice = (ranked[:, 1:] == ranked[:, :-1]) & (
        ranked[:, 1:] != np.uint64(EMPTY_KEY)
    )
    flagged = np.flatnonzero(bad.reshape(w, d).any(axis=1) | held_twice.any(axis=1))
    return (int(b) * d + i for b in flagged for i in range(d))


def check_ltc_bucket(ltc: "LTC", item: int) -> None:
    """Validate only the bucket that ``item`` hashes to (O(d))."""
    from repro.hashing.family import splitmix64

    base = (splitmix64(item ^ ltc._seed) % ltc._w) * ltc._d
    check_ltc(ltc, cells=range(base, base + ltc._d))


def check_ltc_checkpoint(ltc: "LTC") -> None:
    """Prove checkpoint round-trip stability: serialising, restoring and
    re-serialising must reproduce the byte image exactly."""
    from repro.core import serialize

    blob = serialize.to_bytes(ltc)
    restored = serialize.from_bytes(blob, cls=type(ltc))
    blob2 = serialize.to_bytes(restored)
    if blob2 != blob:
        diff = next(
            (i for i, (a, b) in enumerate(zip(blob, blob2)) if a != b),
            min(len(blob), len(blob2)),
        )
        _fail(
            ltc,
            "checkpoint_round_trip",
            f"to_bytes→from_bytes→to_bytes diverges at byte {diff} "
            f"(lengths {len(blob)} vs {len(blob2)})",
        )


def install_ltc(ltc: "LTC") -> None:
    """Wrap the public mutators of ``ltc`` with invariant checks.

    Idempotent.  The wrappers live on the *instance*, so other instances
    (and the class) keep the unwrapped hot paths.
    """
    if getattr(ltc, "_sanitize_installed", False):
        return
    ltc._sanitize_installed = True  # type: ignore[attr-defined]
    orig_insert = ltc.insert
    orig_insert_many = ltc.insert_many
    orig_insert_timed = ltc.insert_timed
    orig_end_period = ltc.end_period
    orig_finalize = ltc.finalize
    m = ltc.total_cells

    def _swept_since(start_hand: int, start_scanned: int) -> range:
        # The hand alone is ambiguous after a full-table sweep (it ends
        # where it started), so measure via the monotone per-period scan
        # counter instead.
        swept = min(ltc._clock.scanned_in_period - start_scanned, m)
        return range(start_hand, start_hand + swept)

    def insert(item: int) -> None:
        clock = ltc._clock
        start_hand, start_scanned = clock.hand, clock.scanned_in_period
        orig_insert(item)
        check_ltc_bucket(ltc, item)
        span = _swept_since(start_hand, start_scanned)
        if len(span):
            check_ltc(ltc, cells=(j % m for j in span))

    def insert_timed(item: int, timestamp: float, period_seconds: float) -> None:
        clock = ltc._clock
        start_hand, start_scanned = clock.hand, clock.scanned_in_period
        orig_insert_timed(item, timestamp, period_seconds)
        check_ltc_bucket(ltc, item)
        span = _swept_since(start_hand, start_scanned)
        if len(span):
            check_ltc(ltc, cells=(j % m for j in span))

    def insert_many(items: Any) -> None:
        orig_insert_many(items)
        check_ltc(ltc)

    def end_period() -> None:
        orig_end_period()
        check_ltc(ltc)
        check_ltc_checkpoint(ltc)

    def finalize() -> None:
        orig_finalize()
        check_ltc(ltc)

    ltc.insert = insert  # type: ignore[method-assign]
    ltc.insert_timed = insert_timed  # type: ignore[method-assign]
    ltc.insert_many = insert_many  # type: ignore[method-assign]
    ltc.end_period = end_period  # type: ignore[method-assign]
    ltc.finalize = finalize  # type: ignore[method-assign]


# ------------------------------------------------------------ WindowedLTC
def check_windowed(wltc: "WindowedLTC") -> None:
    """Validate a :class:`repro.core.windowed.WindowedLTC`: presence rings
    stay inside the W-bit window mask, decayed frequencies never go
    negative, and vacated cells are fully zeroed."""
    mask = wltc._ring_mask
    for j in range(len(wltc._keys)):
        ring = wltc._rings[j]
        freq = wltc._freqs[j]
        if ring & ~mask:
            _fail(
                wltc,
                "ring_in_window",
                f"cell {j} ring {ring:#x} has bits outside the "
                f"{wltc.window}-period window",
            )
        if wltc._keys[j] is None:
            if freq or ring:
                _fail(
                    wltc,
                    "empty_cell_zeroed",
                    f"empty cell {j} holds freq={freq} ring={ring:#x}",
                )
            continue
        if freq < 0:
            _fail(wltc, "frequency_non_negative", f"cell {j} has frequency {freq}")


def install_windowed(wltc: "WindowedLTC") -> None:
    """Wrap the mutators of a WindowedLTC with invariant checks."""
    if getattr(wltc, "_sanitize_installed", False):
        return
    wltc._sanitize_installed = True  # type: ignore[attr-defined]
    orig_insert = wltc.insert
    orig_insert_many = wltc.insert_many
    orig_end_period = wltc.end_period

    def insert(item: int) -> None:
        orig_insert(item)
        check_windowed(wltc)

    def insert_many(items: Any) -> None:
        orig_insert_many(items)
        check_windowed(wltc)

    def end_period() -> None:
        orig_end_period()
        check_windowed(wltc)

    wltc.insert = insert  # type: ignore[method-assign]
    wltc.insert_many = insert_many  # type: ignore[method-assign]
    wltc.end_period = end_period  # type: ignore[method-assign]


# ----------------------------------------------------------------- TopKHeap
def check_heap(heap: "TopKHeap") -> None:
    """Validate a :class:`repro.summaries.heap.TopKHeap`: array sizes
    agree and stay within capacity, every parent is ≤ its children, and
    the position map matches the arrays exactly."""
    values, items, pos = heap._values, heap._items, heap._pos
    if len(values) != len(items):
        _fail(
            heap,
            "array_sizes_agree",
            f"{len(values)} values vs {len(items)} items",
        )
    if len(items) > heap.capacity:
        _fail(
            heap,
            "size_within_capacity",
            f"{len(items)} entries exceed capacity {heap.capacity}",
        )
    for i in range(1, len(items)):
        parent = (i - 1) >> 1
        if values[i] < values[parent]:
            _fail(
                heap,
                "heap_property",
                f"slot {i} (item {items[i]}, value {values[i]}) is smaller "
                f"than its parent slot {parent} (item {items[parent]}, "
                f"value {values[parent]})",
            )
    if len(pos) != len(items):
        _fail(
            heap,
            "position_map_matches",
            f"{len(pos)} position entries vs {len(items)} items",
        )
    for item, slot in pos.items():
        if not 0 <= slot < len(items) or items[slot] != item:
            _fail(
                heap,
                "position_map_matches",
                f"position map sends item {item} to slot {slot}, which "
                f"holds {items[slot] if 0 <= slot < len(items) else 'nothing'}",
            )


def install_heap(heap: "TopKHeap") -> None:
    """Wrap :meth:`TopKHeap.offer` with a post-mutation check."""
    if getattr(heap, "_sanitize_installed", False):
        return
    heap._sanitize_installed = True  # type: ignore[attr-defined]
    orig_offer = heap.offer

    def offer(item: int, value: float) -> None:
        orig_offer(item, value)
        check_heap(heap)

    heap.offer = offer  # type: ignore[method-assign]


# -------------------------------------------------------------- SpaceSaving
def check_stream_summary_list(summary: "StreamSummaryList") -> None:
    """Validate a Stream-Summary: buckets strictly increasing, no empty
    buckets, every node consistent with its bucket, counts ≥ errors ≥ 0,
    and the node map in bijection with the linked structure."""
    seen = 0
    prev_count: Optional[int] = None
    bucket = summary._min_bucket
    while bucket is not None:
        if prev_count is not None and bucket.count <= prev_count:
            _fail(
                summary,
                "bucket_order_strict",
                f"bucket count {bucket.count} follows {prev_count}",
            )
        prev_count = bucket.count
        node = bucket.head
        if node is None:
            _fail(summary, "no_empty_buckets", f"bucket {bucket.count} is empty")
        while node is not None:
            if node.count != bucket.count:
                _fail(
                    summary,
                    "node_in_count_bucket",
                    f"node {node.item} has count {node.count} but sits in "
                    f"bucket {bucket.count}",
                )
            if node.bucket is not bucket:
                _fail(
                    summary,
                    "node_in_count_bucket",
                    f"node {node.item} back-links to a different bucket",
                )
            if not 0 <= node.error <= node.count:
                _fail(
                    summary,
                    "error_bound_in_range",
                    f"node {node.item}: error {node.error} outside "
                    f"[0, count {node.count}]",
                )
            if summary._nodes.get(node.item) is not node:
                _fail(
                    summary,
                    "node_map_bijection",
                    f"linked node {node.item} missing from the node map",
                )
            seen += 1
            node = node.next
        bucket = bucket.next
    if seen != len(summary._nodes):
        _fail(
            summary,
            "node_map_bijection",
            f"{seen} linked nodes vs {len(summary._nodes)} mapped",
        )


def check_space_saving(ss: "SpaceSaving") -> None:
    """Validate a SpaceSaving summary (bucket bounds + capacity)."""
    if len(ss._summary) > ss.capacity:
        _fail(
            ss,
            "size_within_capacity",
            f"{len(ss._summary)} monitored items exceed capacity {ss.capacity}",
        )
    check_stream_summary_list(ss._summary)


def install_space_saving(ss: "SpaceSaving") -> None:
    """Wrap the mutators of a SpaceSaving summary with checks."""
    if getattr(ss, "_sanitize_installed", False):
        return
    ss._sanitize_installed = True  # type: ignore[attr-defined]
    orig_insert = ss.insert
    orig_insert_many = ss.insert_many

    def insert(item: int) -> None:
        orig_insert(item)
        check_space_saving(ss)

    def insert_many(items: Any) -> None:
        orig_insert_many(items)
        check_space_saving(ss)

    ss.insert = insert  # type: ignore[method-assign]
    ss.insert_many = insert_many  # type: ignore[method-assign]
