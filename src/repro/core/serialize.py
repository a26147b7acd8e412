"""LTC state serialization: checkpoint and restore a running structure.

Two formats:

* :func:`to_state` / :func:`from_state` — a plain dict (JSON-safe), handy
  for debugging and cross-version tooling;
* :func:`to_bytes` / :func:`from_bytes` — a compact binary image whose
  per-cell record mirrors the paper's cell layout (key, frequency,
  persistency counter, flag bits), preceded by a small header with the
  configuration and CLOCK position.

Restoring reproduces the structure exactly: estimates, CLOCK phase,
period parity, the timed-mode accumulator and last-seen timestamp all
survive a round-trip (property-tested), so a stream split by
checkpoint/restore is bit-identical to an uninterrupted run in both
count-based and timed driving modes.

Binary format versions:

* ``LTC1`` (v1) — config, parity, CLOCK ``hand``/``scanned``/``_acc``.
  Readable forever; no longer written.
* ``LTC2`` (v2) — v1 plus the timed-mode state the v1 header silently
  dropped: a float fractional accumulator and ``LTC._last_timestamp``
  (with a presence flag).  Readable; no longer written.
* ``LTC3`` (v3) — v2 with the float accumulator replaced by the integer
  tick accumulator ``_tacc`` (``ClockPointer.TICKS_PER_PERIOD`` ticks
  per period), matching the exact time-based CLOCK arithmetic.  Current
  write format.  Reading a v2 image converts the float fraction to
  ticks, rounding to the nearest tick.

A cell record stores its key as a uint64, and an empty cell as
:data:`EMPTY_KEY`: the record is the kernels' own key encoding (every LTC
holds keys in ``[0, MAX_KEY]``), so cells are written and read back as
they are.  :func:`to_state` turns a free cell's key into ``None``, and
:func:`from_state` refuses a key outside ``[0, MAX_KEY]`` with a
``ValueError``.

Both restore paths accept a ``cls=`` parameter (default
:class:`repro.core.ltc.LTC`) so :class:`repro.core.columnar.ColumnarLTC`
can be revived as itself; the cells are written straight into its
columns, so nothing is left to rebuild.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Any, Dict, Optional, Type

from repro.core.clock import ClockPointer
from repro.core.config import LTCConfig
from repro.core.ltc import EMPTY_KEY, LTC, MAX_KEY, out_of_range

__all__ = ["EMPTY_KEY", "MAX_KEY", "from_bytes", "from_state", "to_bytes", "to_state"]

_MAGIC_V1 = b"LTC1"
_MAGIC_V2 = b"LTC2"
_MAGIC_V3 = b"LTC3"
_HEADER_V1 = struct.Struct("<4sIIddIBBBxIIIqQ")
# v2 appends: facc (double), has_timestamp (byte), last_timestamp (double).
_HEADER_V2 = struct.Struct("<4sIIddIBBBxIIIqQdBd")
# v3 replaces the float facc with the integer tick accumulator (uint64).
_HEADER_V3 = struct.Struct("<4sIIddIBBBxIIIqQQBd")
_HEADER = _HEADER_V3  # the write format
_CELL = struct.Struct("<QiiB")

_POLICY_CODES = {None: 0, "longtail": 1, "one": 2, "space-saving": 3}
_POLICY_NAMES = {code: name for name, code in _POLICY_CODES.items()}


def _ticks_from_fraction(facc: float) -> int:
    """Convert a legacy (v2) fractional accumulator to integer ticks."""
    ticks = round(facc * ClockPointer.TICKS_PER_PERIOD)
    return min(max(ticks, 0), ClockPointer.TICKS_PER_PERIOD - 1)


def to_state(ltc: LTC) -> Dict[str, Any]:
    """Snapshot an LTC as a JSON-safe dict."""
    cfg = ltc.config
    return {
        "config": {
            "num_buckets": cfg.num_buckets,
            "bucket_width": cfg.bucket_width,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "items_per_period": cfg.items_per_period,
            "deviation_eliminator": cfg.deviation_eliminator,
            "longtail_replacement": cfg.longtail_replacement,
            "replacement_policy": cfg.replacement_policy,
            "seed": cfg.seed,
        },
        "parity": ltc._parity,
        "last_timestamp": ltc._last_timestamp,
        "clock": {
            "hand": ltc._clock.hand,
            "acc": ltc._clock._acc,
            "tacc": ltc._clock._tacc,
            "scanned_in_period": ltc._clock.scanned_in_period,
        },
        # int() casts keep the dict JSON-safe for the columnar kernel,
        # whose cell columns hold numpy scalars.
        "cells": [
            {
                "key": None if key == EMPTY_KEY else key,
                "freq": int(ltc._freqs[j]),
                "counter": int(ltc._counters[j]),
                "flags": int(ltc._flags[j]),
            }
            for j, key in enumerate(ltc._keys)
        ],
    }


# reprolint: detached — restores a freshly built structure before any listener attaches; the hooks contract says attach does not replay history
def from_state(state: Dict[str, Any], cls: Type[LTC] = LTC) -> LTC:
    """Rebuild an LTC (or subclass ``cls``) from :func:`to_state` output.

    States written before the format carried the timed-mode fields
    restore with those fields at their fresh-structure defaults; legacy
    states carrying a float ``facc`` restore via tick conversion.  A key
    outside ``[0, MAX_KEY]`` raises ``ValueError``, one that is not an
    int ``TypeError``.
    """
    ltc = cls(LTCConfig(**state["config"]))
    cells = state["cells"]
    if len(cells) != ltc.total_cells:
        raise ValueError("cell count does not match configuration")
    for j, cell in enumerate(cells):
        key = cell["key"]
        if key is None:
            key = EMPTY_KEY
        elif not 0 <= (key := operator.index(key)) <= MAX_KEY:
            raise out_of_range(key)
        ltc._keys[j] = key
        ltc._freqs[j] = cell["freq"]
        ltc._counters[j] = cell["counter"]
        ltc._flags[j] = cell["flags"]
    _restore_dynamic(
        ltc, state["parity"], state["clock"], state.get("last_timestamp")
    )
    return ltc


def _restore_dynamic(
    ltc: LTC,
    parity: int,
    clock: Dict[str, Any],
    last_timestamp: Optional[float] = None,
) -> None:
    # The CLOCK invariants every live structure keeps.  The columnar
    # kernel's compiled loop indexes its columns with the hand, so a
    # corrupt image must not get past here.
    m, n = ltc.total_cells, ltc.config.items_per_period
    if not (
        0 <= clock["hand"] < m
        and 0 <= clock["scanned_in_period"] <= m
        and 0 <= clock["acc"] < n
    ):
        raise ValueError("corrupt LTC image (CLOCK state out of range)")
    ltc._parity = parity
    if ltc._de:
        ltc._set_bit = 1 << parity
        ltc._harvest_bit = 1 << (parity ^ 1)
    ltc._clock.hand = clock["hand"]
    ltc._clock._acc = clock["acc"]
    if "tacc" in clock:
        ltc._clock._tacc = clock["tacc"]
    else:
        ltc._clock._tacc = _ticks_from_fraction(clock.get("facc", 0.0))
    ltc._clock.scanned_in_period = clock["scanned_in_period"]
    ltc._last_timestamp = last_timestamp


def to_bytes(ltc: LTC) -> bytes:
    """Serialise an LTC to a compact binary image (v3 format)."""
    cfg = ltc.config
    policy_code = _POLICY_CODES[cfg.replacement_policy]
    ts = ltc._last_timestamp
    header = _HEADER_V3.pack(
        _MAGIC_V3,
        cfg.num_buckets,
        cfg.bucket_width,
        cfg.alpha,
        cfg.beta,
        cfg.items_per_period,
        int(cfg.deviation_eliminator),
        int(cfg.longtail_replacement),
        policy_code,
        ltc._parity,
        ltc._clock.hand,
        ltc._clock.scanned_in_period,
        ltc._clock._acc,
        # Already 64-bit (LTCConfig normalizes at construction); the mask
        # stays as a guard for configs built before that invariant.
        cfg.seed & 0xFFFFFFFFFFFFFFFF,
        ltc._clock._tacc,
        int(ts is not None),
        0.0 if ts is None else ts,
    )
    cells = bytearray()
    for j, key in enumerate(ltc._keys):
        cells += _CELL.pack(
            key,
            int(ltc._freqs[j]),
            int(ltc._counters[j]),
            int(ltc._flags[j]),
        )
    return header + bytes(cells)


# reprolint: detached — restores a freshly built structure before any listener attaches; the hooks contract says attach does not replay history
def from_bytes(blob: bytes, cls: Type[LTC] = LTC) -> LTC:
    """Restore an LTC (or subclass ``cls``) from :func:`to_bytes` output.

    Reads the current v3 images plus legacy v2 ``LTC2`` (float
    accumulator, converted to ticks) and v1 ``LTC1`` images (whose
    timed-mode accumulator and last timestamp restore as fresh defaults).
    """
    magic = blob[:4]
    if magic == _MAGIC_V3:
        header_struct = _HEADER_V3
    elif magic == _MAGIC_V2:
        header_struct = _HEADER_V2
    elif magic == _MAGIC_V1:
        header_struct = _HEADER_V1
    else:
        raise ValueError("not an LTC image (bad magic)")
    fields = header_struct.unpack_from(blob, 0)
    (
        _,
        num_buckets,
        bucket_width,
        alpha,
        beta,
        items_per_period,
        de,
        ltr,
        policy_code,
        parity,
        hand,
        scanned,
        acc,
        seed,
    ) = fields[:14]
    last_timestamp: Optional[float]
    if magic == _MAGIC_V1:
        tacc, last_timestamp = 0, None
    else:
        raw_acc, has_ts, last_timestamp_raw = fields[14:]
        last_timestamp = last_timestamp_raw if has_ts else None
        if last_timestamp is not None and math.isnan(last_timestamp):
            raise ValueError("corrupt LTC image (NaN timestamp)")
        tacc = _ticks_from_fraction(raw_acc) if magic == _MAGIC_V2 else raw_acc
    if policy_code not in _POLICY_NAMES:
        raise ValueError(f"corrupt LTC image (unknown policy code {policy_code})")
    policy = _POLICY_NAMES[policy_code]
    # Check the geometry against the image before allocating the table:
    # one flipped header byte must not become a huge allocation.
    expected = header_struct.size + num_buckets * bucket_width * _CELL.size
    if len(blob) > expected:
        raise ValueError("trailing bytes in LTC image")
    if len(blob) < expected:
        raise ValueError(
            f"truncated LTC image ({len(blob)} bytes, header geometry "
            f"needs {expected})"
        )
    ltc = cls(
        LTCConfig(
            num_buckets=num_buckets,
            bucket_width=bucket_width,
            alpha=alpha,
            beta=beta,
            items_per_period=items_per_period,
            deviation_eliminator=bool(de),
            longtail_replacement=bool(ltr),
            replacement_policy=policy,
            seed=seed,
        )
    )
    offset = header_struct.size
    for j in range(ltc.total_cells):
        key, freq, counter, flags = _CELL.unpack_from(blob, offset)
        offset += _CELL.size
        ltc._keys[j] = key
        ltc._freqs[j] = freq
        ltc._counters[j] = counter
        ltc._flags[j] = flags
    _restore_dynamic(
        ltc,
        parity,
        {"hand": hand, "acc": acc, "tacc": tacc, "scanned_in_period": scanned},
        last_timestamp,
    )
    return ltc
