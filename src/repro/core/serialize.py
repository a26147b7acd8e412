"""LTC state serialization: checkpoint and restore a running structure.

The checkpoint is one binary image, :func:`to_bytes` / :func:`from_bytes`:
a small header with the configuration and CLOCK position, then one
record per cell mirroring the paper's cell layout (key, frequency,
persistency counter, flag bits).

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

The header keeps the replacement policy in two bytes, an ``ltr`` byte
and a policy code, from the time the policy was two config fields.
:func:`to_bytes` writes each policy as those builds did for its usual
spelling; :func:`from_bytes` reads every pair they could write.

A cell record stores its key as a uint64, and an empty cell as
:data:`EMPTY_KEY`: the record is the kernels' own key encoding (every LTC
holds keys in ``[0, MAX_KEY]``), so cells are written and read back as
they are.  :func:`from_bytes` refuses a corrupt image with ``ValueError``:
a CLOCK field out of range, or a cell that breaks the structural
invariants of :func:`repro.sanitize.check_ltc` (flag domain, zeroed
empty cells, each key in its home bucket once, non-negative counts).
It does not require persistency ≤ frequency, which images written by
older builds need not keep.

:func:`from_bytes` takes a ``cls=`` parameter (default
:class:`repro.core.ltc.LTC`) so :class:`repro.core.columnar.ColumnarLTC`
can be revived as itself; the cells are written straight into its
columns, so nothing is left to rebuild.
"""

from __future__ import annotations

import math
import struct
from typing import Optional, Type

from repro import sanitize
from repro.core.clock import ClockPointer
from repro.core.config import LTCConfig
from repro.core.ltc import EMPTY_KEY, LTC, MAX_KEY

__all__ = ["EMPTY_KEY", "MAX_KEY", "from_bytes", "to_bytes"]

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

# The header's (ltr, policy code) bytes for each policy.  Code 0 leaves
# the policy to the ltr byte; codes 1-3 name it whatever that byte says.
_POLICY_BYTES = {"longtail": (1, 0), "one": (0, 0), "space-saving": (1, 3)}
_POLICY_NAMES = {1: "longtail", 2: "one", 3: "space-saving"}


def _ticks_from_fraction(facc: float) -> int:
    """Convert a legacy (v2) fractional accumulator to integer ticks."""
    ticks = round(facc * ClockPointer.TICKS_PER_PERIOD)
    return min(max(ticks, 0), ClockPointer.TICKS_PER_PERIOD - 1)


def _check_fits(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ValueError(
            f"{name} = {value} is outside [{lo}, {hi}], which an LTC3 "
            "image cannot hold"
        )


def to_bytes(ltc: LTC) -> bytes:
    """Serialise an LTC to a compact binary image (v3 format).

    Raises ``ValueError``, naming the field, for a config field past the
    header's uint32 or a cell count past the record's int32.
    """
    cfg = ltc.config
    for name in ("num_buckets", "bucket_width", "items_per_period"):
        _check_fits(name, getattr(cfg, name), 0, 0xFFFFFFFF)
    ltr, policy_code = _POLICY_BYTES[cfg.replacement_policy]
    ts = ltc._last_timestamp
    header = _HEADER_V3.pack(
        _MAGIC_V3,
        cfg.num_buckets,
        cfg.bucket_width,
        cfg.alpha,
        cfg.beta,
        cfg.items_per_period,
        int(cfg.deviation_eliminator),
        ltr,
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
        freq, counter = int(ltc._freqs[j]), int(ltc._counters[j])
        try:
            cells += _CELL.pack(key, freq, counter, int(ltc._flags[j]))
        except struct.error:  # the kernels count past the record's int32
            _check_fits(f"cell {j} frequency", freq, -(1 << 31), (1 << 31) - 1)
            _check_fits(f"cell {j} persistency", counter, -(1 << 31), (1 << 31) - 1)
            raise
    return header + bytes(cells)


# reprolint: detached — restores a freshly built structure before any listener attaches; the hooks contract says attach does not replay history
def from_bytes(blob: bytes, cls: Type[LTC] = LTC) -> LTC:
    """Restore an LTC (or subclass ``cls``) from :func:`to_bytes` output.

    Reads the current v3 images plus legacy v2 ``LTC2`` (float
    accumulator, converted to ticks) and v1 ``LTC1`` images (whose
    timed-mode accumulator and last timestamp restore as fresh defaults).
    Raises ``ValueError`` for an image that is not whole or is corrupt
    (see the module docstring).
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
    if policy_code == 0:
        policy = "longtail" if ltr else "one"
    elif policy_code in _POLICY_NAMES:
        policy = _POLICY_NAMES[policy_code]
    else:
        raise ValueError(f"corrupt LTC image (unknown policy code {policy_code})")
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
            replacement_policy=policy,
            seed=seed,
        )
    )
    # The CLOCK invariants every live structure keeps, checked before
    # they are set: the columnar kernel's setters refuse values outside
    # them (its compiled loop indexes its columns with the hand).
    m = ltc.total_cells
    if not (
        0 <= hand < m
        and 0 <= scanned <= m
        and 0 <= acc < items_per_period
        and parity in (0, 1)
    ):
        raise ValueError("corrupt LTC image (CLOCK state out of range)")
    offset = header_struct.size
    for j in range(m):
        key, freq, counter, flags = _CELL.unpack_from(blob, offset)
        offset += _CELL.size
        ltc._keys[j] = key
        ltc._freqs[j] = freq
        ltc._counters[j] = counter
        ltc._flags[j] = flags
    ltc._parity = parity
    if ltc._de:
        ltc._set_bit = 1 << parity
        ltc._harvest_bit = 1 << (parity ^ 1)
    ltc._clock.hand = hand
    ltc._clock._acc = acc
    ltc._clock._tacc = tacc
    ltc._clock.scanned_in_period = scanned
    ltc._last_timestamp = last_timestamp
    try:
        sanitize.check_ltc(ltc, persistency=False)
    except sanitize.SanitizeError as exc:
        raise ValueError(
            f"corrupt LTC image ({exc.invariant}: {exc.detail})"
        ) from None
    return ltc
