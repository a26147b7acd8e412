"""LTC serialization: binary checkpoint round-trips, legacy images and
corrupt-image refusal."""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ClockPointer
from repro.core.columnar import ColumnarLTC
from repro.core.config import LTCConfig
from repro.core.kernels import KERNELS
from repro.core.ltc import LTC
from repro.core.serialize import (
    _CELL,
    _HEADER,
    _HEADER_V1,
    _HEADER_V2,
    _HEADER_V3,
    EMPTY_KEY,
    MAX_KEY,
    from_bytes,
    to_bytes,
)
from repro.hashing.family import splitmix64
from tests.conftest import make_stream


def build_ltc(events, num_periods=4, **overrides) -> LTC:
    cfg = dict(
        num_buckets=3,
        bucket_width=4,
        alpha=1.0,
        beta=2.0,
        items_per_period=max(1, len(events) // num_periods),
        seed=0xABC,
    )
    cfg.update(overrides)
    ltc = LTC(LTCConfig(**cfg))
    stream = make_stream(events, num_periods=min(num_periods, max(len(events), 1)))
    for period in stream.iter_periods():
        for item in period:
            ltc.insert(item)
        ltc.end_period()
    return ltc  # intentionally NOT finalized: mid-stream checkpoint


def snapshots_equal(a: LTC, b: LTC) -> bool:
    return list(a.cells()) == list(b.cells())


def legacy_image(blob: bytes, magic: bytes) -> bytes:
    """Re-encode a v3 image as the legacy ``LTC1`` or ``LTC2`` image of
    the same structure (v1 drops the timed-mode fields; v2 stores the
    accumulator as a fraction of a period)."""
    fields = _HEADER_V3.unpack_from(blob)
    cells = blob[_HEADER_V3.size :]
    if magic == b"LTC1":
        return _HEADER_V1.pack(magic, *fields[1:14]) + cells
    tacc, has_ts, ts = fields[14:]
    facc = tacc / ClockPointer.TICKS_PER_PERIOD
    return _HEADER_V2.pack(magic, *fields[1:14], facc, has_ts, ts) + cells


class TestStateRoundTrip:
    """A checkpoint of a live structure's state, restored."""

    def test_rejects_mismatched_cells(self):
        blob = to_bytes(build_ltc([1, 2]))
        with pytest.raises(ValueError, match="truncated"):
            from_bytes(blob[: -_CELL.size])

    def test_resumed_ltc_continues_identically(self):
        """A checkpoint/restore mid-stream must not change the outcome."""
        rng = random.Random(3)
        events = [rng.randrange(30) for _ in range(400)]
        half = len(events) // 2

        straight = build_ltc(events, num_periods=8)

        first = build_ltc(events[:half], num_periods=4)
        resumed = from_bytes(to_bytes(first))
        stream2 = make_stream(events[half:], num_periods=4)
        for period in stream2.iter_periods():
            for item in period:
                resumed.insert(item)
            resumed.end_period()

        assert snapshots_equal(straight, resumed)


class TestBytesRoundTrip:
    def test_cells_survive(self):
        ltc = build_ltc([5, 5, 6, 7, 8, 5])
        restored = from_bytes(to_bytes(ltc))
        assert snapshots_equal(ltc, restored)

    def test_config_survives(self):
        ltc = build_ltc(
            [1, 2, 3],
            deviation_eliminator=False,
            replacement_policy="space-saving",
            seed=99,
        )
        restored = from_bytes(to_bytes(ltc))
        assert restored.config == ltc.config

    def test_queries_survive(self):
        ltc = build_ltc([1, 1, 2, 3, 1, 2])
        restored = from_bytes(to_bytes(ltc))
        for item in (1, 2, 3, 99):
            assert restored.estimate(item) == ltc.estimate(item)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            from_bytes(b"XXXX" + b"\x00" * 64)

    def test_trailing_bytes_rejected(self):
        blob = to_bytes(build_ltc([1]))
        with pytest.raises(ValueError, match="trailing"):
            from_bytes(blob + b"\x00")

    def test_size_matches_cell_count(self):
        ltc = build_ltc([1, 2, 3])
        blob = to_bytes(ltc)
        assert len(blob) == _HEADER.size + ltc.total_cells * _CELL.size

    @given(st.lists(st.integers(0, 40), max_size=200), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, events, periods):
        ltc = build_ltc(events, num_periods=max(1, min(periods, len(events) or 1)))
        restored = from_bytes(to_bytes(ltc))
        assert snapshots_equal(ltc, restored)
        # And the restored structure keeps working.
        restored.insert(7)
        ltc.insert(7)
        assert snapshots_equal(ltc, restored)


class TestTimedStateRoundTrip:
    """The timed-mode fields: ``_clock._tacc`` and ``LTC._last_timestamp``."""

    def drive_timed(self, ltc: LTC, arrivals) -> None:
        for item, ts in arrivals:
            ltc.insert_timed(item, ts, period_seconds=1.0)

    def timed_ltc(self) -> LTC:
        ltc = LTC(
            LTCConfig(
                num_buckets=2, bucket_width=4, alpha=1.0, beta=2.0,
                items_per_period=1,
            )
        )
        self.drive_timed(ltc, [(1, 0.0), (2, 0.35), (1, 0.61), (3, 1.07)])
        return ltc

    @pytest.mark.parametrize(
        "roundtrip",
        [
            lambda l: from_bytes(to_bytes(l)),
            lambda l: from_bytes(to_bytes(l), cls=ColumnarLTC),
        ],
        ids=["bytes", "columnar"],
    )
    def test_tacc_and_timestamp_survive(self, roundtrip):
        ltc = self.timed_ltc()
        restored = roundtrip(ltc)
        assert restored._clock._tacc == ltc._clock._tacc
        assert restored._last_timestamp == ltc._last_timestamp
        assert snapshots_equal(ltc, restored)

    @pytest.mark.parametrize(
        "roundtrip",
        [
            lambda l: from_bytes(to_bytes(l)),
            lambda l: from_bytes(to_bytes(l), cls=ColumnarLTC),
        ],
        ids=["bytes", "columnar"],
    )
    def test_restored_rejects_backwards_timestamps(self, roundtrip):
        restored = roundtrip(self.timed_ltc())
        with pytest.raises(ValueError, match="non-decreasing"):
            restored.insert_timed(9, 0.5, period_seconds=1.0)

    def test_untimed_ltc_roundtrips_without_timestamp(self):
        ltc = build_ltc([1, 2, 3])
        restored = from_bytes(to_bytes(ltc))
        assert restored._last_timestamp is None

    def test_state_without_timed_fields_still_restores(self):
        """``LTC1`` images lack the timed-mode accumulator and
        last_timestamp; they restore with fresh defaults."""
        ltc = self.timed_ltc()
        restored = from_bytes(legacy_image(to_bytes(ltc), b"LTC1"))
        assert restored._clock._tacc == 0
        assert restored._last_timestamp is None
        assert snapshots_equal(ltc, restored)

    def test_legacy_facc_state_restores_as_ticks(self):
        """``LTC2`` images carry the accumulator as a float fraction of a
        period; it restores as the nearest integer tick count."""
        ltc = self.timed_ltc()
        assert ltc._clock._tacc  # the conversion has something to round
        restored = from_bytes(legacy_image(to_bytes(ltc), b"LTC2"))
        assert restored._clock._tacc == ltc._clock._tacc
        assert restored._last_timestamp == ltc._last_timestamp
        assert to_bytes(restored) == to_bytes(ltc)


class TestSubclassRestore:
    """``cls=`` revives the columnar kernel with the cells in its own
    columns: point lookups find every key where the reference does."""

    def reference_ltc(self):
        ref = LTC(
            LTCConfig(
                num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
                items_per_period=5,
            )
        )
        stream = make_stream([1, 2, 1, 3, 1, 2, 4, 5, 1, 6], num_periods=2)
        stream.run(ref)
        return ref

    @staticmethod
    def assert_same_lookups(ltc, ref):
        assert sorted(ltc.items()) == sorted(ref.items())
        for key in list(ref.items()) + [0, 99]:
            assert (key in ltc) == (key in ref)
            assert ltc.estimate(key) == ref.estimate(key)

    @pytest.mark.parametrize(
        "roundtrip",
        [
            lambda l, cls: from_bytes(to_bytes(l), cls=cls),
            # A restored columnar structure checkpoints as the reference.
            lambda l, cls: from_bytes(
                to_bytes(from_bytes(to_bytes(l), cls=cls)), cls=cls
            ),
        ],
        ids=["bytes", "bytes-twice"],
    )
    def test_columnar_ltc_roundtrip(self, roundtrip):
        ref = self.reference_ltc()
        columnar = roundtrip(ref, ColumnarLTC)
        assert type(columnar) is ColumnarLTC
        assert snapshots_equal(ref, columnar)
        self.assert_same_lookups(columnar, ref)

    def test_restored_columnar_ltc_continues_identically(self):
        ref = self.reference_ltc()
        restored = from_bytes(to_bytes(ref), cls=ColumnarLTC)
        restored.insert_many([1, 7, 1, 8, 2])
        for item in (1, 7, 1, 8, 2):
            ref.insert(item)
        assert snapshots_equal(ref, restored)

    def test_restored_columnar_ltc_continues_per_event(self):
        ref = self.reference_ltc()
        restored = from_bytes(to_bytes(ref), cls=ColumnarLTC)
        for item in (1, 7, 1, 8, 2):
            ref.insert(item)
            restored.insert(item)
        assert snapshots_equal(ref, restored)
        self.assert_same_lookups(restored, ref)

    def test_default_cls_is_reference_ltc(self):
        restored = from_bytes(to_bytes(self.reference_ltc()))
        assert type(restored) is LTC


class TestUnstorableKeys:
    """A checkpoint stores keys in ``[0, MAX_KEY]``.  Both kernels refuse
    any other key at the door, so ``to_bytes`` never meets one: it cannot
    drop a key as the empty-cell value or fail inside ``struct``
    (negative or past 64 bits)."""

    @pytest.mark.parametrize(
        "key", [-1, EMPTY_KEY, 1 << 70], ids=["negative", "empty-key", "2**70"]
    )
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_to_bytes_refuses(self, tmp_path, kernel, key):
        from repro.serve.snapshots import SnapshotStore

        ltc = KERNELS[kernel](
            LTCConfig(num_buckets=4, bucket_width=2, items_per_period=16)
        )
        ltc.insert(9)
        before = to_bytes(ltc)
        with pytest.raises(ValueError, match=f"key {key} is outside"):
            ltc.insert_many([5, 6] + [key] * 3)
        with pytest.raises(ValueError, match=f"key {key} is outside"):
            ltc.insert(key)
        assert to_bytes(ltc) == before
        assert key not in ltc and ltc.estimate(5) == (0, 0)
        store = SnapshotStore(tmp_path, retain=2)
        store.save(ltc)
        assert to_bytes(store.restore(cls=type(ltc))) == before

    def test_highest_storable_key_roundtrips(self):
        ltc = LTC(LTCConfig(num_buckets=4, bucket_width=2, items_per_period=16))
        ltc.insert_many([MAX_KEY] * 3 + [0])
        restored = from_bytes(to_bytes(ltc))
        assert restored.estimate(MAX_KEY) == (3, 0)
        assert restored.estimate(0) == (1, 0)


class TestUnstorableCounts:
    """The cell record holds its counts as int32 and the header its
    geometry, period length and CLOCK position as uint32, while both
    kernels count past them: ``to_bytes`` refuses such a structure with
    a ``ValueError`` that names the field, not a ``struct.error``."""

    @pytest.mark.parametrize("column", ["_freqs", "_counters"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_count_past_int32_refused(self, kernel, column):
        ltc = KERNELS[kernel](
            LTCConfig(num_buckets=4, bucket_width=2, items_per_period=16)
        )
        ltc.insert(9)
        j = list(ltc._keys).index(9)
        getattr(ltc, column)[j] = 1 << 31
        field = "frequency" if column == "_freqs" else "persistency"
        with pytest.raises(
            ValueError, match=rf"cell {j} {field} = 2147483648 is outside"
        ):
            to_bytes(ltc)
        getattr(ltc, column)[j] = (1 << 31) - 1
        restored = from_bytes(to_bytes(ltc), cls=type(ltc))
        assert restored.cell_state(j) == ltc.cell_state(j)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_period_length_past_uint32_refused(self, kernel):
        ltc = KERNELS[kernel](
            LTCConfig(num_buckets=4, bucket_width=2, items_per_period=1 << 32)
        )
        ltc.insert(9)
        with pytest.raises(
            ValueError, match=r"items_per_period = 4294967296 is outside"
        ):
            to_bytes(ltc)


class TestCorruptionRobustness:
    def test_truncated_blob_rejected(self):
        blob = to_bytes(build_ltc([1, 2, 3]))
        with pytest.raises((ValueError, Exception)):
            from_bytes(blob[: len(blob) // 2])

    def test_corrupt_policy_code_rejected(self):
        blob = bytearray(to_bytes(build_ltc([1, 2, 3])))
        # Policy-code byte offset in "<4sIIddIBBBxIIIqQ":
        # 4+4+4+8+8+4 (through items_per_period) + 2 (de, ltr) = 34.
        blob[34] = 250
        with pytest.raises((KeyError, ValueError)):
            from_bytes(bytes(blob))

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize(
        "field, fmt, offset",
        [("hand", "<I", 40), ("scanned", "<I", 44), ("acc", "<q", 48)],
    )
    def test_clock_state_out_of_range_rejected(self, kernel, field, fmt, offset):
        # Header "<4sIIddIBBBxIIIq...": parity at 36, then hand, scanned
        # and acc.  The columnar kernel's compiled loop indexes its
        # columns with the hand, so a corrupt one must stop at restore.
        ltc = build_ltc([1, 2, 3])
        blob = bytearray(to_bytes(ltc))
        bad = {"hand": ltc.total_cells, "scanned": ltc.total_cells + 1,
               "acc": ltc.config.items_per_period}[field]
        struct.pack_into(fmt, blob, offset, bad)
        with pytest.raises(ValueError, match="CLOCK state out of range"):
            from_bytes(bytes(blob), cls=KERNELS[kernel])
        struct.pack_into(fmt, blob, offset, bad - 1)
        from_bytes(bytes(blob), cls=KERNELS[kernel]).insert_many([4, 5, 6])

    def test_header_only_blob_rejected(self):
        blob = to_bytes(build_ltc([1]))
        with pytest.raises(Exception):
            from_bytes(blob[: _HEADER.size - 1])

    # Each corruption rewrites one header field or one field of a cell
    # record ("<QiiB": key at +0, frequency at +8, persistency at +12,
    # flags at +16) of an occupied or a free cell; a key of None stands
    # for one that hashes to another bucket than the cell's.
    CORRUPTIONS = {
        "parity": ("header", 36, "<I", 2),
        "tacc": ("header", 64, "<Q", ClockPointer.TICKS_PER_PERIOD),
        "flags-0xff": ("occupied", 16, "<B", 0xFF),
        "odd-flag-without-de": ("occupied", 16, "<B", 0b10),
        "negative-frequency": ("occupied", 8, "<i", -7),
        "negative-persistency": ("occupied", 12, "<i", -1),
        "free-cell-with-count": ("free", 8, "<i", 3),
        "key-in-foreign-bucket": ("occupied", 0, "<Q", None),
    }

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_image_refused(self, kernel, corruption):
        ltc = build_ltc(
            [1, 2, 3, 1, 4],
            deviation_eliminator=corruption != "odd-flag-without-de",
        )
        where, offset, fmt, value = self.CORRUPTIONS[corruption]
        if where != "header":
            j = next(
                j for j, key in enumerate(ltc._keys)
                if (key == EMPTY_KEY) == (where == "free")
            )
            offset += _cell_at(j)
            if value is None:
                value = next(
                    key for key in range(1000)
                    if _home_base(ltc, key) != j - j % ltc._d
                )
        blob = bytearray(to_bytes(ltc))
        struct.pack_into(fmt, blob, offset, value)
        with pytest.raises(ValueError, match="corrupt LTC image"):
            from_bytes(bytes(blob), cls=KERNELS[kernel])

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_persistency_above_frequency_still_restores(self, kernel):
        """Older builds could write a persistency above the frequency;
        their images stay readable."""
        ltc = build_ltc([1, 2, 3, 1, 4])
        j = next(j for j, key in enumerate(ltc._keys) if key != EMPTY_KEY)
        blob = bytearray(to_bytes(ltc))
        struct.pack_into("<i", blob, _cell_at(j) + 12, ltc._freqs[j] + 5)
        restored = from_bytes(bytes(blob), cls=KERNELS[kernel])
        assert restored._counters[j] == ltc._freqs[j] + 5
        assert to_bytes(restored) == bytes(blob)


def _cell_at(j: int) -> int:
    """Offset of cell ``j``'s record in a v3 image."""
    return _HEADER.size + j * _CELL.size


def _home_base(ltc: LTC, key: int) -> int:
    """The first cell of the bucket ``key`` hashes to."""
    return (splitmix64(key ^ ltc._seed) % ltc._w) * ltc._d


class _GeometryGuard(LTC):
    """Fails the test instead of allocating a table from a corrupt header."""

    def __init__(self, config):
        if config.num_buckets * config.bucket_width > 1 << 16:
            pytest.fail(
                f"allocated a {config.num_buckets}x{config.bucket_width} "
                "table before checking the image length"
            )
        super().__init__(config)


def _corrupt_num_buckets(blob: bytes, value: int = 0x00FFFFFF) -> bytes:
    """Overwrite the header's ``num_buckets`` (uint32 at offset 4)."""
    return blob[:4] + value.to_bytes(4, "little") + blob[8:]


class TestHeaderGeometryCheck:
    """The image length is checked against the header before allocating."""

    def test_oversized_geometry_rejected_before_construction(self):
        blob = to_bytes(build_ltc([1, 2, 3]))
        with pytest.raises(ValueError, match="truncated"):
            from_bytes(_corrupt_num_buckets(blob), cls=_GeometryGuard)

    @pytest.mark.parametrize("magic", [b"LTC1", b"LTC2", b"LTC3"])
    def test_every_format_version_checks_length(self, magic):
        header = {b"LTC1": _HEADER_V1, b"LTC2": _HEADER_V2, b"LTC3": _HEADER_V3}
        # A valid config (alpha = beta = 1, one item per period) on a
        # 0x00FFFFFF x 8 table, with no cell bytes behind the header.
        fields = struct.pack("<IIddI", 0x00FFFFFF, 8, 1.0, 1.0, 1)
        image = magic + fields + b"\x00" * (header[magic].size - 4 - len(fields))
        with pytest.raises(ValueError, match="truncated"):
            from_bytes(image, cls=_GeometryGuard)

    def test_single_byte_header_flips_never_allocate(self):
        """Any one-byte header corruption restores or raises ValueError."""
        blob = to_bytes(build_ltc([1, 2, 3, 1, 4]))
        for offset in range(4, _HEADER.size):
            for value in (0x00, 0x01, 0x7F, 0x80, 0xFF):
                image = blob[:offset] + bytes([value]) + blob[offset + 1 :]
                try:
                    from_bytes(image, cls=_GeometryGuard)
                except (ValueError, struct.error):
                    pass


class TestFormatStability:
    """Golden-image tests: the binary layout is a persistence format, so
    accidental drift (field reorder, width change) must fail loudly.

    ``GOLDEN_HEX_V3`` pins the current write format; ``GOLDEN_HEX_V1``
    and ``GOLDEN_HEX_V2`` are legacy ``LTC1``/``LTC2`` images that must
    stay readable forever (v1 predates the timed-mode fields, which
    restore as fresh defaults; v2 carries them with a float accumulator
    that restores via tick conversion).
    """

    GOLDEN_HEX_V1 = (
        "4c5443310100000002000000000000000000f03f0000000000000040030000000101"
        "0000010000000000000000000000000000000000000007000000000000000a000000"
        "000000000200000000000000010b00000000000000010000000000000001"
    )
    GOLDEN_HEX_V2 = (
        "4c5443320100000002000000000000000000f03f0000000000000040030000000101"
        "00000100000000000000000000000000000000000000070000000000000000000000"
        "000000000000000000000000000a000000000000000200000000000000010b000000"
        "00000000010000000000000001"
    )
    GOLDEN_HEX_V3 = (
        "4c5443330100000002000000000000000000f03f0000000000000040030000000101"
        "00000100000000000000000000000000000000000000070000000000000000000000"
        "000000000000000000000000000a000000000000000200000000000000010b000000"
        "00000000010000000000000001"
    )

    # v3 images of one policy each: a bucket of three cells after ten
    # arrivals, where the newcomer 13 starts at 2 under "longtail" and at
    # 1 under "one".  The header's ltr and policy-code bytes (offsets 33
    # and 34) are (1, 0), (0, 0) and (1, 3): the bytes builds with a
    # separate ``longtail_replacement`` flag wrote for the default, for
    # that flag off, and for "space-saving".
    GOLDEN_POLICY_HEX = {
        "longtail": (
            "4c5443330100000003000000000000000000f03f0000000000000040050000000101"
            "00000000000000000000000000000000000000000000070000000000000000000000"
            "000000000000000000000000000a000000000000000400000001000000000b000000"
            "000000000300000001000000020d00000000000000030000000000000002"
        ),
        "one": (
            "4c5443330100000003000000000000000000f03f0000000000000040050000000100"
            "00000000000000000000000000000000000000000000070000000000000000000000"
            "000000000000000000000000000a000000000000000400000001000000000b000000"
            "000000000300000001000000020d00000000000000020000000000000002"
        ),
        "space-saving": (
            "4c5443330100000003000000000000000000f03f0000000000000040050000000101"
            "03000000000000000000000000000000000000000000070000000000000000000000"
            "000000000000000000000000000a000000000000000400000001000000000b000000"
            "000000000300000001000000020d00000000000000030000000000000002"
        ),
    }
    # What those builds wrote when the policy was named explicitly:
    # policy code 1 ("longtail") or 2 ("one"), the ltr byte left at 1.
    EXPLICIT_POLICY_HEX = {
        "longtail": (
            "4c5443330100000003000000000000000000f03f0000000000000040050000000101"
            "01000000000000000000000000000000000000000000070000000000000000000000"
            "000000000000000000000000000a000000000000000400000001000000000b000000"
            "000000000300000001000000020d00000000000000030000000000000002"
        ),
        "one": (
            "4c5443330100000003000000000000000000f03f0000000000000040050000000101"
            "02000000000000000000000000000000000000000000070000000000000000000000"
            "000000000000000000000000000a000000000000000400000001000000000b000000"
            "000000000300000001000000020d00000000000000020000000000000002"
        ),
    }

    @staticmethod
    def make_policy_ltc(policy: str, cls=LTC) -> LTC:
        ltc = cls(
            LTCConfig(
                num_buckets=1,
                bucket_width=3,
                alpha=1.0,
                beta=2.0,
                items_per_period=5,
                replacement_policy=policy,
                seed=7,
            )
        )
        for i, item in enumerate((10, 10, 10, 10, 11, 11, 11, 12, 13, 13)):
            ltc.insert(item)
            if i % 5 == 4:
                ltc.end_period()
        return ltc

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("policy", sorted(GOLDEN_POLICY_HEX))
    def test_policy_images_match_golden(self, policy, kernel):
        ltc = self.make_policy_ltc(policy, KERNELS[kernel])
        golden = self.GOLDEN_POLICY_HEX[policy]
        assert to_bytes(ltc).hex() == golden
        restored = from_bytes(bytes.fromhex(golden), cls=KERNELS[kernel])
        assert restored.config == ltc.config
        assert snapshots_equal(restored, ltc)

    @pytest.mark.parametrize("policy", sorted(EXPLICIT_POLICY_HEX))
    def test_explicit_policy_codes_read_back(self, policy):
        restored = from_bytes(bytes.fromhex(self.EXPLICIT_POLICY_HEX[policy]))
        assert restored.config.replacement_policy == policy
        assert to_bytes(restored).hex() == self.GOLDEN_POLICY_HEX[policy]

    def make_golden_ltc(self) -> LTC:
        ltc = LTC(
            LTCConfig(
                num_buckets=1,
                bucket_width=2,
                alpha=1.0,
                beta=2.0,
                items_per_period=3,
                seed=7,
            )
        )
        for item in (10, 10, 11):
            ltc.insert(item)
        ltc.end_period()
        return ltc

    def test_serialisation_matches_golden_image(self):
        assert to_bytes(self.make_golden_ltc()).hex() == self.GOLDEN_HEX_V3

    def test_golden_image_deserialises(self):
        restored = from_bytes(bytes.fromhex(self.GOLDEN_HEX_V3))
        assert restored.estimate(10) == (2, 0)
        assert restored.estimate(11) == (1, 0)
        assert restored.config.beta == 2.0

    @pytest.mark.parametrize("hex_name", ["GOLDEN_HEX_V1", "GOLDEN_HEX_V2"])
    def test_legacy_golden_images_still_readable(self, hex_name):
        restored = from_bytes(bytes.fromhex(getattr(self, hex_name)))
        assert restored.estimate(10) == (2, 0)
        assert restored.estimate(11) == (1, 0)
        assert restored.config.beta == 2.0
        assert restored._clock._tacc == 0
        assert restored._last_timestamp is None

    def test_legacy_images_equivalent_for_count_based_state(self):
        """v1/v2 images of a count-driven LTC restore to the same cells
        and CLOCK phase as the v3 image of the same structure."""
        via_v1 = from_bytes(bytes.fromhex(self.GOLDEN_HEX_V1))
        via_v2 = from_bytes(bytes.fromhex(self.GOLDEN_HEX_V2))
        via_v3 = from_bytes(bytes.fromhex(self.GOLDEN_HEX_V3))
        assert list(via_v1.cells()) == list(via_v2.cells()) == list(via_v3.cells())
        assert via_v1._clock.hand == via_v2._clock.hand == via_v3._clock.hand
        assert via_v1._clock._acc == via_v2._clock._acc == via_v3._clock._acc


class TestSeedRoundTrip:
    """Regression: `to_bytes` stores the 64-bit-masked seed, so a config
    built with a negative or >64-bit seed must already be normalized at
    construction — otherwise the restored checkpoint's config differs
    from its live siblings' and `_check_compatible` refuses to merge
    them (the restore-then-merge flow of the distributed coordinators)."""

    @pytest.mark.parametrize("seed", [-1, 2**64 + 17])
    def test_seed_normalized_at_construction(self, seed):
        cfg = LTCConfig(num_buckets=3, bucket_width=4, items_per_period=4, seed=seed)
        assert cfg.seed == seed & 0xFFFFFFFFFFFFFFFF
        assert 0 <= cfg.seed < 2**64

    @pytest.mark.parametrize("seed", [-1, 2**64 + 17])
    def test_checkpoint_restore_then_merge(self, seed):
        from repro.core.merge import merge

        events = [i % 17 for i in range(160)]
        original = build_ltc(events, seed=seed)
        restored = from_bytes(to_bytes(original))
        assert restored.config == original.config
        assert snapshots_equal(original, restored)
        merged = merge([original, restored], num_periods=4)
        # Doubling via self-merge: every estimate doubles (clipped to
        # the period count on the persistency side).
        for item in original.items():
            f, p = original.estimate(item)
            bits = original._flags[
                next(j for j, k in enumerate(original._keys) if k == item)
            ]
            pending = (bits & 1) + (bits >> 1 & 1)
            mf, mp = merged.estimate(item)
            assert mf == 2 * f
            assert mp == min(2 * (p + pending), 4)

    def test_masked_and_raw_seed_hash_identically(self):
        """The normalization is behavior-preserving: splitmix64 already
        reduced seeds modulo 2**64, so the bucket layout is unchanged."""
        raw = LTC(
            LTCConfig(num_buckets=8, bucket_width=2, items_per_period=8, seed=-1)
        )
        masked = LTC(
            LTCConfig(
                num_buckets=8, bucket_width=2, items_per_period=8, seed=2**64 - 1
            )
        )
        for i in range(100):
            raw.insert(i)
            masked.insert(i)
        assert list(raw.cells()) == list(masked.cells())
