"""Snapshot rotation: retain-N, crash-window atomicity, restore-continue.

The store must never serve a partial file (writes go through a ``.tmp``
rename), must prune to the newest N, must skip corrupt images on
restore, and a restore-then-continue run must be byte-identical to an
uninterrupted one — including mid-period restores (the CLOCK accumulator
round-trips through the v3 header).
"""

from __future__ import annotations

import os
import pathlib
import random
import stat

import pytest

from repro.core.config import LTCConfig
from repro.core.kernels import KERNELS, build_ltc
from repro.core.serialize import EMPTY_KEY, to_bytes
from repro.serve import snapshots
from repro.serve.oracle import canonical_json, oracle_top_k
from repro.serve.snapshots import SnapshotStore


def _cfg(**kw):
    base = dict(num_buckets=4, bucket_width=2, items_per_period=32)
    base.update(kw)
    return LTCConfig(**base)


class TestRotation:
    def test_retain_n_prunes_oldest(self, tmp_path):
        store = SnapshotStore(tmp_path, retain=3)
        ltc = build_ltc(_cfg())
        for i in range(7):
            ltc.insert_many(list(range(i * 10, i * 10 + 10)))
            store.save(ltc)
        names = [p.name for p in store.snapshot_paths()]
        assert names == [
            "snapshot-000000005.ltc",
            "snapshot-000000006.ltc",
            "snapshot-000000007.ltc",
        ]

    def test_sequence_survives_pruning(self, tmp_path):
        # New snapshots keep counting upward even after old ones are gone.
        store = SnapshotStore(tmp_path, retain=1)
        ltc = build_ltc(_cfg())
        for _ in range(3):
            store.save(ltc)
        assert store.snapshot_paths()[0].name == "snapshot-000000003.ltc"

    def test_retain_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path, retain=0)


class TestCrashWindow:
    def test_partial_tmp_is_ignored(self, tmp_path):
        store = SnapshotStore(tmp_path, retain=3)
        ltc = build_ltc(_cfg())
        ltc.insert_many(list(range(40)))
        store.save(ltc)
        # a crash between write and os.replace leaves only a .tmp
        partial = tmp_path / "snapshot-000000009.ltc.tmp"
        partial.write_bytes(to_bytes(ltc)[:17])
        assert all(
            not p.name.endswith(".tmp") for p in store.snapshot_paths()
        )
        restored = store.restore()
        assert restored is not None
        assert to_bytes(restored) == to_bytes(ltc)
        # the next save sweeps the leftover
        store.save(ltc)
        assert not partial.exists()

    def test_corrupt_newest_falls_back(self, tmp_path):
        store = SnapshotStore(tmp_path, retain=3)
        ltc = build_ltc(_cfg())
        ltc.insert_many(list(range(40)))
        good = store.save(ltc)
        ltc.insert_many(list(range(40, 80)))
        bad = store.save(ltc)
        bad.write_bytes(b"LTC3 garbage that will not parse")
        restored = store.restore()
        assert restored is not None
        assert to_bytes(restored) == good.read_bytes()

    def test_corrupt_header_geometry_falls_back(self, tmp_path):
        """A flipped num_buckets byte must not allocate a huge table."""
        from repro.core.ltc import LTC

        class GeometryGuard(LTC):
            def __init__(self, config):
                if config.num_buckets * config.bucket_width > 1 << 16:
                    pytest.fail("allocated a table from a corrupt header")
                super().__init__(config)

        store = SnapshotStore(tmp_path, retain=3)
        ltc = build_ltc(_cfg())
        ltc.insert_many(list(range(40)))
        good = store.save(ltc)
        ltc.insert_many(list(range(40, 80)))
        bad = store.save(ltc)
        blob = bad.read_bytes()
        # num_buckets is the uint32 right after the 4-byte magic.
        bad.write_bytes(blob[:4] + (0x00FFFFFF).to_bytes(4, "little") + blob[8:])
        restored = store.restore(cls=GeometryGuard)
        assert restored is not None
        assert to_bytes(restored) == good.read_bytes()

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_rewritten_cell_key_falls_back(self, tmp_path, kernel):
        """A whole image whose one cell key now hashes to another bucket
        is corrupt: restoring it would report that item twice."""
        from repro.core.serialize import _CELL, _HEADER
        from repro.hashing.family import splitmix64

        store = SnapshotStore(tmp_path, retain=3)
        ltc = build_ltc(_cfg(kernel=kernel))
        ltc.insert_many(list(range(40)))
        good = store.save(ltc)
        ltc.insert_many(list(range(40, 80)))
        bad = store.save(ltc)
        j = next(j for j, key in enumerate(ltc._keys) if key != EMPTY_KEY)
        bucket = j // ltc._d
        foreign = next(
            key for key in range(1000)
            if splitmix64(key ^ ltc._seed) % ltc._w != bucket
        )
        blob = bytearray(bad.read_bytes())
        offset = _HEADER.size + j * _CELL.size
        blob[offset : offset + 8] = foreign.to_bytes(8, "little")
        bad.write_bytes(bytes(blob))
        restored = store.restore(cls=KERNELS[kernel])
        assert restored is not None
        assert to_bytes(restored) == good.read_bytes()

    def test_all_corrupt_restores_none(self, tmp_path):
        store = SnapshotStore(tmp_path, retain=3)
        (tmp_path / "snapshot-000000001.ltc").write_bytes(b"junk")
        assert store.restore() is None

    def test_empty_directory_restores_none(self, tmp_path):
        assert SnapshotStore(tmp_path).restore() is None


class _FailingFs:
    """Filesystem shim: records each step of ``save`` and fails one.

    Steps are ``write`` (the tmp file; half the bytes land first),
    ``fsync-file``, ``replace``, ``fsync-dir`` and ``unlink`` (pruning).
    ``fail_at`` is the index of the step that raises ``OSError``.
    """

    def __init__(self, monkeypatch):
        self.fail_at = None
        self.steps = []
        self.replaced = False
        shim = self
        real_open, real_fsync, real_replace = open, os.fsync, os.replace
        real_unlink = pathlib.Path.unlink

        class _File:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def write(self, data):
                half = len(data) // 2
                self._fh.write(data[:half])
                self._fh.flush()
                shim.step("write")
                return half + self._fh.write(data[half:])

            def flush(self):
                self._fh.flush()

            def fileno(self):
                return self._fh.fileno()

        def fake_open(path, mode="r", *args, **kwargs):
            return _File(real_open(path, mode, *args, **kwargs))

        def fake_fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            shim.step("fsync-dir" if is_dir else "fsync-file")
            real_fsync(fd)

        def fake_replace(src, dst):
            shim.step("replace")
            real_replace(src, dst)
            shim.replaced = True

        def fake_unlink(path, missing_ok=False):
            shim.step("unlink")
            real_unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(snapshots, "open", fake_open, raising=False)
        monkeypatch.setattr(os, "fsync", fake_fsync)
        monkeypatch.setattr(os, "replace", fake_replace)
        monkeypatch.setattr(pathlib.Path, "unlink", fake_unlink)

    def arm(self, fail_at):
        self.fail_at, self.steps, self.replaced = fail_at, [], False

    def step(self, name):
        self.steps.append(name)
        if len(self.steps) - 1 == self.fail_at:
            raise OSError(f"injected failure at {name}")


class TestSaveFailures:
    def test_each_failed_step_restores_newest_replaced(
        self, tmp_path, monkeypatch
    ):
        """Fail every step of save in turn; restore the last committed.

        A failed write, fsync or rename propagates; a failed prune unlink
        is swallowed by design.  Either way a fresh restore returns the
        newest snapshot whose rename completed.
        """
        ltc = build_ltc(_cfg())
        store = SnapshotStore(tmp_path, retain=2)
        for i in range(2):  # something for the prune to unlink
            ltc.insert_many(list(range(i * 10, i * 10 + 10)))
            store.save(ltc)
        committed = to_bytes(ltc)
        shim = _FailingFs(monkeypatch)
        failed_steps = []
        for fail_at in range(20):
            ltc.insert_many(list(range(fail_at * 7, fail_at * 7 + 30)))
            shim.arm(fail_at)
            try:
                store.save(ltc)
            except OSError:
                pass
            steps, replaced = shim.steps, shim.replaced
            shim.arm(None)
            if replaced:
                committed = to_bytes(ltc)
            fresh = SnapshotStore(tmp_path, retain=2)
            assert all(
                not p.name.endswith(".tmp") for p in fresh.snapshot_paths()
            )
            restored = fresh.restore()
            assert restored is not None
            assert to_bytes(restored) == committed
            if len(steps) <= fail_at:
                break  # the injection point was never reached: all covered
            failed_steps.append(steps[fail_at])
        # The directory is fsynced after the rename, before any unlink.
        assert steps[:4] == ["write", "fsync-file", "replace", "fsync-dir"]
        assert set(steps[4:]) == {"unlink"}
        assert failed_steps[:4] == ["write", "fsync-file", "replace", "fsync-dir"]
        assert failed_steps[4:] == ["unlink"] * (len(steps) - 4)


class TestRestoreContinue:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_restore_then_continue_byte_identical(self, tmp_path, kernel):
        """Kill mid-stream (and mid-period), restart from the snapshot,
        finish the stream: final answers byte-equal the uninterrupted run."""
        cfg = _cfg(kernel=kernel)
        rng = random.Random(kernel)
        stream = [rng.randrange(50) for _ in range(3000)]
        cut = 1337  # not a period multiple: restores mid-period

        def drive(ltc, events):
            fill = ltc.period_fill
            for item in events:
                ltc.insert(item)
                fill += 1
                if fill == cfg.items_per_period:
                    ltc.end_period()
                    fill = 0

        straight = build_ltc(cfg)
        drive(straight, stream)

        first = build_ltc(cfg)
        drive(first, stream[:cut])
        store = SnapshotStore(tmp_path / kernel, retain=2)
        store.save(first)
        del first

        resumed = store.restore(cls=KERNELS[kernel])
        assert resumed is not None
        assert resumed.period_fill == cut % cfg.items_per_period
        drive(resumed, stream[cut:])

        assert to_bytes(resumed) == to_bytes(straight)
        assert canonical_json(oracle_top_k(resumed, 20)) == canonical_json(
            oracle_top_k(straight, 20)
        )
