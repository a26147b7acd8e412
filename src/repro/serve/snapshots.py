"""Snapshot rotation for the serving tier: atomic write, retain-N, recover.

Built on the v3 binary checkpoints of :mod:`repro.core.serialize` —
restoring reproduces the structure exactly (cells, CLOCK phase, parity),
so a server killed and restarted from its newest snapshot continues the
stream bit-identically from that point.

Crash-safety discipline:

* a snapshot is written to ``<name>.tmp``, flushed and fsynced, then
  moved into place with :func:`os.replace` — readers never observe a
  partial snapshot file, only a leftover ``*.tmp`` which is ignored;
* the directory is fsynced after the rename and before pruning, so a
  power loss cannot keep the unlinks of older snapshots yet drop the
  rename of the newest;
* files are named ``snapshot-<seq:09d>.ltc`` so lexicographic order is
  creation order; only the newest ``retain`` are kept;
* :meth:`SnapshotStore.restore` walks newest-first and skips anything
  that fails to parse (truncated by a crash mid-``os.replace`` is not
  possible, but a corrupted disk image is), so startup degrades to the
  newest *intact* snapshot, or a fresh structure when none survives.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import List, Optional, Type, Union

from repro.core.ltc import LTC
from repro.core.serialize import from_bytes, to_bytes

_SUFFIX = ".ltc"
_PREFIX = "snapshot-"


def _fsync_directory(directory: Path) -> None:
    """Make the directory's entries (a rename, an unlink) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SnapshotStore:
    """Rotating checkpoint directory for one serving structure."""

    def __init__(self, directory: Union[str, Path], retain: int = 3) -> None:
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.retain = retain

    def snapshot_paths(self) -> List[Path]:
        """Complete snapshots, oldest first (``*.tmp`` leftovers excluded)."""
        return sorted(
            p
            for p in self.directory.glob(f"{_PREFIX}*{_SUFFIX}")
            if p.name.endswith(_SUFFIX)
        )

    def _next_seq(self) -> int:
        seq = 0
        for path in self.snapshot_paths():
            try:
                seq = max(seq, int(path.name[len(_PREFIX) : -len(_SUFFIX)]))
            except ValueError:
                continue
        return seq + 1

    # reprolint: blocking-ok — the synchronous write+fsync+rename IS the durability barrier; bounded by snapshot size and serialized by the ingest loop
    def save(self, ltc: LTC) -> Path:
        """Checkpoint ``ltc`` atomically and prune beyond ``retain``."""
        final = self.directory / f"{_PREFIX}{self._next_seq():09d}{_SUFFIX}"
        tmp = final.with_name(final.name + ".tmp")
        blob = to_bytes(ltc)
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
        _fsync_directory(self.directory)
        self._prune()
        return final

    def _prune(self) -> None:
        paths = self.snapshot_paths()
        for path in paths[: -self.retain]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleanup is benign
                pass
        for leftover in self.directory.glob(f"{_PREFIX}*{_SUFFIX}.tmp"):
            try:
                leftover.unlink()
            except OSError:  # pragma: no cover
                pass

    def restore(self, cls: Type[LTC] = LTC) -> Optional[LTC]:
        """Revive the newest intact snapshot as ``cls``, or ``None``."""
        for path in reversed(self.snapshot_paths()):
            try:
                return from_bytes(path.read_bytes(), cls=cls)
            except (OSError, ValueError, struct.error, IndexError):
                continue
        return None
