"""Space-Time Bloom Filter (STBF) — PIE's per-period structure.

Each cell carries a small fingerprint, one Raptor-encoded symbol of the
item identifier (the symbol index is the cell index, so the decoder knows
each symbol's equation from its position), and a 2-state flag.  Cells
written by two different items become *collided* and are excluded from
decoding; cells written (possibly repeatedly) by a single item stay
*singletons* and feed the fountain-code decoder.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Tuple

import numpy as _np

from repro.codes.raptor import RaptorCode
from repro.hashing.family import HashFamily, as_key_array


class CellState(enum.IntEnum):
    """Lifecycle state of an STBF cell."""
    EMPTY = 0
    OCCUPIED = 1
    COLLIDED = 2


class SpaceTimeBloomFilter:
    """One period's STBF.

    Args:
        num_cells: Cell count ``m``.
        code: The shared Raptor code used to encode identifiers.
        num_hashes: Cells written per insertion ``r``.
        fp_bits: Fingerprint width; collisions of both fingerprint *and*
            symbol are undetectable (inherent to PIE), larger widths trade
            memory for fewer decoding losses.
        seed: Hash-family seed (shared across periods so an item writes the
            same cells in every period's filter).
    """

    def __init__(
        self,
        num_cells: int,
        code: RaptorCode,
        num_hashes: int = 3,
        fp_bits: int = 12,
        seed: int = 0x91E,
    ):
        if num_cells < 1:
            raise ValueError("num_cells must be >= 1")
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.num_cells = num_cells
        self.num_hashes = num_hashes
        self.fp_bits = fp_bits
        self.code = code
        self._family = HashFamily(seed)
        self._cell_hashes = [self._family.member(i) for i in range(num_hashes)]
        self._fp_hash = self._family.member(num_hashes)
        self._states: List[int] = [CellState.EMPTY] * num_cells
        self._fps: List[int] = [0] * num_cells
        self._symbols: List[int] = [0] * num_cells

    def fingerprint(self, item: int) -> int:
        """Fingerprint value of ``item``."""
        return self._fp_hash(item) & ((1 << self.fp_bits) - 1)

    def cells_of(self, item: int) -> List[int]:
        """The cell indices ``item`` maps to."""
        m = self.num_cells
        return [h(item) % m for h in self._cell_hashes]

    def insert(self, item: int) -> None:
        """Record one appearance of ``item`` in this period.

        Re-inserting the same item is idempotent: it writes the identical
        fingerprint and symbol, so singletons stay singletons.
        """
        fp = self.fingerprint(item)
        for cell in self.cells_of(item):
            state = self._states[cell]
            if state == CellState.EMPTY:
                self._states[cell] = CellState.OCCUPIED
                self._fps[cell] = fp
                self._symbols[cell] = self.code.encode(item, cell)
            elif state == CellState.OCCUPIED:
                if (
                    self._fps[cell] != fp
                    or self._symbols[cell] != self.code.encode(item, cell)
                ):
                    self._states[cell] = CellState.COLLIDED
            # COLLIDED cells stay collided.

    def insert_many(self, items) -> None:
        """Record a batch of appearances in one pass, replay-identical.

        Re-inserts are idempotent, so the batch folds to its distinct
        identifiers; they are replayed in first-occurrence order (the
        first writer of a cell leaves the residual fingerprint/symbol a
        later collision preserves, so order is part of the replicated
        state) with the per-row cell indices and fingerprints hashed in
        one vectorised pass.
        """
        arr = as_key_array(items)
        if arr.size == 0:
            return
        uniq, first = _np.unique(arr, return_index=True)
        uniq = uniq[_np.argsort(first, kind="stable")]
        m = _np.uint64(self.num_cells)
        cell_rows = [
            (self._family.hash_array(i, uniq) % m).astype(_np.int64).tolist()
            for i in range(self.num_hashes)
        ]
        fp_mask = (1 << self.fp_bits) - 1
        fps = (self._family.hash_array(self.num_hashes, uniq)).tolist()
        states = self._states
        cell_fps = self._fps
        symbols = self._symbols
        encode = self.code.encode
        for item, fp_raw, cells in zip(uniq.tolist(), fps, zip(*cell_rows)):
            fp = fp_raw & fp_mask
            for cell in cells:
                state = states[cell]
                if state == CellState.EMPTY:
                    states[cell] = CellState.OCCUPIED
                    cell_fps[cell] = fp
                    symbols[cell] = encode(item, cell)
                elif state == CellState.OCCUPIED:
                    if cell_fps[cell] != fp or symbols[cell] != encode(item, cell):
                        states[cell] = CellState.COLLIDED

    def singletons(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(cell_index, fingerprint, symbol)`` of singleton cells."""
        for cell in range(self.num_cells):
            if self._states[cell] == CellState.OCCUPIED:
                yield cell, self._fps[cell], self._symbols[cell]

    def state_of(self, cell: int) -> CellState:
        """Lifecycle state of one cell."""
        return CellState(self._states[cell])

    def might_contain(self, item: int) -> bool:
        """Membership test: every mapped cell non-empty and fp-compatible."""
        fp = self.fingerprint(item)
        for cell in self.cells_of(item):
            state = self._states[cell]
            if state == CellState.EMPTY:
                return False
            if state == CellState.OCCUPIED and self._fps[cell] != fp:
                return False
        return True

    @property
    def occupancy(self) -> Tuple[int, int, int]:
        """Counts of (empty, occupied, collided) cells."""
        empty = self._states.count(CellState.EMPTY)
        collided = self._states.count(CellState.COLLIDED)
        return empty, self.num_cells - empty - collided, collided
