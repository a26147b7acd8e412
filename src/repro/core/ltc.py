"""LTC (Long-Tail CLOCK): top-k significant items in one structure.

The algorithm of the paper (§III).  A lossy table of ``w`` buckets × ``d``
cells keeps only items with high potential significance:

* a **hit** increments the cell's frequency and raises the current flag;
* a miss with an **empty cell** claims it (`f=1`, counter 0, flag set);
* a miss in a **full bucket** performs *Significance Decrementing* on the
  bucket's least-significant cell; when that cell's significance reaches
  zero its item is expelled and the newcomer takes the cell — with
  **Long-tail Replacement** (Optimization II) the newcomer starts from the
  bucket's second-smallest frequency/persistency − 1 instead of 1/0;
* a CLOCK pointer sweeps the table exactly once per period, harvesting
  flags into the persistency counters — with the **Deviation Eliminator**
  (Optimization I) each cell carries an even-period and an odd-period flag
  and the sweep harvests the *previous* period's flag, which removes the
  up-to-one-period deviation of the basic version (paper Fig. 4/5) and
  makes the estimate provably never an overestimate (Theorem IV.1).

A cell's ID is a key in ``[0, MAX_KEY]``, the range a ``uint64`` can
hold beside :data:`EMPTY_KEY`, which marks a free cell (the paper's NULL
ID).  Every insert checks its keys before it writes anything; the read
API turns a free cell's key back into ``None``.
"""

from __future__ import annotations

import operator
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro import obs, sanitize
from repro.core.cell import CellView
from repro.core.clock import ClockPointer
from repro.core.config import LTCConfig
from repro.core.hooks import CellListener
from repro.hashing.family import splitmix64
from repro.metrics.memory import MemoryBudget
from repro.summaries.base import ItemReport, StreamSummary, as_items

#: The key of a free cell, in the key list and in a checkpoint's cell
#: record, so no item may take it.
EMPTY_KEY = 0xFFFF_FFFF_FFFF_FFFF
#: The highest key an LTC holds.
MAX_KEY = EMPTY_KEY - 1


def out_of_range(key: Any) -> ValueError:
    """The error for a key outside ``[0, MAX_KEY]``."""
    return ValueError(f"key {key!r} is outside the LTC key range [0, {MAX_KEY}]")


class LTC(StreamSummary):
    """The Long-Tail CLOCK structure.

    Drive it like any summary: ``insert`` per arrival, ``end_period`` at
    each boundary, ``finalize`` at stream end (or simply
    ``stream.run(ltc)``).  For time-defined periods use
    :meth:`insert_timed` and call ``end_period`` when the wall clock
    crosses a boundary.

    Args:
        config: Structure parameters; see :class:`repro.core.config.LTCConfig`.
    """

    def __init__(self, config: LTCConfig) -> None:
        self.config = config
        w, d = config.num_buckets, config.bucket_width
        m = w * d
        self._w = w
        self._d = d
        self._alpha = config.alpha
        self._beta = config.beta
        self._seed = splitmix64(config.seed)
        self._keys: List[int] = [EMPTY_KEY] * m
        self._freqs: List[int] = [0] * m
        self._counters: List[int] = [0] * m
        self._flags = bytearray(m)
        self._clock = ClockPointer(m, config.items_per_period)
        self._de = config.deviation_eliminator
        self._policy = config.replacement_policy
        self._ltr = self._policy == "longtail"
        self._parity = 0
        self._set_bit = 1
        self._harvest_bit = 2 if self._de else 1
        self._last_timestamp: Optional[float] = None
        # Observability: capture the live registry once at construction
        # (None when disabled, so every hot-path guard is one `is None`).
        self._obs = obs.registry() if obs.is_enabled() else None
        if self._obs is not None:
            reg = self._obs
            self._m_inserts = reg.counter(
                "ltc_inserts_total", "Arrivals processed by the lossy table"
            )
            self._m_decrements = reg.counter(
                "ltc_significance_decrements_total",
                "Full-bucket misses resolved by Significance Decrementing",
            )
            self._m_evictions = reg.counter(
                "ltc_evictions_total",
                "Incumbent items expelled from a full bucket",
            )
            self._m_longtail = reg.counter(
                "ltc_longtail_replacements_total",
                "Evictions seeded by Long-tail Replacement (Opt. II)",
            )
            self._m_harvests = reg.counter(
                "ltc_harvests_total",
                "CLOCK flag harvests folded into persistency counters",
            )
        self._m_batch = obs.batch_size_histogram(type(self).__name__)
        # Cell-mutation listener (repro.core.hooks): the serving index
        # attaches here; disabled cost is one is-None test per mutation.
        self._cell_listener: Optional[CellListener] = None
        # Debug-mode invariant checking: wrappers are installed on the
        # *instance* only when requested, so the disabled hot paths stay
        # the plain class functions (zero cost, not even a flag branch).
        if sanitize.env_enabled():
            sanitize.install_ltc(self)

    @classmethod
    def from_memory(
        cls,
        budget: MemoryBudget,
        items_per_period: int,
        bucket_width: int = 8,
        alpha: float = 1.0,
        beta: float = 1.0,
        **kwargs: Any,
    ) -> "LTC":
        """Build an LTC sized for a byte budget (12 bytes/cell, §V-C)."""
        return cls(
            LTCConfig.from_memory(
                budget,
                items_per_period,
                bucket_width=bucket_width,
                alpha=alpha,
                beta=beta,
                **kwargs,
            )
        )

    # ----------------------------------------------------------------- hooks
    def attach_cell_listener(self, listener: CellListener) -> None:
        """Attach the (single) cell-mutation listener.

        The listener is notified with the slot id after any cell's key,
        frequency or persistency changes, and with ``cells_reset`` when
        the whole table is invalidated (:meth:`clear`); see
        :mod:`repro.core.hooks` for the contract.  Attaching replaces
        any previous listener; it does not replay history — observers
        that need the current table state scan it once on attach.
        """
        self._cell_listener = listener

    def detach_cell_listener(self) -> None:
        """Remove the cell-mutation listener (hot paths go branch-cheap)."""
        self._cell_listener = None

    # ------------------------------------------------------------- insertion
    def insert(self, item: int) -> None:
        """Process one arrival (count-based CLOCK advancement).

        Raises ``TypeError`` for a key that is not an int (numpy integers
        count, as plain ints) and ``ValueError`` for one outside ``[0,
        MAX_KEY]``.
        """
        item = operator.index(item)
        if not 0 <= item <= MAX_KEY:
            raise out_of_range(item)
        self._place(item)
        if self._obs is not None:
            self._m_inserts.inc()
        self._sweep(self._clock.on_arrival())

    def insert_many(self, items: Iterable[int]) -> None:
        """Process a batch of arrivals (count-based CLOCK advancement).

        Equivalent to ``insert`` per item, cell for cell: arrivals that
        provably trigger no CLOCK step are placed in a tight loop, then the
        chunk's sweep steps are taken in one amortised pass (floor sums
        telescope, so one accumulator update stands for the chunk's
        :meth:`~repro.core.clock.ClockPointer.on_arrival` calls) at
        exactly the arrival position where the one-at-a-time path would
        take them.  The whole batch is checked first, in arrival order
        as the compiled kernel does, so the first bad key raises —
        ``TypeError`` for a key that is not an int, ``ValueError`` for
        one outside ``[0, MAX_KEY]`` — with the table untouched.
        """
        items = as_items(items)
        keys: List[int] = []
        for key in map(operator.index, items):
            if not 0 <= key <= MAX_KEY:
                raise out_of_range(key)
            keys.append(key)
        items = keys
        total = len(items)
        if self._m_batch is not None:
            self._m_batch.observe(total)
        place = self._place
        harvest = self._harvest
        clock = self._clock
        take = clock._take
        n = clock.items_per_period
        m = clock.num_cells
        acc = clock._acc
        obs_inserts = self._m_inserts if self._obs is not None else None
        if obs_inserts is not None:
            obs_inserts.inc(total)
        i = 0
        while i < total:
            # (n - 1 - acc) // m arrivals provably trigger no sweep step:
            # place them, plus the one that does, then take that chunk's
            # steps at once.
            j = i + (n - 1 - acc) // m + 1
            if j > total:
                j = total
            for item in items[i:j]:
                place(item)
            acc += (j - i) * m
            steps = acc // n
            if steps:
                acc -= steps * n
                for slot in take(steps):
                    harvest(slot)
            i = j
        clock._acc = acc

    def insert_timed(self, item: int, timestamp: float, period_seconds: float) -> None:
        """Process one arrival with a wall-clock timestamp.

        The CLOCK advances by ``Δt / period_seconds`` of a full sweep, the
        paper's adaptation to varying arrival speed (§III-B).  Timestamps
        are quantised to absolute integer ticks and the CLOCK is driven by
        the tick *delta*, so the sweep state depends only on the latest
        timestamp — not on how the interval happened to be split across
        arrivals (or across a checkpoint/restore).  Keys are checked as
        by :meth:`insert`.
        """
        ticks = self._elapsed_ticks(timestamp, period_seconds)
        item = operator.index(item)
        if not 0 <= item <= MAX_KEY:
            raise out_of_range(item)
        self._place(item)
        if self._obs is not None:
            self._m_inserts.inc()
        self._sweep(self._clock.on_elapsed_ticks(ticks))
        self._last_timestamp = timestamp

    def _elapsed_ticks(self, timestamp: float, period_seconds: float) -> int:
        """CLOCK ticks from the last timed arrival to ``timestamp`` (0 for
        the first); ``ValueError`` for a bad period or a timestamp that
        runs backwards."""
        if period_seconds <= 0:
            raise ValueError("period_seconds must be positive")
        last = self._last_timestamp
        if last is None:
            return 0
        if timestamp < last:
            raise ValueError("timestamps must be non-decreasing")
        ticks = ClockPointer.TICKS_PER_PERIOD
        return round(timestamp * ticks / period_seconds) - round(
            last * ticks / period_seconds
        )

    def _place(self, item: int) -> None:
        """The lossy-table update (cases 1–3 of §III-B)."""
        d = self._d
        base = (splitmix64(item ^ self._seed) % self._w) * d
        keys = self._keys
        freqs = self._freqs
        empty = -1
        for j in range(base, base + d):
            key = keys[j]
            if key == item:  # Case 1: hit.
                freqs[j] += 1
                self._flags[j] |= self._set_bit
                if self._cell_listener is not None:
                    self._cell_listener.cell_touched(j)
                return
            if key == EMPTY_KEY and empty < 0:
                empty = j
        if empty >= 0:  # Case 2: free cell.
            keys[empty] = item
            freqs[empty] = 1
            self._counters[empty] = 0
            self._flags[empty] = self._set_bit
            if self._cell_listener is not None:
                self._cell_listener.cell_touched(empty)
            return
        self._decrement_smallest(item, base)  # Case 3: full bucket.

    def _decrement_smallest(self, item: int, base: int) -> None:
        """Significance Decrementing, with expulsion and (LTR) replacement."""
        d = self._d
        alpha, beta = self._alpha, self._beta
        freqs = self._freqs
        counters = self._counters
        metered = self._obs is not None
        listener = self._cell_listener
        jmin = base
        smin = alpha * freqs[base] + beta * counters[base]
        for j in range(base + 1, base + d):
            s = alpha * freqs[j] + beta * counters[j]
            if s < smin:
                smin, jmin = s, j
        if self._policy == "space-saving":
            # Ablation baseline: replace the minimum outright, inheriting
            # its value + 1 — the overestimating strategy of §I-C.
            if metered:
                self._m_evictions.inc()
            self._keys[jmin] = item
            freqs[jmin] += 1
            self._flags[jmin] = self._set_bit
            if listener is not None:
                listener.cell_touched(jmin)
            return
        if metered:
            self._m_decrements.inc()
        if counters[jmin] > 0:  # Persistency never goes negative (§III-B).
            counters[jmin] -= 1
        elif freqs[jmin] > 0:
            # The persistency counter is empty, but the cell may still hold
            # persistency credit in un-harvested flags (up to two with the
            # Deviation Eliminator).  If those flags cover at least the
            # whole post-decrement frequency, a later harvest would leave
            # persistency > frequency — impossible for the true statistics
            # (§III: a period counted by persistency contains ≥ 1 arrival).
            # Charge the decrement to the oldest pending flag instead.
            bits = self._flags[jmin]
            if (bits & 1) + (bits >> 1 & 1) >= freqs[jmin]:
                if bits & self._harvest_bit:
                    self._flags[jmin] = bits & ~self._harvest_bit & 0xFF
                else:
                    self._flags[jmin] = bits & ~self._set_bit & 0xFF
        if freqs[jmin] > 0:
            freqs[jmin] -= 1
        if alpha * freqs[jmin] + beta * counters[jmin] > 0:
            if listener is not None:
                listener.cell_touched(jmin)
            return  # The incumbent survives; the newcomer is dropped.
        # Expel and insert the newcomer.
        if self._ltr and d > 1:
            f0, c0 = self._longtail_initial(base, jmin)
            if metered:
                self._m_longtail.inc()
        else:
            f0, c0 = 1, 0
        if metered:
            self._m_evictions.inc()
        self._keys[jmin] = item
        freqs[jmin] = f0
        counters[jmin] = c0
        self._flags[jmin] = self._set_bit
        if listener is not None:
            listener.cell_touched(jmin)

    def _longtail_initial(self, base: int, jmin: int) -> Tuple[int, int]:
        """Long-tail Replacement initial values (§III-D).

        The expelled cell held the bucket's smallest values; under the
        long-tail assumption the newcomer's true statistics are close to
        them, and they in turn are close to the second-smallest values − 1.
        Initialising there keeps the new cell the bucket minimum while
        restoring the likely-evicted mass.
        """
        f2 = c2 = None
        for j in range(base, base + self._d):
            if j == jmin:
                continue
            if f2 is None or self._freqs[j] < f2:
                f2 = self._freqs[j]
            if c2 is None or self._counters[j] < c2:
                c2 = self._counters[j]
        assert f2 is not None and c2 is not None
        f0 = max(f2 - 1, 1)
        # The newcomer's set flag is one period of future persistency
        # credit, so seed the counter no higher than f0 - 1 or the next
        # harvest would push persistency past frequency.
        return f0, min(max(c2 - 1, 0), f0 - 1)

    # ----------------------------------------------------------- persistency
    def _sweep(self, slots: List[int]) -> None:
        """CLOCK scan of the given slots, in order."""
        for slot in slots:
            self._harvest(slot)

    def _harvest(self, slot: int) -> None:
        """CLOCK scan of one cell: fold a set flag into the counter."""
        flags = self._flags
        if flags[slot] & self._harvest_bit:
            flags[slot] &= ~self._harvest_bit & 0xFF
            if self._keys[slot] != EMPTY_KEY:
                self._counters[slot] += 1
                if self._obs is not None:
                    self._m_harvests.inc()
                if self._cell_listener is not None:
                    self._cell_listener.cell_touched(slot)

    def end_period(self) -> None:
        """Complete the sweep and roll the period parity.

        With the Deviation Eliminator the parity flip *is* the paper's
        "flag refreshment elimination": the just-written flags become the
        previous-period flags harvested by the next sweep.
        """
        self._sweep(self._clock.end_period())
        if self._de:
            self._parity ^= 1
            self._set_bit = 1 << self._parity
            self._harvest_bit = 1 << (self._parity ^ 1)

    def finalize(self) -> None:
        """Fold all un-harvested flags so persistency matches the exact
        definition at stream end.  Idempotent."""
        flags = self._flags
        keys = self._keys
        counters = self._counters
        listener = self._cell_listener
        for slot in range(len(flags)):
            bits = flags[slot]
            if bits and keys[slot] != EMPTY_KEY:
                counters[slot] += (bits & 1) + (bits >> 1 & 1)
                if listener is not None:
                    listener.cell_touched(slot)
            flags[slot] = 0

    # --------------------------------------------------------------- queries
    def _slot(self, item: int) -> int:
        """The slot holding ``item``, or -1 when no cell does."""
        if item == EMPTY_KEY:  # The free-cell key is no item's.
            return -1
        d = self._d
        base = (splitmix64(item ^ self._seed) % self._w) * d
        keys = self._keys
        for j in range(base, base + d):
            if keys[j] == item:
                return j
        return -1

    def estimate(self, item: int) -> Tuple[int, int]:
        """Estimated ``(frequency, persistency)`` of ``item`` (0, 0 when
        the item is not tracked), as Python ints whatever the kernel's
        storage."""
        j = self._slot(item)
        if j < 0:
            return 0, 0
        return int(self._freqs[j]), int(self._counters[j])

    def query(self, item: int) -> float:
        """Estimated significance ``α·f̂ + β·p̂`` of ``item``."""
        f, p = self.estimate(item)
        return self._alpha * f + self._beta * p

    @property
    def period_fill(self) -> int:
        """Count-based arrivals since the last period boundary.

        Inverts the CLOCK accumulator (each arrival adds ``m`` to it and
        every ``n`` accumulated is one swept slot), so a restored
        checkpoint reveals how deep into its period it was.  Valid while
        the driver ends periods on schedule (fewer than ``n`` arrivals
        since the last :meth:`end_period`), which both
        :class:`repro.streams.model.StreamModel` and the serving tier
        guarantee.
        """
        clock = self._clock
        return (
            clock.scanned_in_period * clock.items_per_period + clock._acc
        ) // clock.num_cells

    def cell_state(self, slot: int) -> Tuple[Optional[int], int, int]:
        """``(key, frequency, persistency)`` of one cell by flat slot id.

        ``key`` is ``None`` for an empty cell.  The counts are plain
        Python ints regardless of kernel (the columnar kernel stores
        numpy scalars); this is the per-cell read path of the serving
        tier's full-scan oracle (:mod:`repro.serve.oracle`).
        """
        key: Optional[int] = self._keys[slot]
        if key == EMPTY_KEY:
            key = None
        return key, int(self._freqs[slot]), int(self._counters[slot])

    def top_k(self, k: int) -> List[ItemReport]:
        """The k most significant tracked items (Python scalars whatever
        the kernel's storage)."""
        alpha, beta = self._alpha, self._beta
        reports = [
            ItemReport(key, alpha * f + beta * p, float(f), float(p))
            for key, f, p in map(self.cell_state, range(self.total_cells))
            if key is not None
        ]
        reports.sort(key=lambda r: (-r.significance, r.item))
        return reports[:k]

    # ----------------------------------------------------------- inspection
    def cells(self) -> Iterator[CellView]:
        """Yield a snapshot view of every cell (tests/debugging), with
        plain Python ints whatever the kernel's storage."""
        d = self._d
        for j, key in enumerate(self._keys):
            bits = self._flags[j]
            yield CellView(
                bucket=j // d,
                slot=j % d,
                key=None if key == EMPTY_KEY else key,
                frequency=int(self._freqs[j]),
                persistency=int(self._counters[j]),
                flag_even=bool(bits & 1),
                flag_odd=bool(bits & 2),
            )

    def __contains__(self, item: int) -> bool:
        """Whether ``item`` currently occupies a cell."""
        return self._slot(item) >= 0

    def items(self) -> Iterator[int]:
        """Yield every currently tracked item id."""
        for key in self._keys:
            if key != EMPTY_KEY:
                yield key

    def clear(self) -> None:
        """Reset the structure to its freshly-built state."""
        m = len(self._keys)
        # In place, so the columnar kernel's numpy columns (and views of
        # them) keep their storage; its key list is a memoryview, which
        # takes no slice of a list.
        keys = self._keys
        for j in range(m):
            keys[j] = EMPTY_KEY
        self._freqs[:] = [0] * m
        self._counters[:] = [0] * m
        self._flags[:] = [0] * m
        # In place too: the columnar kernel's CLOCK fields are views of
        # its compiled state.
        self._clock.reset()
        self._parity = 0
        self._set_bit = 1
        self._harvest_bit = 2 if self._de else 1
        self._last_timestamp = None
        if self._cell_listener is not None:
            self._cell_listener.cells_reset()

    def __len__(self) -> int:
        """Number of occupied cells."""
        return sum(1 for key in self._keys if key != EMPTY_KEY)

    @property
    def total_cells(self) -> int:
        return len(self._keys)

    def load_factor(self) -> float:
        """Fraction of occupied cells."""
        return len(self) / self.total_cells
