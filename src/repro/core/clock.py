"""The CLOCK pointer that schedules persistency harvesting (paper §III-B).

Every cell of the lossy table is a time slot on a clock face.  The pointer
must pass over **every cell exactly once per period**; that exactness is
what makes "persistency += at most 1 per period" hold.  Two driving modes:

* count-based: a period contains ``n`` arrivals, so the pointer advances
  ``m/n`` slots per arrival (integer accumulator — no float drift);
* time-based: on an arrival ``Δt`` after the previous one, the pointer
  advances ``Δt/t · m`` slots, where ``t`` is the period length.  Elapsed
  time is expressed in integer **ticks** of ``TICKS_PER_PERIOD`` per
  period, so this accumulator is exactly as drift-free as the count-based
  one: tick deltas telescope, and any split of an interval into sub-deltas
  advances the pointer to the identical state.

``end_period()`` completes any unfinished sweep (e.g. when the final
period is short) and re-anchors both accumulators, so the exactly-once
invariant holds for every period regardless of arrival jitter.
"""

from __future__ import annotations

from typing import List


class ClockPointer:
    """Sweeps ``num_cells`` slots exactly once per period.

    Args:
        num_cells: Table size ``m``.
        items_per_period: Count-based period length ``n``.
    """

    #: Time-based resolution: one period is 2**32 integer ticks.  Callers
    #: quantise wall-clock timestamps to ticks once (see
    #: :meth:`repro.core.ltc.LTC.insert_timed`) and feed tick *deltas*
    #: here; because the deltas are integers, they telescope exactly and
    #: the sweep can never drift off the once-per-period schedule the way
    #: a float accumulator could.
    TICKS_PER_PERIOD = 1 << 32

    def __init__(self, num_cells: int, items_per_period: int) -> None:
        if num_cells < 1:
            raise ValueError("num_cells must be >= 1")
        if items_per_period < 1:
            raise ValueError("items_per_period must be >= 1")
        self.num_cells = num_cells
        self.items_per_period = items_per_period
        self.reset()

    def reset(self) -> None:
        """Back to the state of a fresh pointer, in place."""
        self.hand = 0  # next slot the pointer will pass
        self._acc = 0  # arrival accumulator (units of 1/n periods)
        self._tacc = 0  # time accumulator (ticks, < TICKS_PER_PERIOD)
        self.scanned_in_period = 0

    def on_arrival(self) -> List[int]:
        """Slots to scan for one count-based arrival (``m/n`` amortised)."""
        self._acc += self.num_cells
        steps = self._acc // self.items_per_period
        self._acc -= steps * self.items_per_period
        return self._take(steps)

    def on_elapsed_ticks(self, delta_ticks: int) -> List[int]:
        """Slots to scan after ``delta_ticks`` integer ticks elapsed.

        The exact time-based drive: ``TICKS_PER_PERIOD`` ticks advance the
        pointer by exactly ``num_cells`` slots, however the interval is
        split — integer floor sums telescope just like the count-based
        accumulator's, so jittered Δt sequences cannot drift the sweep.
        """
        return self._take(self.elapsed_steps(delta_ticks))

    def elapsed_steps(self, delta_ticks: int) -> int:
        """Add ``delta_ticks`` to the time accumulator and return the
        whole slots it yields, before :meth:`on_elapsed_ticks`' cap of
        one pass per period (the columnar kernel's sweep applies it)."""
        if delta_ticks < 0:
            raise ValueError("time must not run backwards")
        self._tacc += delta_ticks * self.num_cells
        steps = self._tacc // self.TICKS_PER_PERIOD
        self._tacc -= steps * self.TICKS_PER_PERIOD
        return steps

    def on_elapsed(self, period_fraction: float) -> List[int]:
        """Slots to scan after ``period_fraction`` of a period elapsed.

        Convenience wrapper over :meth:`on_elapsed_ticks`: the fraction is
        quantised to ticks deterministically (exact rational arithmetic on
        the float's integer ratio, floor-rounded).  Callers that need
        split-invariant advancement must quantise *absolute* times to
        ticks themselves and pass tick deltas — per-call quantisation of
        independent fractions cannot telescope.
        """
        if period_fraction < 0:
            raise ValueError("time must not run backwards")
        numerator, denominator = period_fraction.as_integer_ratio()
        return self.on_elapsed_ticks(
            numerator * self.TICKS_PER_PERIOD // denominator
        )

    def end_period(self) -> List[int]:
        """Complete the sweep and re-anchor for the next period."""
        remaining = self.num_cells - self.scanned_in_period
        slots = self._take(remaining)
        self.scanned_in_period = 0
        self._acc = 0
        self._tacc = 0
        return slots

    def _take(self, steps: int) -> List[int]:
        # Never scan a slot twice within one period.
        steps = min(steps, self.num_cells - self.scanned_in_period)
        if steps <= 0:
            return []
        m = self.num_cells
        hand = self.hand
        slots = [(hand + i) % m for i in range(steps)]
        self.hand = (hand + steps) % m
        self.scanned_in_period += steps
        return slots
