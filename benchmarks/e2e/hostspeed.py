"""Host speed, probed all through a run, so timings can be reported at
one reference speed.

On a shared VM each vCPU switches, every few seconds, between speeds up
to 1.5x apart (2.5x in bursts), independently of the other vCPU and
without any steal time showing in ``/proc/stat``; the same work timed a
minute apart differs by that much.  A sentinel process pinned to the
program's CPU times a fixed pure-Python loop (a probe, about 0.2 ms)
every ``INTERVAL_S`` for the whole run, at a cost of about 1% of that
CPU.  An interval's factor is the median probe time in it (padded by
``PAD_S``) over ``REFERENCE_S``: 1.0 at the reference speed, 1.4 on a
CPU running 1.4x slower.  A time is divided by its factor and a rate is
multiplied by it.

The probe counts keys in a dict, the operation the program's per-event
and batch paths lean on.  Its time follows the program's: timed beside
batch-paper's steps for four minutes, the log of a step's time rose
1.0-1.1x as fast as the log of the probe's.  An arithmetic loop rose
only 1/1.4 as fast as the steps, so it left slow phases 20-30% slow.

Usage as the sentinel (started by ``Sentinel``): ``python hostspeed.py``;
it probes until its standard input closes, then prints its probes as
one JSON line.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: The probe's keys: fixed 40-bit ints, counted modulo a prime.
PROBE_KEYS = [(i * 2654435761) % (1 << 40) for i in range(1500)]
PROBE_MODULUS = 65521
#: The probe's time on a vCPU of the reference host (2-vCPU Intel Xeon VM,
#: Python 3.11) in its fast phase.  Only the ratio to it matters.
REFERENCE_S = 0.0002
#: Seconds between the sentinel's probes.
INTERVAL_S = 0.02
#: Probes this far outside an interval still count for it.
PAD_S = 0.05


def probe() -> float:
    """Seconds to count ``PROBE_KEYS`` in a dict on the current CPU."""
    started = clock()
    counts: dict = {}
    for key in PROBE_KEYS:
        slot = key % PROBE_MODULUS
        counts[slot] = counts.get(slot, 0) + 1
    return clock() - started


class ProbeLog:
    """``(time, probe seconds)`` pairs, ordered by time."""

    def __init__(self, probes: Sequence[Tuple[float, float]]) -> None:
        if not probes:
            raise ValueError("no probes")
        ordered = sorted(probes)
        self.times = [t for t, _ in ordered]
        self.seconds = [s for _, s in ordered]

    def factor(self, start: float, end: float) -> float:
        """Speed factor of the CPU over ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        if lo == hi:  # no probe near: the nearest one
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self.times)]
            lo = min(near, key=lambda i: min(abs(self.times[i] - start), abs(self.times[i] - end)))
            hi = lo + 1
        return statistics.median(self.seconds[lo:hi]) / REFERENCE_S

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed."""
        return (end - start) / self.factor(start, end)

    def overall(self) -> float:
        """Median factor over the whole log."""
        return statistics.median(self.seconds) / REFERENCE_S


def pin_to(cpu: Optional[int]) -> Optional[Callable[[], None]]:
    """A ``preexec_fn`` that pins a child process to ``cpu`` before exec."""
    if cpu is None:
        return None

    def pin() -> None:
        os.sched_setaffinity(0, {cpu})

    return pin


def split_cpus() -> Tuple[Optional[int], Optional[int]]:
    """``(load generator CPU, program CPU)``: two distinct CPUs when there
    are two or more, else ``(None, None)`` and nothing is pinned."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


class Sentinel:
    """The probing process, pinned to ``cpu``; ``stop()`` returns its log.

    It is running and has probed once when the constructor returns.
    """

    def __init__(self, cpu: Optional[int]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=pin_to(cpu),
        )
        assert self.proc.stdout is not None
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("host speed sentinel did not start")

    def stop(self) -> ProbeLog:
        """Close the sentinel's input, wait for it and parse its probes."""
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("host speed sentinel did not stop")
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(f"host speed sentinel failed (exit {self.proc.returncode})")
        return ProbeLog([tuple(p) for p in json.loads(lines[-1])])


def sentinel_main() -> int:
    probes: List[Tuple[float, float]] = []
    probe()
    print("ready", flush=True)
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable and not sys.stdin.readline():
            break
        started = clock()
        took = probe()
        probes.append((started + took / 2.0, took))
    print(json.dumps(probes), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(sentinel_main())
