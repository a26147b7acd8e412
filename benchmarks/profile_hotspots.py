"""cProfile driver for the experiment sweeps: where do the cycles go?

Not a pytest benchmark (no ``bench_`` prefix, so the suite never collects
it) — run it by hand when chasing a regression or sizing the next
optimisation:

    PYTHONPATH=src python benchmarks/profile_hotspots.py
    PYTHONPATH=src python benchmarks/profile_hotspots.py --batched
    PYTHONPATH=src python benchmarks/profile_hotspots.py \
        --lineup persistent --events 200000 --top 30

It profiles one full ``run_and_evaluate`` sweep (the unit every figure
benchmark repeats) and prints the top-N functions by cumulative time.
Comparing the default and ``--batched`` outputs shows exactly which
per-event loops the PR-4 batch paths removed — in per-event mode the
summaries' ``insert`` frames dominate; batched, the numpy kernels and
the remaining replay loops do.

``--kernel`` pins the LTC implementation for the sweep (the line-up
default otherwise).  For the columnar family (``columnar``/``auto``)
the script additionally instruments the four ingest phases — probe /
clean-hit / dirty-replay / harvest — and prints an exclusive-time
breakdown, which is how the segmented-replay work was sized: a chunk is
probed once, its clean prefix aggregates in bulk, the dirty tail runs
the peeling kernel, and the CLOCK harvest closes the chunk.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from typing import Any, Callable, Dict, List, Tuple


#: Columnar ingest phases, in chunk order: (label, method names).  The
#: harvest phase covers both CLOCK paths: slice sweeps
#: (``_harvest_segments``) and the segmented replay's scheduled sweeps
#: (``_sweep_slots``, nested inside dirty-replay).
_PHASES: "List[Tuple[str, Tuple[str, ...]]]" = [
    ("probe", ("_probe_chunk",)),
    ("clean-hit", ("_apply_hit_slots",)),
    ("dirty-replay", ("_replay_dirty",)),
    ("harvest", ("_harvest_segments", "_sweep_slots")),
]


class PhaseTimer:
    """Exclusive wall-time accumulator for nested phase methods.

    ``_replay_dirty`` calls ``_harvest_segments`` and ``_sweep_slots``
    for the sweeps it schedules itself, so naive per-method totals would
    double-count: a stack tracks the running child time and each phase
    records only the time not already attributed to a nested phase.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[List[Any]] = []
        self._restore: List[Tuple[type, str, Any]] = []

    def wrap(self, cls: type, method: str, phase: str) -> None:
        orig = getattr(cls, method)
        timer = self

        def wrapper(instance: Any, *args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            timer._stack.append([phase, 0.0])
            try:
                return orig(instance, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                _, child = timer._stack.pop()
                timer.totals[phase] = (
                    timer.totals.get(phase, 0.0) + elapsed - child
                )
                timer.calls[phase] = timer.calls.get(phase, 0) + 1
                if timer._stack:
                    timer._stack[-1][1] += elapsed

        setattr(cls, method, wrapper)
        self._restore.append((cls, method, orig))

    def unwrap(self) -> None:
        for cls, method, orig in self._restore:
            setattr(cls, method, orig)
        self._restore.clear()

    def report(self, out: Any) -> None:
        total = sum(self.totals.values())
        print("\ncolumnar ingest phases (exclusive time):", file=out)
        print(
            f"  {'phase':<14}{'calls':>10}{'seconds':>12}{'share':>9}",
            file=out,
        )
        for phase, _ in _PHASES:
            seconds = self.totals.get(phase, 0.0)
            calls = self.calls.get(phase, 0)
            share = seconds / total if total else 0.0
            print(
                f"  {phase:<14}{calls:>10}{seconds:>12.4f}{share:>8.1%}",
                file=out,
            )
        print(f"  {'total':<14}{'':>10}{total:>12.4f}", file=out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Profile one experiment sweep and print the hotspots."
    )
    parser.add_argument(
        "--lineup",
        choices=["frequent", "persistent", "significant"],
        default="frequent",
        help="which comparison line-up to sweep (default: frequent)",
    )
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--distinct", type=int, default=1_000)
    parser.add_argument("--skew", type=float, default=1.0)
    parser.add_argument("--periods", type=int, default=5)
    parser.add_argument("--memory-kb", type=float, default=8.0)
    parser.add_argument("-k", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--batched",
        action="store_true",
        help="drive the sweep through the insert_many fast paths",
    )
    parser.add_argument(
        "--kernel",
        choices=["reference", "fast", "columnar", "auto"],
        default=None,
        help=(
            "pin the LTC kernel for the sweep; columnar/auto also print "
            "the per-phase ingest breakdown (default: line-up default)"
        ),
    )
    parser.add_argument(
        "--top",
        type=int,
        default=20,
        help="functions to print, by cumulative time (default: 20)",
    )
    parser.add_argument(
        "--sort",
        choices=["cumulative", "tottime", "ncalls"],
        default="cumulative",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also dump raw pstats data to PATH (for snakeviz etc.)",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)

    from repro.experiments.configs import (
        default_algorithms_frequent,
        default_algorithms_persistent,
        default_algorithms_significant,
    )
    from repro.experiments.runner import run_and_evaluate
    from repro.metrics.memory import MemoryBudget, kb
    from repro.streams.ground_truth import GroundTruth
    from repro.streams.synthetic import zipf_stream

    stream = zipf_stream(
        num_events=args.events,
        num_distinct=args.distinct,
        skew=args.skew,
        num_periods=args.periods,
        seed=args.seed,
    )
    budget = MemoryBudget(kb(args.memory_kb))
    ltc_options = {} if args.kernel is None else {"kernel": args.kernel}
    if args.lineup == "frequent":
        factories = default_algorithms_frequent(
            budget, stream, args.k, **ltc_options
        )
    elif args.lineup == "persistent":
        factories = default_algorithms_persistent(
            budget, stream, args.k, **ltc_options
        )
    else:
        factories = default_algorithms_significant(
            budget, stream, args.k, 1.0, 1.0, **ltc_options
        )
    # Oracle outside the profile: it is setup, not sweep work.
    truth = GroundTruth(stream)

    mode = "batched" if args.batched else "per-event"
    print(
        f"profiling run_and_evaluate: {args.lineup} line-up, "
        f"{args.events} events ({mode})",
        file=sys.stderr,
    )
    timer: "PhaseTimer | None" = None
    if args.kernel in ("columnar", "auto"):
        from repro.core.columnar import ColumnarLTC

        timer = PhaseTimer()
        for phase, methods in _PHASES:
            for method in methods:
                timer.wrap(ColumnarLTC, method, phase)

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        results = run_and_evaluate(
            factories,
            stream,
            args.k,
            1.0,
            1.0,
            truth=truth,
            batched=args.batched,
        )
    finally:
        profiler.disable()
        if timer is not None:
            timer.unwrap()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if timer is not None:
        timer.report(sys.stdout)
    if args.out:
        stats.dump_stats(args.out)
        print(f"raw pstats written to {args.out}", file=sys.stderr)
    for result in results:
        print(
            f"# {result.name}: precision={result.precision:.3f} "
            f"are={result.are:.3g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
