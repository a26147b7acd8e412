"""cProfile driver for the experiment sweeps: where do the cycles go?

Not a pytest benchmark (no ``bench_`` prefix, so the suite never collects
it) — run it by hand when chasing a regression or sizing the next
optimisation:

    PYTHONPATH=src python benchmarks/profile_hotspots.py
    PYTHONPATH=src python benchmarks/profile_hotspots.py --batched
    PYTHONPATH=src python benchmarks/profile_hotspots.py \
        --lineup persistent --events 200000 --top 30

It profiles one ingest sweep over a comparison line-up — every summary
fed the whole stream through ``repro.metrics.throughput.measure_throughput``
— and prints the top-N functions by cumulative time.  By default each
arrival goes through ``insert`` (the per-event replay); ``--batched``
feeds each period to ``insert_many`` as ``PeriodicStream.run`` does.
Comparing the two outputs shows exactly which per-event loops the batch
paths remove — per event the summaries' ``insert`` frames dominate;
batched, the numpy kernels and the remaining replay loops do.

``--kernel`` pins the LTC implementation for the sweep (the line-up
default otherwise).  For ``--kernel columnar`` the script additionally
instruments the two steps of a period — the batch, whose keys are
checked and applied in one call into the compiled kernel, and the
period's end, whose sweep runs in the kernel too — and prints an
exclusive-time breakdown.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from typing import Any, Callable, Dict, List, Tuple


#: Columnar period steps, in call order: (label, method names).  Each
#: is one compiled-kernel call plus the counters and listener around
#: it; ``insert_many``'s includes the key checks.
_PHASES: "List[Tuple[str, Tuple[str, ...]]]" = [
    ("batch", ("insert_many",)),
    ("end_period", ("end_period",)),
]


class PhaseTimer:
    """Exclusive wall-time accumulator for nested phase methods.

    ``insert_many`` calls the other phases' methods, so naive per-method
    totals would double-count: a stack tracks the running child time and
    each phase records only the time not already attributed to a nested
    phase.
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
        print("\ncolumnar period steps (exclusive time):", file=out)
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
        help="feed each period to insert_many (PeriodicStream.run) instead "
        "of replaying it one insert at a time",
    )
    parser.add_argument(
        "--kernel",
        choices=["reference", "columnar"],
        default=None,
        help=(
            "pin the LTC kernel for the sweep; columnar also prints "
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
    from repro.metrics.memory import MemoryBudget, kb
    from repro.metrics.throughput import measure_throughput
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
    mode = "batched" if args.batched else "per-event"
    print(
        f"profiling ingest: {args.lineup} line-up, "
        f"{args.events} events ({mode})",
        file=sys.stderr,
    )
    timer: "PhaseTimer | None" = None
    if args.kernel == "columnar":
        from repro.core.columnar import ColumnarLTC

        timer = PhaseTimer()
        for phase, methods in _PHASES:
            for method in methods:
                timer.wrap(ColumnarLTC, method, phase)

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        results = [
            measure_throughput(factory, stream, name=name, batched=args.batched)
            for name, factory in factories.items()
        ]
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
        print(f"# {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
