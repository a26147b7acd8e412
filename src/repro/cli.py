"""Command-line driver: ``repro-ltc`` (or ``python -m repro``).

Subcommands:

* ``demo``           — run LTC on a dataset substitute and print the top-k;
* ``compare``        — head-to-head accuracy table against the baselines;
* ``throughput``     — relative insertion throughput of all algorithms;
* ``check-longtail`` — the §III-D distribution check that should precede
  enabling Long-tail Replacement (works on the built-in datasets or on a
  trace file via ``--trace``);
* ``figure``         — regenerate a paper figure by id (runs its benchmark);
* ``plan``           — recommend LTC memory for a target correct rate by
  inverting the §IV bound;
* ``stats``          — pretty-print a metrics snapshot written by
  ``--metrics-out`` (table, Prometheus exposition, or raw JSON).

Every run subcommand accepts ``--metrics-out PATH``: observability is
enabled for the run (:mod:`repro.obs`) and the registry snapshot is
written to ``PATH`` as JSON on the way out.  Summaries ingest each period
as one ``insert_many`` batch (``PeriodicStream.run``); ``throughput``
times that path beside the per-event ``insert`` replay.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.experiments.configs import (
    default_algorithms_frequent,
    default_algorithms_persistent,
    default_algorithms_significant,
    ltc_factory,
    make_dataset,
)
from repro.experiments.report import format_table
from repro.experiments.runner import run_and_evaluate
from repro.metrics.memory import MemoryBudget, kb
from repro.metrics.throughput import compare_modes
from repro.streams.ground_truth import GroundTruth


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        choices=["caida", "network", "social"],
        default="network",
        help="dataset substitute to run on",
    )
    parser.add_argument("--memory-kb", type=float, default=50.0)
    parser.add_argument("-k", type=int, default=100)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable observability (repro.obs) for this run and write the "
        "metrics snapshot to PATH as JSON (inspect it with `repro-ltc stats`)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ltc",
        description="LTC significant-items reproduction driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("demo", "compare", "throughput"):
        _add_common(sub.add_parser(name))
    longtail = sub.add_parser("check-longtail")
    _add_common(longtail)
    longtail.add_argument(
        "--trace",
        default=None,
        help="item-per-line trace file to check instead of a built-in dataset",
    )
    longtail.add_argument(
        "--sample-size",
        type=int,
        default=100_000,
        help="events sampled for the distribution check",
    )
    figure = sub.add_parser("figure")
    figure.add_argument(
        "id",
        help="figure id to regenerate, e.g. fig09, fig12, fig14, appx_zipf, "
        "throughput (runs the matching benchmark)",
    )
    plan = sub.add_parser("plan")
    plan.add_argument("--distinct", type=int, required=True)
    plan.add_argument("--events", type=int, required=True)
    plan.add_argument("--skew", type=float, default=1.0)
    plan.add_argument("-k", type=int, default=100)
    plan.add_argument("--target-rate", type=float, default=0.9)
    plan.add_argument("-d", "--bucket-width", type=int, default=8)
    serve = sub.add_parser("serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8421,
        help="listen port (0 = ephemeral; the bound port is printed as "
        "'serving on HOST:PORT' once ready)",
    )
    serve.add_argument("--num-buckets", type=int, default=1024)
    serve.add_argument("-d", "--bucket-width", type=int, default=8)
    serve.add_argument("--alpha", type=float, default=1.0)
    serve.add_argument("--beta", type=float, default=1.0)
    serve.add_argument("--items-per-period", type=int, default=4096)
    serve.add_argument(
        "--snapshot-dir",
        default=None,
        help="rotating checkpoint directory (repro.serve.snapshots); on "
        "startup the newest intact snapshot is restored, and a final one "
        "is written on clean shutdown",
    )
    serve.add_argument(
        "--snapshot-retain",
        type=int,
        default=3,
        help="snapshots kept in --snapshot-dir (older ones are pruned)",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        metavar="BATCHES",
        help="also checkpoint every N ingested batches (0 = only at "
        "shutdown)",
    )
    serve.add_argument(
        "--check-oracle",
        action="store_true",
        help="compare every served answer byte-for-byte against the "
        "full-scan oracle (debug/bench; costs a table scan per query)",
    )
    serve.add_argument(
        "--no-metrics",
        action="store_true",
        help="do not enable repro.obs (GET /metrics then returns 503)",
    )
    stats = sub.add_parser("stats")
    stats.add_argument(
        "snapshot",
        help="metrics snapshot JSON written by --metrics-out (or the obs "
        "bench's BENCH_obs_metrics.json)",
    )
    stats.add_argument(
        "--format",
        choices=["table", "prometheus", "json"],
        default="table",
        help="rendering: human table (default), Prometheus text "
        "exposition, or the raw JSON back out",
    )
    return parser


def _demo(args: argparse.Namespace) -> int:
    stream = make_dataset(args.dataset)
    budget = MemoryBudget(kb(args.memory_kb))
    ltc = ltc_factory(budget, stream, args.alpha, args.beta)()
    stream.run(ltc)
    truth = GroundTruth(stream)
    rows = []
    for report in ltc.top_k(args.k)[:20]:
        rows.append(
            (
                report.item,
                f"{report.significance:g}",
                f"{truth.significance(report.item, args.alpha, args.beta):g}",
                int(report.frequency),
                int(report.persistency),
            )
        )
    print(stream.stats)
    print(
        format_table(
            ["item", "est. sig", "real sig", "est. f", "est. p"],
            rows,
            title=f"LTC top items (alpha={args.alpha:g}, beta={args.beta:g})",
        )
    )
    return 0


def _line_up(args: argparse.Namespace, stream):
    budget = MemoryBudget(kb(args.memory_kb))
    if args.beta == 0:
        return default_algorithms_frequent(budget, stream, args.k)
    if args.alpha == 0:
        return default_algorithms_persistent(budget, stream, args.k)
    return default_algorithms_significant(budget, stream, args.k, args.alpha, args.beta)


def _compare(args: argparse.Namespace) -> int:
    stream = make_dataset(args.dataset)
    factories = _line_up(args, stream)
    results = run_and_evaluate(factories, stream, args.k, args.alpha, args.beta)
    print(stream.stats)
    print(
        format_table(
            ["algorithm", "precision", "ARE", "AAE"],
            [r.row() for r in results],
            title=(
                f"top-{args.k} significant items, "
                f"{args.memory_kb:g}KB, alpha={args.alpha:g}, beta={args.beta:g}"
            ),
        )
    )
    return 0


def _throughput(args: argparse.Namespace) -> int:
    stream = make_dataset(args.dataset)
    factories = _line_up(args, stream)
    rows = []
    for name, factory in factories.items():
        per_event, many = compare_modes(factory, stream, name=name, repeats=1)
        rows.append((name, f"{per_event.mops:.3f}", f"{many.mops:.3f}"))
    print(
        format_table(
            ["algorithm", "per-event Mops", "batched Mops"],
            rows,
            title=str(stream.stats),
        )
    )
    return 0


def _check_longtail(args: argparse.Namespace) -> int:
    from repro.analysis.distribution import is_long_tailed, sample_frequencies
    from repro.streams.io import load_items

    if args.trace:
        stream = load_items(args.trace, num_periods=1)
        label = args.trace
    else:
        stream = make_dataset(args.dataset)
        label = stream.name
    freqs = sample_frequencies(stream.events, sample_size=args.sample_size)
    report = is_long_tailed(freqs)
    print(f"{label}: {report}")
    if report.long_tailed:
        print("Long-tail Replacement is appropriate for this workload.")
        return 0
    print(
        "Distribution is not long-tailed; consider running LTC with "
        "replacement_policy='one' (paper §III-D, Shortcoming)."
    )
    return 1


def _figure(args: argparse.Namespace) -> int:
    """Regenerate a paper figure by running its benchmark via pytest."""
    import glob
    import os

    import pytest

    root = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
    root = os.path.abspath(root)
    pattern = os.path.join(root, f"bench_{args.id}*.py")
    matches = sorted(glob.glob(pattern))
    if not matches:
        available = sorted(
            os.path.basename(p)[len("bench_") : -len(".py")]
            for p in glob.glob(os.path.join(root, "bench_*.py"))
        )
        print(f"no benchmark matches {args.id!r}; available: {available}")
        return 2
    return pytest.main(["-q", "--benchmark-only", "-s", *matches])


def _plan(args: argparse.Namespace) -> int:
    """Recommend LTC memory for a target correct rate (§IV bound)."""
    from repro.analysis.planner import recommend_memory

    try:
        plan = recommend_memory(
            num_distinct=args.distinct,
            stream_length=args.events,
            skew=args.skew,
            k=args.k,
            target_rate=args.target_rate,
            bucket_width=args.bucket_width,
        )
    except ValueError as exc:
        print(f"planning failed: {exc}")
        return 1
    print(plan)
    print(
        "Build it with: LTC.from_memory(MemoryBudget("
        f"{plan.total_bytes}), items_per_period=<n>, "
        f"bucket_width={plan.bucket_width}, ...)"
    )
    return 0


def _stats(args: argparse.Namespace) -> int:
    """Pretty-print a metrics snapshot written by ``--metrics-out``."""
    import json

    try:
        snapshot = obs.export.load_json_snapshot(args.snapshot)
    except (OSError, ValueError) as exc:
        print(f"cannot read snapshot: {exc}")
        return 1
    if args.format == "json":
        print(json.dumps(snapshot, indent=2))
    elif args.format == "prometheus":
        print(obs.export.prometheus_text(snapshot), end="")
    else:
        rows = obs.export.snapshot_rows(snapshot)
        generated = snapshot.get("generated_at", "unknown time")
        if not rows:
            print(f"empty snapshot ({generated})")
            return 0
        print(
            format_table(
                ["metric", "type", "value"],
                rows,
                title=f"metrics snapshot ({generated})",
            )
        )
    return 0


def _serve(args: argparse.Namespace) -> int:
    """Run the serving tier (repro.serve) until SIGTERM/SIGINT."""
    import asyncio

    from repro.core.columnar import ColumnarLTC
    from repro.core.config import LTCConfig
    from repro.core.kernels import build_ltc
    from repro.serve.server import ServingApp, run_app
    from repro.serve.snapshots import SnapshotStore

    if not args.no_metrics and not obs.is_enabled():
        obs.enable()
    store = (
        SnapshotStore(args.snapshot_dir, retain=args.snapshot_retain)
        if args.snapshot_dir
        else None
    )
    ltc = store.restore(cls=ColumnarLTC) if store is not None else None
    if ltc is not None:
        print(f"restored {ltc.total_cells}-cell structure from snapshot", flush=True)
    else:
        ltc = build_ltc(
            LTCConfig(
                num_buckets=args.num_buckets,
                bucket_width=args.bucket_width,
                alpha=args.alpha,
                beta=args.beta,
                items_per_period=args.items_per_period,
            )
        )
    app = ServingApp(
        ltc,
        snapshots=store,
        snapshot_every=args.snapshot_every,
        check_oracle=args.check_oracle,
    )

    def _ready(host: str, port: int) -> None:
        print(f"serving on {host}:{port}", flush=True)

    try:
        asyncio.run(run_app(app, args.host, args.port, ready=_ready))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C without handler
        pass
    print(
        f"shutdown: ingested={app.ingested} snapshots={app.snapshots_written}",
        flush=True,
    )
    return 0


_COMMANDS = {
    "demo": _demo,
    "compare": _compare,
    "throughput": _throughput,
    "check-longtail": _check_longtail,
    "figure": _figure,
    "plan": _plan,
    "serve": _serve,
    "stats": _stats,
}


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        obs.enable()
    try:
        return _COMMANDS[args.command](args)
    finally:
        if metrics_out:
            obs.export.write_json_snapshot(obs.registry(), metrics_out)
            obs.disable()


if __name__ == "__main__":
    sys.exit(main())
