"""Command line: run workloads, print metrics, gate correctness.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace`` the per-layer ones.  The exit code is non-zero when a
correctness gate fails.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import pathlib
import signal
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[2]
CONFIG_PATH = pathlib.Path(__file__).with_name("config.json")


def load_config(smoke: bool = False) -> Dict[str, Any]:
    """``config.json``, with the toy-size overrides applied for ``--smoke``."""
    with open(CONFIG_PATH) as fh:
        config: Dict[str, Any] = json.load(fh)
    if smoke:
        toy = config["smoke"]
        config["run_seconds"] = toy["run_seconds"]
        config["setup_repeats"] = toy["setup_repeats"]
        for name, override in toy["overrides"].items():
            wl = config["workloads"][name]
            for key, value in override.items():
                if isinstance(value, dict):
                    wl[key] = dict(wl[key], **value)
                else:
                    wl[key] = value
    return config


def run_workload(name: str, config: Dict[str, Any], seed: int, seconds: float,
                 trace: bool, out_dir: str) -> Dict[str, Any]:
    from benchmarks.e2e import library, serving

    wl = copy.deepcopy(config["workloads"][name])
    runner = serving.run if wl["kind"] == "serve" else library.run
    return runner(name, wl, seed, seconds, trace, out_dir, str(ROOT), config["setup_repeats"])


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: config run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run traced and report per-layer metrics")
    parser.add_argument("--out", default=str(ROOT / ".e2e_out"),
                        help="directory for trace-<workload>.json and results")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, every gate")
    args = parser.parse_args(argv)
    config = load_config(args.smoke)
    unknown = set(args.workload or ()) - set(config["workloads"])
    if unknown:
        parser.error(f"unknown workload(s): {sorted(unknown)}")
    # A terminated run still stops the server or child it started.
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _run(args, config)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run(args: argparse.Namespace, config: Dict[str, Any]) -> int:
    names = args.workload or list(config["workloads"])
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    e2e = config["end_to_end"]
    correct, attempted, failed = True, 0, 0
    final: Dict[str, Dict[str, Any]] = {}
    results: Dict[str, Any] = {}
    for name in names:
        res = run_workload(name, config, args.seed, seconds, False, args.out)
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        for err in res["errors"]:
            print(f"{name} GATE FAILED {err}")
        for metric in e2e:
            print(f"{name} {metric['name']} {_fmt(res['metrics'][metric['name']])} {metric['unit']}")
        for key, (value, unit) in res["named"].items():
            print(f"{name} {key} {_fmt(value)} {unit}")
        record = {key: res[key] for key in ("metrics", "named", "details", "attempted", "failed", "correct")}
        source = {m["name"]: (res["metrics"][m["name"]], m["unit"]) for m in e2e}
        if args.trace:
            traced = run_workload(name, config, args.seed, seconds, True, args.out)
            correct = correct and traced["correct"]
            layer = dict(traced["per_layer"])
            for metric in e2e:
                # Cost ratio: above 1 means tracing made the metric worse.
                base, value = res["metrics"][metric["name"]], traced["metrics"][metric["name"]]
                ratio = value / base if metric["better"] == "lower" else base / value
                layer[f"bench.trace_overhead.{metric['name']}"] = (ratio, "ratio")
            for key, (value, unit) in sorted(layer.items()):
                print(f"{name} {key} {_fmt(value)} {unit}")
            if name.startswith("serve-"):
                frac = layer["trace.attributed_frac"][0]
                print(f"{name} attribution {'ok' if frac >= 0.9 else 'LOW'} ({frac:.3f}, limit 0.9)")
            with open(os.path.join(args.out, f"trace-{name}.json"), "w") as fh:
                json.dump({"workload": name, "seed": args.seed, "per_layer": layer,
                           "spans": traced["spans"]}, fh)
            record["per_layer"] = layer
            source = {m["name"]: layer[m["name"]] for m in config["per_layer"]}
        results[name] = record
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, (value, unit) in source.items():
            if not math.isfinite(value):
                print(f"{name} GATE FAILED {key} is {value}")
                correct, value = False, 0.0
            final[prefix + key] = {"value": value, "unit": unit}

    results_dir = os.path.join(args.out, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = f"{args.seed}-{'trace' if args.trace else 'plain'}-{time.time_ns()}"
    with open(os.path.join(results_dir, f"result-{stamp}.json"), "w") as fh:
        json.dump({"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
                   "workloads": results}, fh)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0 if correct else 1
