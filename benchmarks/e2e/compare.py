"""Compare result files of a parent commit and a change, metric by metric.

Usage::

    python -m benchmarks.e2e.compare --parent P1.json P2.json ... \\
        --change C1.json C2.json ...

Each file is a ``results/result-*.json`` written by one run of the
benchmark.  The i-th parent and i-th change form a pair; run them
alternately (parent first, then change first, ...) and make at least 10
pairs.  One row per (metric, workload) gives both sides' quartiles, the
share of pairs the change won (ties count for neither) and a verdict:

* ``improved`` — the change won at least 9 in 10 pairs and the medians
  differ by more than the parent's interquartile distance;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — not regressed, but the parent's own spread is wider
  than the bound and not every change run beats every parent run;
* ``unchanged`` — otherwise.

A last row per workload compares the failed share of attempts; a gain
does not count when the change fails more.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e.stats import quartiles, spread

ROOT = pathlib.Path(__file__).resolve().parents[2]
MIN_PAIRS = 10


def win_fraction(parent: Sequence[float], change: Sequence[float], higher_better: bool) -> float:
    """Share of pairs the change won; ties count for neither side."""
    wins = sum((c > p) if higher_better else (c < p) for p, c in zip(parent, change))
    return wins / max(1, min(len(parent), len(change)))


def verdict(parent: Sequence[float], change: Sequence[float], higher_better: bool,
            bound: float) -> str:
    """The verdict for one (metric, workload) row; see the module docstring."""
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = (cmed - pmed) if higher_better else (pmed - cmed)
    if win_fraction(parent, change, higher_better) >= 0.9 and gain > p3 - p1:
        return "improved"
    if pmed and -gain / abs(pmed) > bound:
        return "regressed"
    if higher_better:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if spread(parent) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def _load(paths: Sequence[str]) -> List[Dict[str, Any]]:
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    return docs


def rows(parent: List[Dict[str, Any]], change: List[Dict[str, Any]],
         bench: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (metric, workload) plus one failed-share row per workload."""
    out: List[Dict[str, Any]] = []
    workloads = [w["name"] for w in bench["workloads"]]
    for name in workloads:
        ps = [d["workloads"][name] for d in parent if name in d["workloads"]]
        cs = [d["workloads"][name] for d in change if name in d["workloads"]]
        if not ps or not cs:
            continue
        for metric in bench["end_to_end"]:
            key, higher = metric["name"], metric["better"] == "higher"
            pv = [r["metrics"][key] for r in ps]
            cv = [r["metrics"][key] for r in cs]
            out.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "parent": quartiles(pv), "change": quartiles(cv),
                "win": win_fraction(pv, cv, higher), "bound": metric["bound"],
                "verdict": verdict(pv, cv, higher, metric["bound"]),
            })
        pf = sum(r["failed"] for r in ps) / max(1, sum(r["attempted"] for r in ps))
        cf = sum(r["failed"] for r in cs) / max(1, sum(r["attempted"] for r in cs))
        out.append({
            "workload": name, "metric": "failed_share", "parent_failed": pf,
            "change_failed": cf, "verdict": "more failures" if cf > pf else "ok",
        })
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.compare")
    parser.add_argument("--parent", nargs="+", required=True, help="parent result files")
    parser.add_argument("--change", nargs="+", required=True, help="change result files")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    pairs = min(len(args.parent), len(args.change))
    if pairs < MIN_PAIRS:
        print(f"warning: {pairs} pairs; at least {MIN_PAIRS} are needed for a verdict")
    table = rows(_load(args.parent), _load(args.change), bench)
    for row in table:
        if row["metric"] == "failed_share":
            print(f"{row['workload']:12s} {'failed_share':18s} parent {row['parent_failed']:.4f} "
                  f"change {row['change_failed']:.4f}  {row['verdict']}")
            continue
        p, c = row["parent"], row["change"]
        print(f"{row['workload']:12s} {row['metric']:18s} "
              f"parent {p[1]:.5g} [{p[0]:.5g}, {p[2]:.5g}]  "
              f"change {c[1]:.5g} [{c[0]:.5g}, {c[2]:.5g}] {row['unit']}  "
              f"win {row['win']:.2f}  bound {row['bound']:.2f}  {row['verdict']}")
    return 1 if any(r["verdict"] in ("regressed", "more failures") for r in table) else 0


if __name__ == "__main__":
    sys.exit(main())
