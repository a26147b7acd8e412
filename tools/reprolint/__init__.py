"""reprolint — repo-specific static analysis for the LTC reproduction.

Generic linters (ruff, mypy) cannot express the contracts this codebase
actually lives by: replay-identical batched ingestion, the
capture-at-construction observability pattern,
determinism of the core structures, versioned binary checkpoints, the
CellListener hooks contract, event-loop safety in the serving tier, and
kernel batch parity.  ``reprolint`` is a
two-pass static analysis — a cross-module symbol index and call graph
(:mod:`tools.reprolint.symbols`), then rule families over per-function
CFG/dataflow summaries (:mod:`tools.reprolint.cfg`,
:mod:`tools.reprolint.rules`) — that machine-checks those contracts.

Run it from the repository root::

    python -m tools.reprolint src/repro           # lint the library
    python -m tools.reprolint src/repro tools     # library + tooling
    python -m tools.reprolint --rules 'R00*'      # glob rule selection
    python -m tools.reprolint --format sarif --output reprolint.sarif

Rules (details in each :mod:`tools.reprolint.rules` module):

* **R001** — batched-ingestion pairing: a class defining ``insert_many``
  must have a concrete ``insert`` (own or inherited) that takes the same
  parameters besides the item, and every ``StreamSummary`` subclass that
  overrides ``insert`` must also carry a batched ``insert_many``
  override somewhere below the base class.
* **R002** — observability hot-path discipline: methods on the hot path
  (``insert*``, ``evict*``, ``decrement*``, ``update*``) must use the
  capture-at-construction registry with a single ``is None`` guard —
  never call ``obs.registry()`` / ``obs.is_enabled()`` or register
  metrics inline.
* **R003** — determinism: no unseeded ``random.*`` module calls,
  ``time.time()`` or ``os.urandom()`` inside ``core/``, ``sketches/``,
  ``summaries/`` or ``membership/`` (replay identity depends on it).
* **R004** — retired: it required guarded numpy imports while numpy
  was optional; numpy is now a runtime dependency.
* **R005** — versioned checkpoints: a module defining both ``to_bytes``
  and ``from_bytes`` must reference a shared module-level format-version
  constant (name containing ``MAGIC``/``VERSION``/``FORMAT``) from both.
* **R006** — hook discipline: every cell-state mutation in a hooked
  kernel (inventory in ``core/hooks.py``) is post-dominated by a
  ``CellListener`` notification on all paths, or carries a
  ``# reprolint: detached — <why>`` waiver.
* **R007** — async safety: no blocking calls (``time.sleep``, sync file
  I/O, ``subprocess``, unbounded ``queue.get``) reachable from serve
  coroutines through the call graph; waive with
  ``# reprolint: blocking-ok — <why>``.
* **R008** — retired: it checked the shared-memory batch ring's segment
  lifecycle, and no shared-memory segment exists any more.
* **R009** — kernel parity: a class defining both ``insert`` and
  ``insert_many``/``update_many`` must touch the same state attributes
  in both (strict writes vs. strict∪may writes); waive with
  ``# reprolint: parity-ok — <why>``.

Exit status: 0 when clean, 1 when any diagnostic fired, 2 on usage or
parse errors.
"""

from __future__ import annotations

from tools.reprolint.diagnostics import Diagnostic
from tools.reprolint.engine import lint_paths

__all__ = ["Diagnostic", "lint_paths", "main"]


def _expand_rule_patterns(spec: str) -> "frozenset[str] | None":
    """Expand a comma-separated ``--rules`` spec (ids or globs).

    Returns ``None`` for "all rules"; raises ``ValueError`` when a
    pattern matches no known rule.
    """
    import fnmatch

    from tools.reprolint.rules import RULES

    patterns = [p.strip().upper() for p in spec.split(",") if p.strip()]
    if not patterns:
        return None
    selected = set()
    for pattern in patterns:
        matched = fnmatch.filter(RULES, pattern)
        if not matched:
            raise ValueError(
                f"--rules pattern {pattern!r} matches no known rule "
                f"(known: {', '.join(RULES)})"
            )
        selected.update(matched)
    return frozenset(selected)


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit status."""
    import argparse

    from tools.reprolint.formats import RENDERERS

    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="Repo-specific static analysis for the LTC reproduction.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="Files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rules",
        default="",
        help="Comma-separated rule ids or globs, e.g. R003 or 'R00*' "
        "(default: all)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=sorted(RENDERERS),
        default="text",
        help="Output format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="Write the report to this file instead of stdout "
        "(a text summary still goes to stdout)",
    )
    args = parser.parse_args(argv)
    try:
        only = _expand_rule_patterns(args.rules)
    except ValueError as exc:
        print(f"reprolint: error: {exc}")
        return 2
    try:
        diagnostics = lint_paths(args.paths, only=only)
    except (OSError, SyntaxError) as exc:
        print(f"reprolint: error: {exc}")
        return 2
    report = RENDERERS[args.fmt](diagnostics)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        if diagnostics:
            print(f"reprolint: {len(diagnostics)} violation(s)")
        else:
            print("reprolint: clean")
    else:
        print(report)
    return 1 if diagnostics else 0
