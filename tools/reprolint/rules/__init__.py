"""The reprolint rule catalog.

Each rule lives in its own module and exposes ``RULE_ID`` plus a
``check(index)`` entry point taking the pass-1
:class:`~tools.reprolint.symbols.SymbolIndex` and returning diagnostics
for the whole linted tree.  :data:`RULES` is the registry the engine
iterates; :data:`SUMMARIES` feeds ``--format sarif`` rule metadata.

This package also re-exports ``Diagnostic`` and ``lint_paths`` so the
long-standing import path ``tools.reprolint.rules`` keeps working now
that the implementation is split across modules (``lint_paths`` resolves
lazily to avoid a cycle with the engine).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List

from tools.reprolint.diagnostics import Diagnostic

if TYPE_CHECKING:
    from tools.reprolint.symbols import SymbolIndex

__all__ = ["Diagnostic", "RULES", "SUMMARIES", "lint_paths", "rule_checks"]

#: Rule id -> one-line summary (SARIF shortDescription, docs).
SUMMARIES: Dict[str, str] = {
    "R001": "insert_many requires a concrete per-event insert twin "
    "with the same parameters besides the batch",
    "R002": "hot paths use the capture-at-construction observability "
    "pattern with a single is-None guard",
    "R003": "no unseeded entropy or wall-clock reads in the "
    "deterministic core",
    "R005": "to_bytes/from_bytes pairs share a format-version constant",
    "R006": "cell-state mutations in hooked kernels must be "
    "post-dominated by a CellListener notification",
    "R007": "no blocking calls reachable from serve-tier coroutines",
    "R009": "batched ingestion touches the same state attributes as the "
    "per-event path",
}


def rule_checks() -> Dict[str, Callable[["SymbolIndex"], List[Diagnostic]]]:
    """The registry, imported lazily so rule modules can use the
    package's re-exports without a cycle."""
    from tools.reprolint.rules import (
        async_safety,
        determinism,
        hooks,
        obs_discipline,
        pairing,
        parity,
        serialization,
    )

    modules = (
        pairing,
        obs_discipline,
        determinism,
        serialization,
        hooks,
        async_safety,
        parity,
    )
    return {m.RULE_ID: m.check for m in modules}


#: Stable, sorted rule ids (the registry's keys).
RULES = tuple(sorted(SUMMARIES))


def __getattr__(name: str) -> Any:
    if name == "lint_paths":
        from tools.reprolint.engine import lint_paths

        return lint_paths
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
