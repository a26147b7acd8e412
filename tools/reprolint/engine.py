"""The two-pass lint driver.

Pass 1 parses every file under the given paths and builds one
:class:`~tools.reprolint.symbols.SymbolIndex` — the cross-module class
index, function table, import maps, attribute types, and call graph.
Pass 2 runs every selected rule over the index; intra-file rules walk
their trees, the dataflow rules (R006, R007, R009) pull per-function CFG and
write-set summaries on demand.

``lint_paths`` is the library entry point (the CLI in
``tools/reprolint/__init__`` wraps it with formats and rule globs).
"""

from __future__ import annotations

import ast
import os
from typing import FrozenSet, List, Optional, Sequence, Tuple

from tools.reprolint.diagnostics import Diagnostic
from tools.reprolint.rules import rule_checks
from tools.reprolint.symbols import SymbolIndex


def _iter_python_files(paths: Sequence[str]) -> List[str]:
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d != "__pycache__" and not d.startswith(".")
                )
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        elif path.endswith(".py"):
            files.append(path)
        else:
            raise OSError(f"not a Python file or directory: {path}")
    return files


def build_index(paths: Sequence[str]) -> SymbolIndex:
    """Pass 1: parse and index every Python file under ``paths``."""
    parsed: List[Tuple[str, ast.Module, str]] = []
    for path in _iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        parsed.append((path, ast.parse(source, filename=path), source))
    return SymbolIndex(parsed)


def lint_paths(
    paths: Sequence[str], only: Optional[FrozenSet[str]] = None
) -> List[Diagnostic]:
    """Lint files/directories; returns diagnostics sorted by location."""
    index = build_index(paths)
    checks = rule_checks()
    out: List[Diagnostic] = []
    for rule_id in sorted(checks):
        if only is None or rule_id in only:
            out.extend(checks[rule_id](index))
    out.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return out
