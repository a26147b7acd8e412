"""R006 — hook discipline: cell-state mutations notify the listener.

The serving tier's O(1) index mirrors the kernels' cell arrays through
:class:`~repro.core.hooks.CellListener` notifications.  The contract
(``core/hooks.py``) says a notification fires *after* the mutation, in
the same call — so every write to a cell-state attribute inside a hooked
kernel must be **post-dominated by a notification on every path** to the
function's exit.

What counts, statically:

* The mutation-site inventory is read from the linted tree's
  ``core/hooks.py`` (``HOOKED_STRUCTURES`` / ``CELL_STATE_ATTRS`` /
  ``NOTIFY_METHODS``); compiled-in defaults mirror it so fixture trees
  without a hooks module still exercise the rule.
* Scope: methods of hooked classes (and their subclasses) in ``core/``
  modules — writes to ``self.<attr>`` and to local aliases of it
  (``freqs = self._freqs; freqs[j] += 1``) — plus module-level ``core/``
  functions writing the inventory attrs on any object (restore/merge
  helpers).  ``__init__`` is exempt: a listener cannot be attached
  before construction finishes.
* Coverage: a direct notification call (``listener.cell_touched(...)``),
  a listener guard (``if <listener> is not None:`` — the notify lives
  inside), or a call to another hooked-kernel method that notifies
  (computed as a fixpoint, so ``insert`` covering via ``_place`` works),
  including through bound-method aliases (``place = self._place``).
* Detached regions are exempt: the body of ``if <listener> is None:``,
  the ``else`` of an ``is not None`` guard, and everything after an
  ``is not None`` guard whose body terminates (the delegate-then-return
  pattern) — those statements only run with no listener attached.
* All-paths analysis, not single post-dominator: greatest-fixpoint
  must-coverage over the CFG with the exceptional exit vacuously safe
  (the contract constrains settled states).

Waiver: ``# reprolint: detached — <why>`` on the write, the line above,
or the enclosing ``def`` line (function-scoped, for restore paths that
rebuild cells before any listener can observe them).
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from tools.reprolint.cfg import build_cfg, covered_by, node_covered
from tools.reprolint.diagnostics import Diagnostic
from tools.reprolint.symbols import FunctionInfo, SymbolIndex

RULE_ID = "R006"
TAG = "detached"

#: Fallback inventory, mirroring ``src/repro/core/hooks.py`` — used when
#: the linted tree has no hooks module (rule fixtures).
DEFAULT_HOOKED = ("LTC", "ColumnarLTC")
DEFAULT_ATTRS = (
    "_keys",
    "_freqs",
    "_counters",
)
DEFAULT_NOTIFY = ("cell_touched", "cells_touched", "cells_reset")

_LISTENER_ATTR = "_cell_listener"


def _load_inventory(
    index: SymbolIndex,
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
    """Parse the inventory tuples out of the linted ``core/hooks.py``."""
    for path in index.paths:
        parts = os.path.normpath(path).split(os.sep)
        if len(parts) < 2 or parts[-1] != "hooks.py" or parts[-2] != "core":
            continue
        found: Dict[str, Tuple[str, ...]] = {}
        for node in index.trees[path].body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if target.id in (
                "HOOKED_STRUCTURES",
                "CELL_STATE_ATTRS",
                "NOTIFY_METHODS",
            ) and isinstance(node.value, (ast.Tuple, ast.List)):
                found[target.id] = tuple(
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                )
        if len(found) == 3:
            return (
                found["HOOKED_STRUCTURES"],
                found["CELL_STATE_ATTRS"],
                found["NOTIFY_METHODS"],
            )
    return DEFAULT_HOOKED, DEFAULT_ATTRS, DEFAULT_NOTIFY


def _in_core(path: str) -> bool:
    return "core" in os.path.normpath(path).split(os.sep)[:-1]


def _is_listener_expr(node: ast.expr, listener_locals: Set[str]) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == _LISTENER_ATTR:
        return True
    return isinstance(node, ast.Name) and node.id in listener_locals


def _listener_guard(
    test: ast.expr, listener_locals: Set[str]
) -> Optional[str]:
    """Classify ``test`` as a listener guard: ``"none"``/``"notnone"``."""
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
    ):
        return None
    operands = (test.left, test.comparators[0])
    if any(_is_listener_expr(op, listener_locals) for op in operands) and any(
        isinstance(op, ast.Constant) and op.value is None for op in operands
    ):
        return "notnone" if isinstance(test.ops[0], ast.IsNot) else "none"
    return None


def _listener_locals(fn: FunctionInfo) -> Set[str]:
    """Locals assigned from ``<obj>._cell_listener``."""
    out: Set[str] = set()
    for sub in ast.walk(fn.node):
        if (
            isinstance(sub, ast.Assign)
            and len(sub.targets) == 1
            and isinstance(sub.targets[0], ast.Name)
            and isinstance(sub.value, ast.Attribute)
            and sub.value.attr == _LISTENER_ATTR
        ):
            out.add(sub.targets[0].id)
    return out


def _mark_subtree(stmt: ast.stmt, detached: Set[int]) -> None:
    for sub in ast.walk(stmt):
        if isinstance(sub, ast.stmt):
            detached.add(id(sub))


def _terminates(body: Sequence[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Break, ast.Continue)
    )


def _collect_detached(
    body: Sequence[ast.stmt], listener_locals: Set[str], detached: Set[int]
) -> None:
    """Mark statements that only execute with no listener attached."""
    after_attached_exit = False
    for stmt in body:
        if after_attached_exit:
            _mark_subtree(stmt, detached)
            continue
        if isinstance(stmt, ast.If):
            kind = _listener_guard(stmt.test, listener_locals)
            if kind == "none":
                for sub in stmt.body:
                    _mark_subtree(sub, detached)
                _collect_detached(stmt.orelse, listener_locals, detached)
                continue
            if kind == "notnone":
                _collect_detached(stmt.body, listener_locals, detached)
                for sub in stmt.orelse:
                    _mark_subtree(sub, detached)
                if _terminates(stmt.body):
                    after_attached_exit = True
                continue
        for field in ("body", "orelse", "finalbody"):
            sub_body = getattr(stmt, field, None)
            if sub_body:
                _collect_detached(sub_body, listener_locals, detached)
        for handler in getattr(stmt, "handlers", []) or []:
            _collect_detached(handler.body, listener_locals, detached)


def _header_exprs(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions evaluated *at* a statement's own CFG node (for
    compound statements, the test/iterable — not the nested bodies,
    which are their own nodes)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    return [
        child for child in ast.iter_child_nodes(stmt)
        if isinstance(child, ast.expr)
    ]


def _notifier_methods(
    index: SymbolIndex,
    hooked_classes: Set[str],
    notify: Tuple[str, ...],
) -> Set[str]:
    """Method names (on hooked classes) that notify on some path —
    directly, via a listener guard, or transitively through self-calls
    (greatest useful fixpoint over names; names are unambiguous enough
    inside the kernel family)."""
    methods: Dict[str, List[FunctionInfo]] = {}
    for cls in hooked_classes:
        for name, info in index.methods.get(cls, {}).items():
            methods.setdefault(name, []).append(info)

    def direct(fn: FunctionInfo) -> bool:
        listener_locals = _listener_locals(fn)
        for sub in ast.walk(fn.node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in notify
            ):
                return True
            if isinstance(sub, ast.If) and _listener_guard(
                sub.test, listener_locals
            ):
                return True
        return False

    notifiers: Set[str] = {
        name for name, infos in methods.items() if any(map(direct, infos))
    }
    changed = True
    while changed:
        changed = False
        for name, infos in methods.items():
            if name in notifiers:
                continue
            for fn in infos:
                aliases = index.bound_method_aliases(fn)
                for sub in ast.walk(fn.node):
                    if not isinstance(sub, ast.Call):
                        continue
                    called = _called_method_name(sub, aliases)
                    if called in notifiers:
                        notifiers.add(name)
                        changed = True
                        break
                if name in notifiers:
                    break
    return notifiers


def _called_method_name(
    call: ast.Call, aliases: Dict[str, str]
) -> Optional[str]:
    """Method name a call targets via self/super/Class/bound alias."""
    func = call.func
    if isinstance(func, ast.Name):
        return aliases.get(func.id)
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name) and base.id in ("self", "cls"):
            return func.attr
        if isinstance(base, ast.Name) and base.id[:1].isupper():
            return func.attr  # ClassName.m(self, ...)
        if (
            isinstance(base, ast.Call)
            and isinstance(base.func, ast.Name)
            and base.func.id == "super"
        ):
            return func.attr
    return None


def _data_aliases(
    fn: FunctionInfo, attrs: Set[str]
) -> Dict[str, str]:
    """Locals aliasing ``<obj>.<attr>`` for an inventory attr."""
    out: Dict[str, str] = {}
    for sub in ast.walk(fn.node):
        if (
            isinstance(sub, ast.Assign)
            and len(sub.targets) == 1
            and isinstance(sub.targets[0], ast.Name)
            and isinstance(sub.value, ast.Attribute)
            and sub.value.attr in attrs
        ):
            out[sub.targets[0].id] = sub.value.attr
    return out


def _written_inventory_attrs(
    stmt: ast.stmt,
    attrs: Set[str],
    aliases: Dict[str, str],
    self_only: bool,
) -> List[str]:
    """Inventory attrs this (simple) statement writes."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    out: List[str] = []

    def visit(target: ast.expr) -> None:
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                visit(elt)
            return
        if isinstance(target, ast.Subscript):
            value = target.value
            if isinstance(value, ast.Name) and value.id in aliases:
                out.append(aliases[value.id])
                return
            target = value
        if isinstance(target, ast.Attribute) and target.attr in attrs:
            if self_only and not (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return
            out.append(target.attr)

    for target in targets:
        visit(target)
    return out


def _is_coverage_stmt(
    stmt: ast.stmt,
    notify: Tuple[str, ...],
    notifiers: Set[str],
    aliases: Dict[str, str],
    listener_locals: Set[str],
) -> bool:
    for expr in _header_exprs(stmt):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                if (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in notify
                ):
                    return True
                called = _called_method_name(sub, aliases)
                if called is not None and called in notifiers:
                    return True
            elif isinstance(sub, ast.Compare) and _listener_guard(
                sub, listener_locals
            ):
                return True
    return False


def _check_function(
    index: SymbolIndex,
    fn: FunctionInfo,
    attrs: Set[str],
    notify: Tuple[str, ...],
    notifiers: Set[str],
) -> List[Diagnostic]:
    listener_locals = _listener_locals(fn)
    data_aliases = _data_aliases(fn, attrs)
    method_aliases = index.bound_method_aliases(fn)
    self_only = fn.cls is not None

    detached: Set[int] = set()
    _collect_detached(fn.node.body, listener_locals, detached)

    cfg = build_cfg(fn.node)
    coverage: Set[int] = set()
    mutations: List[Tuple[int, ast.stmt, str]] = []
    for nid, stmt in cfg.stmts.items():
        if _is_coverage_stmt(
            stmt, notify, notifiers, method_aliases, listener_locals
        ):
            coverage.add(nid)
        if id(stmt) in detached:
            continue
        for attr in _written_inventory_attrs(
            stmt, attrs, data_aliases, self_only
        ):
            mutations.append((nid, stmt, attr))
    if not mutations:
        return []

    safe = covered_by(cfg, coverage, exc_safe=True)
    waivers = index.waivers[fn.path]
    owner = f"{fn.cls}.{fn.name}" if fn.cls else fn.name
    out: List[Diagnostic] = []
    for nid, stmt, attr in mutations:
        if node_covered(cfg, nid, safe):
            continue
        waived, bare = waivers.lookup(
            TAG,
            (stmt.lineno, stmt.lineno - 1, fn.node.lineno, fn.node.lineno - 1),
        )
        if waived:
            continue
        if bare is not None:
            out.append(
                Diagnostic(
                    fn.path,
                    bare,
                    0,
                    RULE_ID,
                    f"waiver '# reprolint: {TAG}' needs a justification "
                    f"('# reprolint: {TAG} — <why>'); blanket suppressions "
                    f"are not accepted",
                )
            )
            continue
        out.append(
            Diagnostic(
                fn.path,
                stmt.lineno,
                stmt.col_offset,
                RULE_ID,
                f"cell-state write to '{attr}' in '{owner}' is not "
                f"post-dominated by a CellListener notification on every "
                f"path (hooks contract, core/hooks.py); notify after the "
                f"mutation or waive with '# reprolint: {TAG} — <why>'",
            )
        )
    return out


def check(index: SymbolIndex) -> List[Diagnostic]:
    hooked_names, attr_tuple, notify = _load_inventory(index)
    attrs = set(attr_tuple)

    hooked_classes: Set[str] = set()
    for path in index.paths:
        for info in index.per_file_classes[path]:
            if info.name in hooked_names or any(
                index.classes.descends_from(info, name)
                for name in hooked_names
            ):
                hooked_classes.add(info.name)

    notifiers = _notifier_methods(index, hooked_classes, notify)

    out: List[Diagnostic] = []
    for fn in index.functions.values():
        if not _in_core(fn.path):
            continue
        if fn.cls is not None:
            if fn.cls not in hooked_classes or fn.name == "__init__":
                continue
        out.extend(_check_function(index, fn, attrs, notify, notifiers))
    return out
