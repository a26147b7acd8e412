"""Pass 1: the project-wide symbol index and call graph.

Everything reprolint knows *across* files lives here.  One
:class:`SymbolIndex` is built per lint invocation from every parsed
module and exposes:

* the **class index** (class name → methods, bases, abstractness) with
  transitive ancestor resolution — the same structure R001 has always
  used, now shared by the dataflow rules;
* a **function table** keyed by qualified name (``module:Class.method``)
  with per-function facts: async-ness, decorators (``functools.wraps``
  and friends are recorded so wrapper functions stay recognisable),
  classmethod/staticmethod flags;
* **import alias maps** per module (``import numpy as np``,
  ``from repro.core.ltc import LTC``) so names resolve across modules;
* **attribute-type inference** per class — ``self.snapshots =
  snapshots`` where ``__init__`` annotates ``snapshots:
  Optional[SnapshotStore]``, or ``self.index = ServingIndex(ltc)``
  directly — so ``self.snapshots.save()`` resolves to
  ``SnapshotStore.save``;
* the **call graph**: :meth:`SymbolIndex.callees` resolves each call
  site in a function to an internal :class:`FunctionInfo` (via local
  aliases, module functions, from-imports, ``self.m()`` through the MRO,
  ``super().m()``, ``ClassName.m(...)``, bound-method aliases like
  ``place = self._place``, ``self.attr.m()`` through attr types, and
  ``cls(...)`` in classmethods) or to a dotted external name
  (``time.sleep``) when the target lives outside the linted tree.

Resolution is best-effort and name-based — class names are unique in
this repository, which is exactly the kind of assumption a
*repo-specific* linter is allowed to make.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from tools.reprolint.diagnostics import Waivers

# --------------------------------------------------------------- classes


@dataclass
class ClassInfo:
    """Pass-1 summary of one class definition."""

    name: str
    path: str
    line: int
    bases: List[str] = field(default_factory=list)
    #: The bases as written, dots kept (``asyncio.Protocol``).
    dotted_bases: List[str] = field(default_factory=list)
    methods: Dict[str, int] = field(default_factory=dict)  # name -> lineno
    abstract_methods: Set[str] = field(default_factory=set)


def _base_names(node: ast.ClassDef) -> List[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _decorator_names(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> List[str]:
    names = []
    for deco in func.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute):
            names.append(target.attr)
        elif isinstance(target, ast.Name):
            names.append(target.id)
    return names


def _is_abstract(func: ast.FunctionDef) -> bool:
    return any(
        name in ("abstractmethod", "abstractproperty")
        for name in _decorator_names(func)
    )


def _collect_classes(tree: ast.Module, path: str) -> List[ClassInfo]:
    classes = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = ClassInfo(
            node.name,
            path,
            node.lineno,
            bases=_base_names(node),
            dotted_bases=[
                name for name in map(_annotation_type, node.bases) if name
            ],
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[item.name] = item.lineno
                if isinstance(item, ast.FunctionDef) and _is_abstract(item):
                    info.abstract_methods.add(item.name)
        classes.append(info)
    return classes


class ClassIndex:
    """Project-wide class lookup with transitive ancestor resolution."""

    def __init__(self, classes: Iterable[ClassInfo]):
        self._by_name: Dict[str, ClassInfo] = {}
        for info in classes:
            # First definition wins; duplicates across fixture trees are
            # fine because lookups stay within one lint invocation.
            self._by_name.setdefault(info.name, info)

    def get(self, name: str) -> Optional[ClassInfo]:
        return self._by_name.get(name)

    def ancestors(self, info: ClassInfo) -> List[ClassInfo]:
        """Transitive base classes resolvable inside the linted tree."""
        out: List[ClassInfo] = []
        seen = {info.name}
        stack = list(info.bases)
        while stack:
            base = stack.pop()
            if base in seen:
                continue
            seen.add(base)
            resolved = self._by_name.get(base)
            if resolved is not None:
                out.append(resolved)
                stack.extend(resolved.bases)
        return out

    def descends_from(self, info: ClassInfo, root: str) -> bool:
        return any(anc.name == root for anc in self.ancestors(info))

    def concrete_method(self, info: ClassInfo, method: str) -> bool:
        """Whether ``method`` is available and concrete on ``info``."""
        if method in info.methods:
            return method not in info.abstract_methods
        for anc in self.ancestors(info):
            if method in anc.methods:
                return method not in anc.abstract_methods
        return False

    def override_below(self, info: ClassInfo, method: str, root: str) -> bool:
        """Whether ``method`` is (re)defined on ``info`` or an ancestor
        strictly below ``root`` in the hierarchy."""
        if method in info.methods and info.name != root:
            return True
        return any(
            method in anc.methods for anc in self.ancestors(info) if anc.name != root
        )


# -------------------------------------------------------------- functions


@dataclass
class FunctionInfo:
    """Pass-1 summary of one function or method definition."""

    qualname: str  # "module:Class.method" or "module:func"
    name: str
    module: str
    path: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    cls: Optional[str] = None  # enclosing class name, if a method
    is_async: bool = False
    decorators: List[str] = field(default_factory=list)
    is_classmethod: bool = False
    is_staticmethod: bool = False


@dataclass
class CallSite:
    """One resolved call site inside a function body."""

    node: ast.Call
    target: Optional[FunctionInfo] = None  # internal resolution, if any
    external: Optional[str] = None  # dotted name for external targets


def module_name_for(path: str) -> str:
    """Dotted module name for ``path`` (repo-relative).

    ``src/`` is a source root, so ``src/repro/core/ltc.py`` maps to
    ``repro.core.ltc``; everything else (``tools/``, fixtures) keeps its
    full dotted path.  Resolution only needs internal names to agree
    with how the code imports them.
    """
    parts = os.path.normpath(path).split(os.sep)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


def _annotation_type(node: Optional[ast.expr]) -> Optional[str]:
    """Best-effort class name out of an annotation expression.

    Unwraps ``Optional[X]``, ``X | None``, and quoted forward refs; dotted
    annotations keep their dots (``queue.Queue``).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else ""
        )
        if base_name == "Optional":
            return _annotation_type(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            if not (isinstance(side, ast.Constant) and side.value is None):
                return _annotation_type(side)
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        value = _annotation_type(node.value)
        return f"{value}.{node.attr}" if value else node.attr
    return None


class _ModuleScope:
    """Per-module name environment: imports and module-level defs."""

    def __init__(self, module: str) -> None:
        self.module = module
        #: alias -> dotted target ("numpy", "repro.core.ltc.LTC", ...)
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Set[str] = set()

    def record_import(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                self.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: resolve against this module's package.
                package = self.module.split(".")
                package = package[: len(package) - node.level]
                base = ".".join(package + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                self.imports[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )


class SymbolIndex:
    """The cross-module symbol index built in pass 1."""

    #: Container-mutating method names treated as may-writes of the
    #: receiver (R009's conservative side).
    MUTATING_METHODS = frozenset(
        {
            "append",
            "extend",
            "insert",
            "pop",
            "popleft",
            "appendleft",
            "remove",
            "clear",
            "add",
            "discard",
            "update",
            "setdefault",
            "sort",
            "reverse",
            "fill",
        }
    )

    def __init__(self, files: Sequence[Tuple[str, ast.Module, str]]) -> None:
        """``files`` is a sequence of ``(path, tree, source)`` triples."""
        self.paths: List[str] = [path for path, _, _ in files]
        self.trees: Dict[str, ast.Module] = {p: t for p, t, _ in files}
        self.sources: Dict[str, str] = {p: s for p, _, s in files}
        self.waivers: Dict[str, Waivers] = {
            p: Waivers(s) for p, _, s in files
        }
        self.per_file_classes: Dict[str, List[ClassInfo]] = {}
        all_classes: List[ClassInfo] = []
        for path, tree, _ in files:
            classes = _collect_classes(tree, path)
            self.per_file_classes[path] = classes
            all_classes.extend(classes)
        self.classes = ClassIndex(all_classes)

        self.modules: Dict[str, _ModuleScope] = {}
        self.module_of_path: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: class name -> method name -> FunctionInfo (own methods only)
        self.methods: Dict[str, Dict[str, FunctionInfo]] = {}
        #: class name -> attr name -> inferred type name
        self.attr_types: Dict[str, Dict[str, str]] = {}
        for path, tree, _ in files:
            self._index_module(path, tree)
        for path, tree, _ in files:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self._infer_attr_types(node)

    # ------------------------------------------------------------ pass 1

    def _index_module(self, path: str, tree: ast.Module) -> None:
        module = module_name_for(path)
        scope = self.modules.setdefault(module, _ModuleScope(module))
        self.module_of_path[path] = module
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                scope.record_import(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._make_function(node, module, path, cls=None)
                scope.functions[node.name] = info
            elif isinstance(node, ast.ClassDef):
                scope.classes.add(node.name)
                table = self.methods.setdefault(node.name, {})
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        table[item.name] = self._make_function(
                            item, module, path, cls=node.name
                        )

    def _make_function(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        module: str,
        path: str,
        cls: Optional[str],
    ) -> FunctionInfo:
        decorators = _decorator_names(node)
        qual = f"{module}:{cls}.{node.name}" if cls else f"{module}:{node.name}"
        info = FunctionInfo(
            qualname=qual,
            name=node.name,
            module=module,
            path=path,
            node=node,
            cls=cls,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            decorators=decorators,
            is_classmethod="classmethod" in decorators,
            is_staticmethod="staticmethod" in decorators,
        )
        self.functions[qual] = info
        return info

    def _infer_attr_types(self, node: ast.ClassDef) -> None:
        """Infer ``self.attr`` types from ctor annotations/constructions."""
        table = self.attr_types.setdefault(node.name, {})
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params: Dict[str, str] = {}
            for arg in item.args.args + item.args.kwonlyargs:
                inferred = _annotation_type(arg.annotation)
                if inferred:
                    params[arg.arg] = inferred
            for sub in ast.walk(item):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, value = sub.targets[0], sub.value
                elif isinstance(sub, ast.AnnAssign):
                    target, value = sub.target, sub.value
                    if isinstance(target, ast.Attribute):
                        anno = _annotation_type(sub.annotation)
                        if anno and _is_self_attr(target):
                            table.setdefault(target.attr, anno)
                if (
                    target is None
                    or not isinstance(target, ast.Attribute)
                    or not _is_self_attr(target)
                ):
                    continue
                if isinstance(value, ast.Name) and value.id in params:
                    table.setdefault(target.attr, params[value.id])
                elif isinstance(value, ast.Call):
                    ctor = value.func
                    if isinstance(ctor, ast.Name):
                        table.setdefault(target.attr, ctor.id)
                    elif isinstance(ctor, ast.Attribute):
                        dotted = _annotation_type(ctor)
                        if dotted:
                            table.setdefault(target.attr, dotted)

    # -------------------------------------------------------- resolution

    def resolve_class_name(self, name: str, module: str) -> Optional[ClassInfo]:
        """Resolve ``name`` in ``module`` to a linted class, if any."""
        info = self.classes.get(name)
        if info is not None:
            return info
        scope = self.modules.get(module)
        if scope and name in scope.imports:
            return self.classes.get(scope.imports[name].rsplit(".", 1)[-1])
        return None

    def method_on(self, cls: str, name: str) -> Optional[FunctionInfo]:
        """Look ``name`` up on ``cls`` through the MRO."""
        own = self.methods.get(cls, {}).get(name)
        if own is not None:
            return own
        info = self.classes.get(cls)
        if info is None:
            return None
        for anc in self.classes.ancestors(info):
            found = self.methods.get(anc.name, {}).get(name)
            if found is not None:
                return found
        return None

    def attr_type(self, cls: str, attr: str) -> Optional[str]:
        """Inferred type name of ``self.<attr>`` on ``cls`` (MRO-aware)."""
        found = self.attr_types.get(cls, {}).get(attr)
        if found is not None:
            return found
        info = self.classes.get(cls)
        if info is None:
            return None
        for anc in self.classes.ancestors(info):
            found = self.attr_types.get(anc.name, {}).get(attr)
            if found is not None:
                return found
        return None

    def bound_method_aliases(
        self, fn: FunctionInfo
    ) -> Dict[str, str]:
        """Locals bound to ``self.<method>`` (``place = self._place``)."""
        aliases: Dict[str, str] = {}
        if fn.cls is None:
            return aliases
        for sub in ast.walk(fn.node):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.Attribute)
                and _is_self_attr(sub.value)
                and self.method_on(fn.cls, sub.value.attr) is not None
            ):
                aliases[sub.targets[0].id] = sub.value.attr
        return aliases

    def callees(self, fn: FunctionInfo) -> List[CallSite]:
        """Resolve every call site in ``fn`` (best effort)."""
        scope = self.modules.get(fn.module)
        method_aliases = self.bound_method_aliases(fn)
        out: List[CallSite] = []
        for call in (n for n in ast.walk(fn.node) if isinstance(n, ast.Call)):
            out.append(self._resolve_call(call, fn, scope, method_aliases))
        return out

    def _resolve_call(
        self,
        call: ast.Call,
        fn: FunctionInfo,
        scope: Optional[_ModuleScope],
        method_aliases: Dict[str, str],
    ) -> CallSite:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if fn.cls and name in method_aliases:
                return CallSite(call, self.method_on(fn.cls, method_aliases[name]))
            if fn.cls and fn.is_classmethod and name == "cls":
                return CallSite(call, self.method_on(fn.cls, "__init__"))
            if scope and name in scope.functions:
                return CallSite(call, scope.functions[name])
            if scope and name in scope.classes:
                return CallSite(call, self.method_on(name, "__init__"))
            if scope and name in scope.imports:
                dotted = scope.imports[name]
                resolved = self._resolve_dotted(dotted)
                if resolved is not None:
                    return CallSite(call, resolved)
                return CallSite(call, external=dotted)
            return CallSite(call, external=name)
        if not isinstance(func, ast.Attribute):
            return CallSite(call)
        base = func.value
        method = func.attr
        if isinstance(base, ast.Name):
            if base.id == "self" and fn.cls:
                target = self.method_on(fn.cls, method)
                if target is not None:
                    return CallSite(call, target)
                return CallSite(call, external=f"self.{method}")
            if base.id == "cls" and fn.cls:
                target = self.method_on(fn.cls, method)
                if target is not None:
                    return CallSite(call, target)
            resolved_cls = self.resolve_class_name(
                base.id, fn.module
            ) if scope and (
                base.id in scope.classes or base.id in scope.imports
            ) else None
            if resolved_cls is not None:
                target = self.method_on(resolved_cls.name, method)
                if target is not None:
                    return CallSite(call, target)
            if scope and base.id in scope.imports:
                return CallSite(
                    call, external=f"{scope.imports[base.id]}.{method}"
                )
            return CallSite(call, external=f"{base.id}.{method}")
        if (
            isinstance(base, ast.Call)
            and isinstance(base.func, ast.Name)
            and base.func.id == "super"
            and fn.cls
        ):
            info = self.classes.get(fn.cls)
            if info is not None:
                for anc in self.classes.ancestors(info):
                    found = self.methods.get(anc.name, {}).get(method)
                    if found is not None:
                        return CallSite(call, found)
            return CallSite(call, external=f"super().{method}")
        if isinstance(base, ast.Attribute) and _is_self_attr(base) and fn.cls:
            attr_cls = self.attr_type(fn.cls, base.attr)
            if attr_cls is not None:
                if self.classes.get(attr_cls) is not None:
                    target = self.method_on(attr_cls, method)
                    if target is not None:
                        return CallSite(call, target)
                return CallSite(call, external=f"{attr_cls}.{method}")
            return CallSite(call, external=f"self.{base.attr}.{method}")
        return CallSite(call)

    def _resolve_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        """Resolve a from-import target to an internal function/ctor."""
        if "." not in dotted:
            return None
        module, leaf = dotted.rsplit(".", 1)
        scope = self.modules.get(module)
        if scope is None:
            return None
        if leaf in scope.functions:
            return scope.functions[leaf]
        if leaf in scope.classes:
            return self.method_on(leaf, "__init__")
        return None

    # ---------------------------------------------------- write tracking

    def strict_writes(self, fn: FunctionInfo) -> Set[str]:
        """``self.<attr>`` names assigned in ``fn`` (incl. subscripts,
        augmented assignment, and writes through local array aliases
        like ``freqs = self._freqs; freqs[i] = v``)."""
        aliases = self._array_aliases(fn)
        writes: Set[str] = set()
        for sub in ast.walk(fn.node):
            targets: List[ast.expr] = []
            if isinstance(sub, ast.Assign):
                targets = list(sub.targets)
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                targets = [sub.target]
            for target in targets:
                for name in self._written_attrs(target, aliases):
                    writes.add(name)
        return writes

    def may_writes(self, fn: FunctionInfo) -> Set[str]:
        """Attrs conservatively *possibly* mutated by ``fn``: ``self.X``
        passed as a call argument, or receiving a container-mutating
        method call (``self.X.append(...)``, ``heapq.heappush(self.X,
        ...)``)."""
        aliases = self._array_aliases(fn)

        def attr_of(node: ast.expr) -> Optional[str]:
            if isinstance(node, ast.Attribute) and _is_self_attr(node):
                return node.attr
            if isinstance(node, ast.Name) and node.id in aliases:
                return aliases[node.id]
            return None

        writes: Set[str] = set()
        for call in (n for n in ast.walk(fn.node) if isinstance(n, ast.Call)):
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in self.MUTATING_METHODS:
                name = attr_of(func.value)
                if name:
                    writes.add(name)
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                name = attr_of(arg)
                if name:
                    writes.add(name)
                elif isinstance(arg, ast.Subscript):
                    name = attr_of(arg.value)
                    if name:
                        writes.add(name)
        return writes

    def _array_aliases(self, fn: FunctionInfo) -> Dict[str, str]:
        """Locals bound to ``self.<attr>`` (data aliases, not methods)."""
        aliases: Dict[str, str] = {}
        for sub in ast.walk(fn.node):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.Attribute)
                and _is_self_attr(sub.value)
            ):
                if fn.cls and self.method_on(fn.cls, sub.value.attr) is not None:
                    continue  # bound-method alias, not a data alias
                aliases[sub.targets[0].id] = sub.value.attr
        return aliases

    def _written_attrs(
        self, target: ast.expr, aliases: Dict[str, str]
    ) -> List[str]:
        if isinstance(target, ast.Tuple):
            out = []
            for elt in target.elts:
                out.extend(self._written_attrs(elt, aliases))
            return out
        if isinstance(target, ast.Subscript):
            target = target.value
            if isinstance(target, ast.Name) and target.id in aliases:
                return [aliases[target.id]]
        if isinstance(target, ast.Attribute) and _is_self_attr(target):
            return [target.attr]
        return []


def _is_self_attr(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )
