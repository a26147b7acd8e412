"""R007 — async safety: no blocking calls reachable from serve coroutines.

The serving tier runs a single asyncio event loop; one blocking call in
anything a coroutine handler reaches stalls every concurrent request.
This rule walks the call graph from every ``async def`` in a ``serve/``
module, and from every method of a ``serve/`` class derived from one of
asyncio's protocol classes (``asyncio.Protocol``, ``BaseProtocol``, ...;
the loop calls those methods directly, so they block it as a coroutine
does) — through method resolution, from-imports, and attribute types
(``self.snapshots.save(...)`` resolves through the ``SnapshotStore``
annotation) — and flags the blocking primitives it can prove reachable:

* ``time.sleep``
* synchronous file I/O (the ``open`` builtin / ``io.open``)
* ``subprocess.*``
* unbounded ``queue.Queue.get`` (no ``timeout=``, not ``block=False``;
  ``asyncio.Queue.get`` is of course fine)

Functions only handed to ``run_in_executor`` are not *called* from the
coroutine, so offloaded work is naturally exempt.

Waiver: ``# reprolint: blocking-ok — <why>`` on the call, the line
above, or the enclosing ``def`` line — for blocking that is the point
(e.g. the snapshot fsync that *is* the durability barrier).
"""

from __future__ import annotations

import ast
import os
from collections import deque
from typing import Dict, List, Optional, Tuple

from tools.reprolint.diagnostics import Diagnostic
from tools.reprolint.symbols import CallSite, ClassInfo, FunctionInfo, SymbolIndex

RULE_ID = "R007"
TAG = "blocking-ok"

#: Externals blocked outright: exact dotted names.
_BLOCKING_EXACT = {
    "time.sleep": "time.sleep()",
    "open": "the open() builtin (sync file I/O)",
    "io.open": "io.open() (sync file I/O)",
}

#: Externals blocked by prefix.
_BLOCKING_PREFIXES = (("subprocess.", "subprocess"),)

#: Receiver types whose ``.get()`` blocks when unbounded.
_BLOCKING_QUEUE_GETS = {
    "queue.Queue.get",
    "queue.SimpleQueue.get",
    "queue.LifoQueue.get",
    "queue.PriorityQueue.get",
    "multiprocessing.Queue.get",
}


#: asyncio's protocol classes: the loop calls their subclasses' methods.
_PROTOCOLS = frozenset(
    f"{module}.{name}"
    for module in ("asyncio", "asyncio.protocols")
    for name in (
        "BaseProtocol",
        "Protocol",
        "BufferedProtocol",
        "DatagramProtocol",
        "SubprocessProtocol",
    )
)


def _in_serve(path: str) -> bool:
    return "serve" in os.path.normpath(path).split(os.sep)[:-1]


def _is_protocol(index: SymbolIndex, info: ClassInfo) -> bool:
    """Whether ``info`` derives from an asyncio protocol class, directly
    or through linted classes (bases resolved through each module's
    imports, so ``typing.Protocol`` does not count)."""
    for cls in (info, *index.classes.ancestors(info)):
        scope = index.modules.get(index.module_of_path.get(cls.path, ""))
        imports = scope.imports if scope is not None else {}
        for dotted in cls.dotted_bases:
            head, dot, rest = dotted.partition(".")
            if imports.get(head, head) + dot + rest in _PROTOCOLS:
                return True
    return False


def _blocking_desc(site: CallSite) -> Optional[str]:
    name = site.external
    if name is None:
        return None
    if name in _BLOCKING_EXACT:
        return _BLOCKING_EXACT[name]
    for prefix, label in _BLOCKING_PREFIXES:
        if name.startswith(prefix):
            return f"{name}() ({label})"
    if name in _BLOCKING_QUEUE_GETS:
        call = site.node
        if any(kw.arg == "timeout" for kw in call.keywords):
            return None
        if any(
            isinstance(arg, ast.Constant) and arg.value is False
            for arg in call.args[:1]
        ) or any(
            kw.arg == "block"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in call.keywords
        ):
            return None
        return f"unbounded {name}()"
    return None


def check(index: SymbolIndex) -> List[Diagnostic]:
    protocols = {
        (path, info.name)
        for path in index.paths
        if _in_serve(path)
        for info in index.per_file_classes[path]
        if _is_protocol(index, info)
    }
    entries = sorted(
        (
            fn
            for fn in index.functions.values()
            if _in_serve(fn.path)
            and (fn.is_async or (fn.path, fn.cls) in protocols)
        ),
        key=lambda f: (f.path, f.node.lineno),
    )
    #: qualname -> (entry point, call chain of function names)
    origin: Dict[str, Tuple[FunctionInfo, List[str]]] = {}
    work: "deque[FunctionInfo]" = deque()
    for entry in entries:
        if entry.qualname not in origin:
            origin[entry.qualname] = (entry, [entry.name])
            work.append(entry)

    out: List[Diagnostic] = []
    while work:
        fn = work.popleft()
        entry, chain = origin[fn.qualname]
        for site in index.callees(fn):
            if site.target is not None:
                target = site.target
                if target.qualname not in origin:
                    origin[target.qualname] = (entry, chain + [target.name])
                    work.append(target)
                continue
            desc = _blocking_desc(site)
            if desc is None:
                continue
            call = site.node
            waived, bare = index.waivers[fn.path].lookup(
                TAG,
                (
                    call.lineno,
                    call.lineno - 1,
                    fn.node.lineno,
                    fn.node.lineno - 1,
                ),
            )
            if waived:
                continue
            route = " -> ".join(chain + [f"<{desc}>"])
            if bare is not None:
                out.append(
                    Diagnostic(
                        fn.path,
                        bare,
                        0,
                        RULE_ID,
                        f"waiver '# reprolint: {TAG}' needs a justification "
                        f"('# reprolint: {TAG} — <why>'); blanket "
                        f"suppressions are not accepted",
                    )
                )
                continue
            out.append(
                Diagnostic(
                    fn.path,
                    call.lineno,
                    call.col_offset,
                    RULE_ID,
                    f"blocking call to {desc} is reachable from "
                    f"{'coroutine' if entry.is_async else 'protocol callback'} "
                    f"'{entry.name}' ({route}); offload with "
                    f"run_in_executor or waive with "
                    f"'# reprolint: {TAG} — <why>'",
                )
            )
    return out
