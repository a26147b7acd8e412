"""R009 — kernel parity: batched ingestion mirrors per-event mutations.

The paper's significance guarantees hold only if ``insert_many`` /
``update_many`` leave the structure in exactly the state a per-event
replay through ``insert`` would — the differential suites test that
dynamically, this rule catches the *shape* of a divergence statically:
a fast path that never touches a state attribute the per-event path
mutates.

The comparison is deliberately asymmetric to stay useful on vectorized
kernels:

* **required** = the strict write set of ``insert`` — ``self.<attr>``
  assignments (including through local aliases) — closed transitively
  over the methods it calls within its own class family;
* **covered** = the batched method's strict writes **plus** its
  conservative may-writes (``self.<attr>`` passed as a call argument —
  ``np.add.at(self._freqs, ...)`` — or receiving a container-mutating
  method call), over the same closure.

Flagged: ``required − covered``, minus observability and tuning state
(``_obs``, ``_m_*``) that legitimately differs per path.

Waiver: ``# reprolint: parity-ok — <why>`` on the batched method's
``def`` line or the line above it.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from tools.reprolint.diagnostics import Diagnostic
from tools.reprolint.symbols import FunctionInfo, SymbolIndex

RULE_ID = "R009"
TAG = "parity-ok"

_BATCH_NAMES = ("insert_many", "update_many")
_EXCLUDED_EXACT = frozenset({"_obs"})
_EXCLUDED_PREFIXES = ("_m_",)


def _family(index: SymbolIndex, cls: str) -> Set[str]:
    """``cls`` plus every ancestor resolvable in the linted tree."""
    info = index.classes.get(cls)
    if info is None:
        return {cls}
    return {cls} | {anc.name for anc in index.classes.ancestors(info)}


def _closure_writes(
    index: SymbolIndex, root: FunctionInfo, family: Set[str], may: bool
) -> Tuple[Set[str], Set[str]]:
    """(strict, may) write sets over ``root`` and its callees.

    Calls are followed into methods of the same class family and into
    module functions; writes are only *collected* from family methods —
    another object's ``self`` is not this kernel's state.
    """
    strict: Set[str] = set()
    mays: Set[str] = set()
    seen: Set[str] = set()
    stack = [root]
    while stack:
        fn = stack.pop()
        if fn.qualname in seen:
            continue
        seen.add(fn.qualname)
        in_family = fn.cls is not None and fn.cls in family
        if in_family:
            strict |= index.strict_writes(fn)
            if may:
                mays |= index.may_writes(fn)
        for site in index.callees(fn):
            target = site.target
            if target is None or target.qualname in seen:
                continue
            if target.cls is None or target.cls in family:
                stack.append(target)
    return strict, mays


def _excluded(attr: str) -> bool:
    return attr in _EXCLUDED_EXACT or attr.startswith(_EXCLUDED_PREFIXES)


def check(index: SymbolIndex) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for path in index.paths:
        for info in index.per_file_classes[path]:
            if "insert" not in info.methods:
                continue
            insert_fn = index.methods.get(info.name, {}).get("insert")
            if insert_fn is None:
                continue
            family = _family(index, info.name)
            required: Set[str] = set()
            for batch_name in _BATCH_NAMES:
                if batch_name not in info.methods:
                    continue
                batch_fn = index.methods.get(info.name, {}).get(batch_name)
                if batch_fn is None:
                    continue
                if not required:
                    required, _ = _closure_writes(
                        index, insert_fn, family, may=False
                    )
                covered_strict, covered_may = _closure_writes(
                    index, batch_fn, family, may=True
                )
                missing = sorted(
                    attr
                    for attr in required - covered_strict - covered_may
                    if not _excluded(attr)
                )
                if not missing:
                    continue
                waived, bare = index.waivers[path].lookup(
                    TAG, (batch_fn.node.lineno, batch_fn.node.lineno - 1)
                )
                if waived:
                    continue
                if bare is not None:
                    out.append(
                        Diagnostic(
                            path,
                            bare,
                            0,
                            RULE_ID,
                            f"waiver '# reprolint: {TAG}' needs a "
                            f"justification ('# reprolint: {TAG} — <why>'); "
                            f"blanket suppressions are not accepted",
                        )
                    )
                    continue
                out.append(
                    Diagnostic(
                        path,
                        batch_fn.node.lineno,
                        batch_fn.node.col_offset,
                        RULE_ID,
                        f"'{info.name}.{batch_name}' never touches "
                        f"{', '.join(repr(a) for a in missing)} which "
                        f"'{info.name}.insert' mutates; mirror the "
                        f"per-event mutation in the batched path or waive "
                        f"with '# reprolint: {TAG} — <why>'",
                    )
                )
    return out
