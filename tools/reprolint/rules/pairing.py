"""R001 — batched-ingestion pairing of ``insert`` / ``insert_many``.

A class defining ``insert_many`` must have a concrete ``insert`` (own or
inherited) taking the same parameters besides the batch and the item, so
a batch is only ever a sequence of unit arrivals (a weighted form such as
``insert_many(items, counts=None)`` is flagged).  Every ``StreamSummary``
subclass that overrides ``insert`` must also carry a batched
``insert_many`` override somewhere below the base class.  (R009 goes
further and compares what the two paths actually mutate.)
"""

from __future__ import annotations

import ast
from typing import List, Sequence, Tuple

from tools.reprolint.diagnostics import Diagnostic
from tools.reprolint.symbols import ClassInfo, SymbolIndex

RULE_ID = "R001"


def _extra_params(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> Tuple[str, ...]:
    """Parameter names past ``self`` and the item (or batch), in order,
    with ``*``/``**`` marking the variadic ones."""
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args][2:]
    if args.vararg is not None:
        names.append("*" + args.vararg.arg)
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg is not None:
        names.append("**" + args.kwarg.arg)
    return tuple(names)


def check_r001(
    symbols: SymbolIndex, classes: Sequence[ClassInfo]
) -> List[Diagnostic]:
    """Batched-ingestion pairing of ``insert`` / ``insert_many``."""
    index = symbols.classes
    out = []
    for info in classes:
        own_many = "insert_many" in info.methods
        own_insert = "insert" in info.methods
        # Abstract classes (any own abstract method) can't be
        # instantiated, so the pairing contract lands on their concrete
        # descendants instead.
        if own_many and not info.abstract_methods:
            if not index.concrete_method(info, "insert"):
                out.append(
                    Diagnostic(
                        info.path,
                        info.methods["insert_many"],
                        0,
                        "R001",
                        f"class '{info.name}' defines insert_many without a "
                        f"concrete insert (batched ingestion must stay "
                        f"replay-identical to a per-event path)",
                    )
                )
        # The batch shape binds abstract classes too: a base class's
        # weighted insert_many is the form its overrides copy.
        many = symbols.methods.get(info.name, {}).get("insert_many")
        insert = symbols.method_on(info.name, "insert")
        if own_many and many is not None and insert is not None:
            many_extra = _extra_params(many.node)
            insert_extra = _extra_params(insert.node)
            if many_extra != insert_extra:
                out.append(
                    Diagnostic(
                        info.path,
                        info.methods["insert_many"],
                        0,
                        "R001",
                        f"class '{info.name}' insert_many takes "
                        f"{list(many_extra)} besides the batch but insert "
                        f"takes {list(insert_extra)}; a batch is a sequence "
                        f"of unit arrivals",
                    )
                )
        if (
            own_insert
            and "insert" not in info.abstract_methods
            and index.descends_from(info, "StreamSummary")
            and not index.override_below(info, "insert_many", "StreamSummary")
        ):
            out.append(
                Diagnostic(
                    info.path,
                    info.methods["insert"],
                    0,
                    "R001",
                    f"summary '{info.name}' overrides insert but inherits the "
                    f"per-event insert_many fallback; add a batched override "
                    f"(and a differential test pinning it replay-identical)",
                )
            )
    return out


def check(index: SymbolIndex) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for path in index.paths:
        out.extend(check_r001(index, index.per_file_classes[path]))
    return out
