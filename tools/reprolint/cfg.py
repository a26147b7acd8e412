"""Per-function control-flow graphs and the must-coverage analysis.

Nodes are the function's statements (statement granularity is enough for
every rule reprolint runs); two synthetic nodes mark the normal exit and
the exceptional exit.  ``build_cfg`` handles ``if``/``for``/``while``
(with ``else`` and ``break``/``continue``), ``with``, ``try`` (handlers,
``else``, ``finally``), ``return`` and ``raise``.

Edges come in two classes.  *Normal* edges are ordinary fall-through and
branch flow.  *Exceptional* edges model an explicit ``raise``: it gets an
edge to the nearest enclosing ``try`` (its statement node acts as the
dispatch point fanning out to handlers and ``finally``) or to the
exceptional exit when there is none.  Calls that might raise get no
edge; R006 analyses with ``exc_safe=True`` (the hooks contract is about
the values the structure settles into, not mid-exception states).

:func:`covered_by` is the shared dataflow core: a *greatest fixpoint*
backward must-analysis computing, for each node, whether **every** path
from it to an exit passes through one of the given coverage nodes.
Starting from all-true and shrinking means cycles that never reach an
exit stay vacuously safe — exactly the right semantics for loops.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Synthetic node ids.
EXIT = -1
EXC_EXIT = -2


class CFG:
    """Control-flow graph over a function body.

    ``succ`` holds normal edges, ``exc_succ`` exceptional ones; ``stmts``
    maps node id → the ``ast.stmt`` it represents.  ``EXIT``/``EXC_EXIT``
    appear only as successors.
    """

    def __init__(self) -> None:
        self.stmts: Dict[int, ast.stmt] = {}
        self.succ: Dict[int, Set[int]] = {}
        self.exc_succ: Dict[int, Set[int]] = {}
        self.entry: Optional[int] = None
        #: statement -> node id (statements are unique objects)
        self.node_of: Dict[int, int] = {}

    def nodes(self) -> List[int]:
        return list(self.stmts)

    def node_for(self, stmt: ast.stmt) -> Optional[int]:
        return self.node_of.get(id(stmt))

    def all_succ(self, n: int) -> Set[int]:
        return self.succ.get(n, set()) | self.exc_succ.get(n, set())


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self._next_id = 0
        #: stack of (break_targets, continue_targets) collector lists
        self._loops: List[Tuple[List[int], List[int]]] = []
        #: stack of node ids exceptional control transfers to; the
        #: innermost enclosing try's dispatch node is the top.
        self._handlers: List[int] = []

    def _new_node(self, stmt: ast.stmt) -> int:
        nid = self._next_id
        self._next_id += 1
        self.cfg.stmts[nid] = stmt
        self.cfg.succ[nid] = set()
        self.cfg.exc_succ[nid] = set()
        self.cfg.node_of[id(stmt)] = nid
        return nid

    def _edge(self, src: int, dst: int, exc: bool = False) -> None:
        (self.cfg.exc_succ if exc else self.cfg.succ)[src].add(dst)

    def _link(self, frontier: Sequence[int], dst: int) -> None:
        for src in frontier:
            self._edge(src, dst)

    def _exc_target(self) -> int:
        return self._handlers[-1] if self._handlers else EXC_EXIT

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        frontier = self._sequence(body, entry_to=None)
        self._link(frontier, EXIT)
        return self.cfg

    def _sequence(
        self, body: Sequence[ast.stmt], entry_to: Optional[List[int]]
    ) -> List[int]:
        """Wire ``body`` statements in order.

        ``entry_to``, when given, is the frontier whose pending edges
        should land on the first statement.  Returns the new frontier
        (nodes falling through past the last statement).
        """
        frontier = list(entry_to) if entry_to else []
        for stmt in body:
            frontier, entered = self._statement(stmt, frontier)
            if self.cfg.entry is None and entered is not None:
                self.cfg.entry = entered
        return frontier

    def _statement(
        self, stmt: ast.stmt, frontier: List[int]
    ) -> Tuple[List[int], Optional[int]]:
        """Add ``stmt``; returns (new frontier, this statement's node)."""
        nid = self._new_node(stmt)
        self._link(frontier, nid)

        if isinstance(stmt, ast.Return):
            self._edge(nid, EXIT)
            return [], nid
        if isinstance(stmt, ast.Raise):
            self._edge(nid, self._exc_target(), exc=True)
            return [], nid
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][0].append(nid)
            return [], nid
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._loops[-1][1].append(nid)
            return [], nid
        if isinstance(stmt, ast.If):
            then_out = self._sequence(stmt.body, entry_to=[nid])
            else_out = (
                self._sequence(stmt.orelse, entry_to=[nid])
                if stmt.orelse
                else [nid]
            )
            return then_out + else_out, nid
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            breaks: List[int] = []
            continues: List[int] = []
            self._loops.append((breaks, continues))
            body_out = self._sequence(stmt.body, entry_to=[nid])
            self._loops.pop()
            # Back edge: loop bottom (and continue) re-test the header.
            self._link(body_out, nid)
            self._link(continues, nid)
            else_out = (
                self._sequence(stmt.orelse, entry_to=[nid])
                if stmt.orelse
                else [nid]
            )
            return else_out + breaks, nid
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            body_out = self._sequence(stmt.body, entry_to=[nid])
            return body_out, nid
        if isinstance(stmt, ast.Try):
            return self._try(stmt, nid)
        return [nid], nid

    def _try(self, stmt: ast.Try, nid: int) -> Tuple[List[int], Optional[int]]:
        # The Try statement's own node doubles as the exception dispatch
        # point: statements in the protected body raise *to* it, and it
        # fans out to the handlers / finally.  (Which handler catches is
        # a runtime question — edges to all of them is the sound
        # over-approximation.)
        self._handlers.append(nid)
        body_out = self._sequence(stmt.body, entry_to=[nid])
        self._handlers.pop()

        handler_tails: List[int] = []
        for handler in stmt.handlers:
            handler_tails.extend(self._sequence(handler.body, entry_to=[nid]))
        else_out = (
            self._sequence(stmt.orelse, entry_to=body_out)
            if stmt.orelse
            else body_out
        )

        normal_tails = else_out + handler_tails
        if stmt.finalbody:
            fin_out = self._sequence(stmt.finalbody, entry_to=normal_tails)
            # Exceptional entry: an exception no handler catches runs the
            # finally then re-raises — dispatch feeds the finally head
            # and its tails get a re-raise edge (over-approximate: also
            # present for normal entries, which only makes must-analysis
            # more conservative).
            fin_head = self.cfg.node_for(stmt.finalbody[0])
            if fin_head is not None:
                self._edge(nid, fin_head)
                for tail in fin_out:
                    self._edge(tail, self._exc_target(), exc=True)
            return fin_out, nid
        # No finally: an exception no handler matches propagates out.
        self._edge(nid, self._exc_target(), exc=True)
        return normal_tails, nid


def build_cfg(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> CFG:
    """Build the CFG for ``fn``'s body."""
    return _Builder().build(fn.body)


def covered_by(
    cfg: CFG, coverage: Set[int], exc_safe: bool = False
) -> Dict[int, bool]:
    """For each node: does *every* exit-reaching path pass ``coverage``?

    Greatest-fixpoint backward must-analysis: ``safe(n) = n ∈ coverage
    ∨ (∀ s ∈ succ(n) ∪ exc_succ(n): safe(s))`` with the normal exit
    unsafe.  ``exc_safe`` makes the exceptional exit vacuously safe —
    rules that only constrain settled states (R006) use it so a raising
    path doesn't demand a notification.
    """
    safe: Dict[int, bool] = {n: True for n in cfg.nodes()}
    safe[EXIT] = False
    safe[EXC_EXIT] = exc_safe
    changed = True
    while changed:
        changed = False
        for n in cfg.nodes():
            if n in coverage:
                continue  # coverage nodes stay safe
            succs = cfg.all_succ(n)
            new = bool(succs) and all(safe.get(s, False) for s in succs)
            if new != safe[n]:
                safe[n] = new
                changed = True
    return safe


def node_covered(cfg: CFG, node: int, safe: Dict[int, bool]) -> bool:
    """Whether every path *onward* from ``node`` passes a coverage node.

    Only ``node``'s normal successors are required — the statement's own
    exceptional edge models *it* failing, in which case the effect being
    tracked (the write, the allocation) never happened.
    """
    succs = cfg.succ.get(node, set())
    return bool(succs) and all(safe.get(s, False) for s in succs)
