"""The intraprocedural dataflow layer: per-function CFGs and lattices.

The handoff analysis (RACE002) needs more than a syntax walk: *where* a
write happens matters less than *what is known on every path reaching
it* — which statements follow the handoff, which locks are held there.
This module provides the shared machinery:

- :func:`build_cfg` — a control-flow graph over a function's ``ast``
  statements.  Nodes are simple statements plus explicit
  ``with_enter``/``with_exit`` events, so a ``with lock:`` body is a
  region between an acquire and a release node.
- :func:`solve_forward` — a worklist fixpoint solver for any forward
  analysis expressed as ``initial``/``transfer``/``join``.
- :class:`HeldLocks` — the lock lattice: the set of lock expressions
  held on *every* path into each node.  ``with lock:`` and
  ``lock.acquire()``/``lock.release()`` are understood.

Everything here is pure-stdlib and per-function: which expressions
count as locks and which writes matter is supplied by the rules in
:mod:`repro.lint.rules_program`.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "CFG",
    "CFGNode",
    "build_cfg",
    "solve_forward",
    "HeldLocks",
    "dotted_expr",
]

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def dotted_expr(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class CFGNode:
    """One event in the flow graph.

    ``kind`` is one of ``entry``, ``exit``, ``stmt``, ``with_enter`` or
    ``with_exit``.  ``stmt`` carries the statement for ``stmt`` nodes
    and the context-manager expression for with events.
    """

    kind: str
    stmt: ast.AST | None = None


@dataclass
class CFG:
    """A per-function control-flow graph (indices into :attr:`nodes`)."""

    nodes: list[CFGNode] = field(default_factory=list)
    succs: list[list[int]] = field(default_factory=list)
    entry: int = 0
    exit: int = 1

    def add(self, node: CFGNode) -> int:
        self.nodes.append(node)
        self.succs.append([])
        return len(self.nodes) - 1

    def edge(self, src: int, dst: int) -> None:
        if dst not in self.succs[src]:
            self.succs[src].append(dst)

    def stmt_nodes(self) -> Iterator[tuple[int, ast.AST]]:
        """Every ``stmt`` node with its statement, in creation order."""
        for index, node in enumerate(self.nodes):
            if node.kind == "stmt" and node.stmt is not None:
                yield index, node.stmt

    def reachable_from(self, start: int) -> set[int]:
        """Node indices reachable from *start* (excluding *start* itself
        unless it lies on a cycle)."""
        seen: set[int] = set()
        work = deque(self.succs[start])
        while work:
            current = work.popleft()
            if current in seen:
                continue
            seen.add(current)
            work.extend(self.succs[current])
        return seen


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.cfg.add(CFGNode("entry"))
        self.cfg.add(CFGNode("exit"))
        #: (continue_target, break_target) per enclosing loop
        self.loops: list[tuple[int, int]] = []

    # Each build method threads a frontier: the set of node ids whose
    # control falls through to whatever comes next.
    def body(self, stmts: list[ast.stmt], frontier: list[int]) -> list[int]:
        for stmt in stmts:
            frontier = self.statement(stmt, frontier)
            if not frontier:
                break  # unreachable code after return/raise/break
        return frontier

    def _link(self, frontier: list[int], node: int) -> None:
        for src in frontier:
            self.cfg.edge(src, node)

    def statement(self, stmt: ast.stmt, frontier: list[int]) -> list[int]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            return self.body(stmt.body, frontier) + self.body(stmt.orelse, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = cfg.add(CFGNode("stmt", stmt))
            after = cfg.add(CFGNode("stmt", None))  # join placeholder
            after_node = after
            self._link(frontier, header)
            self.loops.append((header, after_node))
            body_out = self.body(stmt.body, [header])
            self.loops.pop()
            self._link(body_out, header)
            else_out = self.body(stmt.orelse, [header])
            self._link(else_out, after_node)
            cfg.edge(header, after_node)
            return [after_node]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner: list[int] = list(frontier)
            enters: list[ast.expr] = []
            for item in stmt.items:
                enter = cfg.add(CFGNode("with_enter", item.context_expr))
                self._link(inner, enter)
                inner = [enter]
                enters.append(item.context_expr)
            out = self.body(stmt.body, inner)
            for expr in reversed(enters):
                leave = cfg.add(CFGNode("with_exit", expr))
                self._link(out, leave)
                out = [leave]
            return out
        if isinstance(stmt, ast.Try):
            body_in = cfg.add(CFGNode("stmt", None))
            self._link(frontier, body_in)
            body_out = self.body(stmt.body, [body_in])
            outs = self.body(stmt.orelse, body_out) if stmt.orelse else body_out
            for handler in stmt.handlers:
                handler_in = cfg.add(CFGNode("stmt", None))
                # An exception may fire before or after the body ran:
                # approximate with edges from both ends.
                cfg.edge(body_in, handler_in)
                self._link(body_out, handler_in)
                outs = outs + self.body(handler.body, [handler_in])
            if stmt.finalbody:
                outs = self.body(stmt.finalbody, outs)
            return outs
        if isinstance(stmt, ast.Match):
            outs: list[int] = []
            for case in stmt.cases:
                case_in = cfg.add(CFGNode("stmt", None))
                self._link(frontier, case_in)
                outs += self.body(case.body, [case_in])
            return outs + list(frontier)  # cases may not be exhaustive
        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = cfg.add(CFGNode("stmt", stmt))
            self._link(frontier, node)
            cfg.edge(node, cfg.exit)
            return []
        if isinstance(stmt, ast.Break):
            node = cfg.add(CFGNode("stmt", stmt))
            self._link(frontier, node)
            if self.loops:
                cfg.edge(node, self.loops[-1][1])
            return []
        if isinstance(stmt, ast.Continue):
            node = cfg.add(CFGNode("stmt", stmt))
            self._link(frontier, node)
            if self.loops:
                cfg.edge(node, self.loops[-1][0])
            return []
        # Simple statement (incl. nested def/class, treated opaquely).
        node = cfg.add(CFGNode("stmt", stmt))
        self._link(frontier, node)
        return [node]


def build_cfg(fn: FunctionNode) -> CFG:
    """The statement-level control-flow graph of *fn*'s body."""
    builder = _Builder()
    out = builder.body(fn.body, [builder.cfg.entry])
    builder._link(out, builder.cfg.exit)
    return builder.cfg


def solve_forward(
    cfg: CFG,
    *,
    initial: object,
    transfer: Callable[[CFGNode, object], object],
    join: Callable[[object, object], object],
) -> dict[int, object]:
    """Worklist fixpoint: the state flowing *into* every node.

    ``None`` is the unreachable top element: ``join(None, s) == s`` and
    ``transfer`` is never called on it.  *initial* seeds the entry node.
    """
    states: dict[int, object] = {cfg.entry: initial}
    work: deque[int] = deque([cfg.entry])
    while work:
        index = work.popleft()
        state_in = states.get(index)
        if state_in is None:
            continue
        state_out = transfer(cfg.nodes[index], state_in)
        for succ in cfg.succs[index]:
            old = states.get(succ)
            merged = state_out if old is None else join(old, state_out)
            if merged != old:
                states[succ] = merged
                work.append(succ)
    return states


# -- the held-locks lattice --------------------------------------------------

class HeldLocks:
    """Forward analysis: which lock expressions are held at each node.

    State is a frozenset of dotted lock expressions (``self._lock``);
    the join over paths is set intersection, so a lock counts as held
    only when *every* path into the node holds it.  *is_lock* decides
    which expressions are locks.
    """

    def __init__(self, is_lock: Callable[[str], bool]) -> None:
        self._is_lock = is_lock

    def _lock_key(self, expr: ast.AST | None) -> str | None:
        if expr is None:
            return None
        key = dotted_expr(expr)
        if key is not None and self._is_lock(key):
            return key
        return None

    def transfer(self, node: CFGNode, state: object) -> object:
        held: frozenset[str] = state  # type: ignore[assignment]
        if node.kind == "with_enter":
            key = self._lock_key(node.stmt)
            if key is not None:
                return held | {key}
            return held
        if node.kind == "with_exit":
            key = self._lock_key(node.stmt)
            if key is not None:
                return held - {key}
            return held
        if node.kind == "stmt" and node.stmt is not None:
            return self._transfer_stmt(node.stmt, held)
        return held

    def _transfer_stmt(self, stmt: ast.AST, held: frozenset[str]) -> object:
        # Loop headers are CFG nodes carrying the whole compound
        # statement; only their header expression executes at the node.
        if isinstance(stmt, ast.While):
            stmt = stmt.test
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            stmt = stmt.iter
        for call in _calls_in(stmt):
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "acquire",
                "release",
            ):
                key = self._lock_key(func.value)
                if key is None:
                    continue
                held = held | {key} if func.attr == "acquire" else held - {key}
        return held

    def solve(self, cfg: CFG) -> dict[int, frozenset[str]]:
        states = solve_forward(
            cfg,
            initial=frozenset(),
            transfer=self.transfer,
            join=lambda a, b: a & b,  # type: ignore[operator]
        )
        return {index: state for index, state in states.items()}  # type: ignore[misc]


def _calls_in(stmt: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            yield node
