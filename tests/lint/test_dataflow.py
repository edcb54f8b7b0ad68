"""The dataflow layer: CFG shape and the held-locks lattice."""

from __future__ import annotations

import ast
import textwrap

from repro.lint.dataflow import HeldLocks, build_cfg, dotted_expr


def _fn(source: str) -> ast.FunctionDef:
    # lstrip the leading blank line so `def` sits on line 1 and the
    # line numbers asserted below match what you count in the snippet.
    node = ast.parse(textwrap.dedent(source).lstrip("\n")).body[0]
    assert isinstance(node, ast.FunctionDef)
    return node


def _write_lines(cfg, states) -> dict[int, frozenset]:
    """lineno -> held set, for every attribute-assign statement node."""
    result = {}
    for index, stmt in cfg.stmt_nodes():
        held = states.get(index)
        if held is None:
            continue
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            result[stmt.lineno] = held
    return result


def _self_lock(key: str) -> bool:
    return key == "self._lock"


class TestCFG:
    def test_straight_line_statements_chain(self):
        cfg = build_cfg(_fn("def f(self):\n    a = 1\n    b = 2\n"))
        stmts = list(cfg.stmt_nodes())
        assert len(stmts) == 2

    def test_return_edges_to_exit_and_kills_fallthrough(self):
        cfg = build_cfg(
            _fn(
                """
                def f(self):
                    return 1
                    unreachable = 2
                """
            )
        )
        # The statement after `return` has no incoming edge from it.
        states = HeldLocks(_self_lock).solve(cfg)
        lines = _write_lines(cfg, states)
        assert lines == {}  # the only Assign is unreachable

    def test_branch_rejoins(self):
        cfg = build_cfg(
            _fn(
                """
                def f(self, flag):
                    if flag:
                        a = 1
                    else:
                        a = 2
                    b = 3
                """
            )
        )
        states = HeldLocks(_self_lock).solve(cfg)
        lines = _write_lines(cfg, states)
        assert set(lines) == {3, 5, 6}


class TestHeldLocks:
    def test_with_lock_body_is_held_and_released_after(self):
        fn = _fn(
            """
            def f(self):
                with self._lock:
                    self.a = 1
                self.b = 2
            """
        )
        cfg = build_cfg(fn)
        lines = _write_lines(cfg, HeldLocks(_self_lock).solve(cfg))
        assert lines[3] == frozenset({"self._lock"})
        assert lines[4] == frozenset()

    def test_acquire_release_pairs_track(self):
        fn = _fn(
            """
            def f(self):
                self._lock.acquire()
                self.a = 1
                self._lock.release()
                self.b = 2
            """
        )
        cfg = build_cfg(fn)
        lines = _write_lines(cfg, HeldLocks(_self_lock).solve(cfg))
        assert lines[3] == frozenset({"self._lock"})
        assert lines[5] == frozenset()

    def test_join_is_intersection_over_paths(self):
        # Lock held on only one arm: the join point holds nothing.
        fn = _fn(
            """
            def f(self, flag):
                if flag:
                    self._lock.acquire()
                self.a = 1
            """
        )
        cfg = build_cfg(fn)
        lines = _write_lines(cfg, HeldLocks(_self_lock).solve(cfg))
        assert lines[4] == frozenset()

    def test_loop_body_acquire_does_not_leak_into_the_header(self):
        # The header node carries the whole For statement; only its
        # iterable executes there, so an acquire() in the body must not
        # be credited to the header's own transfer.
        fn = _fn(
            """
            def f(self, items):
                for item in items:
                    self._lock.acquire()
                    self.a = 1
                    self._lock.release()
                self.b = 2
            """
        )
        cfg = build_cfg(fn)
        lines = _write_lines(cfg, HeldLocks(_self_lock).solve(cfg))
        assert lines[4] == frozenset({"self._lock"})
        assert lines[6] == frozenset()


def test_dotted_expr_handles_chains_and_rejects_calls():
    expr = ast.parse("a.b.c", mode="eval").body
    assert dotted_expr(expr) == "a.b.c"
    call = ast.parse("f().x", mode="eval").body
    assert dotted_expr(call) is None
