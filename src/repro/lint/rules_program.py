"""Dataflow- and project-powered analyses: RACE002, DET005, API001.

These rules are what the whole-program engine exists for:

- ``RACE002`` — handoff escape check: an object passed to a worker
  (``executor.submit(fn, obj)``, ``threading.Thread(args=(obj,))``)
  must not also be mutated by the submitting thread afterwards outside
  a lock; the worker may be reading it concurrently (threads) or
  pickling it lazily (process pools).  The :mod:`repro.lint.dataflow`
  CFG supplies what is reachable after the handoff and the held-locks
  lattice what is guarded there.
- ``DET005`` — order-sensitive export detection.  DET003 flags raw
  set/``.keys()`` iteration syntactically; DET005 follows the *value*:
  a list built by iterating an unordered container (sets,
  ``.keys()``/``.values()``/``.items()`` without ``sorted()``) that
  flows — directly or through a same-module function's return value —
  into a JSON sink bakes iteration order into exported bytes, which
  ``sort_keys=True`` cannot repair for lists.
- ``API001`` — cross-module symbol hygiene over the project model:
  ``from``-imports of names the source module does not define, and
  ``__all__`` exports no other file in the repo ever references.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator

from repro.lint.dataflow import FunctionNode, HeldLocks, build_cfg, dotted_expr
from repro.lint.engine import FileContext, LintRule, register_rule
from repro.lint.findings import Finding
from repro.lint.project import ProjectModel

# Deliberately no __all__: rule classes are reached through the
# register_rule registry (rule_catalog), never imported by name —
# exporting them here is exactly the dead surface API001 flags.


def _under(rel: str, *prefixes: str) -> bool:
    return any(rel == p or rel.startswith(p + "/") for p in prefixes)


#: Method names whose call mutates the receiver in place.  Writes
#: through these count exactly like attribute/subscript stores.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)


@register_rule
class HandoffEscapeRule(LintRule):
    """RACE002: objects handed to workers must not be mutated afterwards.

    ``executor.submit(fn, obj)`` / ``threading.Thread(args=(obj,))``
    gives another thread (or a lazily-pickling process-pool feeder) a
    reference to ``obj``; the submitting function mutating the same
    object afterwards outside a lock is a data race with its own worker.
    Rebinding the local to a fresh object ends the hazard.
    """

    code = "RACE002"
    title = "mutation of an object already handed to a worker"
    hint = (
        "finish mutating before the handoff, hand over a copy, or guard "
        "both sides with one lock"
    )
    node_types = ()

    _SCOPE = ("src/repro/serving", "src/repro/experiments")

    def applies_to(self, rel_path: str) -> bool:
        return _under(rel_path, *self._SCOPE)

    def end_file(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in ast.walk(ctx.tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(fn, ctx)

    @staticmethod
    def _handoff_args(call: ast.Call) -> list[ast.expr]:
        func = call.func
        dotted = dotted_expr(func)
        if isinstance(func, ast.Attribute) and func.attr == "submit":
            return list(call.args[1:]) + [
                kw.value for kw in call.keywords if kw.arg is not None
            ]
        if dotted in ("threading.Thread", "Thread"):
            shipped: list[ast.expr] = []
            for keyword in call.keywords:
                if keyword.arg == "args" and isinstance(
                    keyword.value, (ast.Tuple, ast.List)
                ):
                    shipped.extend(keyword.value.elts)
                elif keyword.arg == "kwargs" and isinstance(
                    keyword.value, ast.Dict
                ):
                    shipped.extend(v for v in keyword.value.values)
            return shipped
        return []

    def _check_function(
        self, fn: FunctionNode, ctx: FileContext
    ) -> Iterator[Finding]:
        cfg = build_cfg(fn)
        lock_states = HeldLocks(lambda key: "lock" in key.lower()).solve(cfg)
        handoffs: list[tuple[int, set[str], set[str]]] = []
        for index, stmt in cfg.stmt_nodes():
            for call in (
                node for node in ast.walk(stmt) if isinstance(node, ast.Call)
            ):
                shipped = self._handoff_args(call)
                if not shipped:
                    continue
                names: set[str] = set()
                attrs: set[str] = set()
                for arg in shipped:
                    if isinstance(arg, ast.Name):
                        names.add(arg.id)
                    elif (
                        isinstance(arg, ast.Attribute)
                        and isinstance(arg.value, ast.Name)
                        and arg.value.id == "self"
                    ):
                        attrs.add(arg.attr)
                if names or attrs:
                    handoffs.append((index, names, attrs))
        if not handoffs:
            return
        for start, names, attrs in handoffs:
            reachable = cfg.reachable_from(start)
            # A rebind of the local anywhere downstream means the name no
            # longer denotes the shipped object; drop it entirely rather
            # than risk flagging the fresh one.
            live_names = set(names)
            for index in reachable:
                node = cfg.nodes[index]
                if node.kind != "stmt" or not isinstance(node.stmt, ast.Assign):
                    continue
                for target in node.stmt.targets:
                    if isinstance(target, ast.Name) and target.id in live_names:
                        live_names.discard(target.id)
            for index in sorted(reachable):
                node = cfg.nodes[index]
                if node.kind != "stmt" or node.stmt is None:
                    continue
                held = lock_states.get(index)
                if held is None or held:
                    continue
                yield from self._writes_to(
                    node.stmt, live_names, attrs, ctx
                )

    def _writes_to(
        self,
        stmt: ast.AST,
        names: set[str],
        attrs: set[str],
        ctx: FileContext,
    ) -> Iterator[Finding]:
        if isinstance(stmt, ast.While):
            stmt = stmt.test
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            stmt = stmt.iter

        def hits(base: ast.AST) -> str | None:
            if isinstance(base, ast.Name) and base.id in names:
                return base.id
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and base.attr in attrs
            ):
                return f"self.{base.attr}"
            if isinstance(base, ast.Subscript):
                return hits(base.value)
            return None

        targets: list[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                owner = hits(target.value)
                if owner is not None:
                    yield self.finding(
                        ctx,
                        target,
                        f"{owner} was handed to a worker above and is "
                        "mutated here by the submitting thread",
                    )
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS
            ):
                owner = hits(node.func.value)
                if owner is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"{owner} was handed to a worker above and is "
                        f"mutated here via .{node.func.attr}()",
                    )


# -- DET005 ------------------------------------------------------------------

def _unordered_origin(expr: ast.AST) -> str | None:
    """Describe *expr* when iterating it has no guaranteed stable order."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("keys", "values", "items")
            and not expr.args
        ):
            return f".{func.attr}()"
    return None


@register_rule
class OrderSensitiveExportRule(LintRule):
    """DET005: unordered iteration must not flow into JSON exports.

    DET003 polices the loop syntactically; DET005 follows the value.  A
    list built by iterating a set or a dict view (``.keys()`` /
    ``.values()`` / ``.items()``) without ``sorted()`` carries its
    iteration order as data.  When that list reaches ``json.dump(s)``
    or ``write_json_atomic`` — directly, through a local, or through
    the return value of another function in the same module —
    ``sort_keys=True`` cannot fix it: key sorting orders dict keys, not
    list elements.  Dicts built the same way are exempt (DET004 already
    forces sorted keys on export).
    """

    code = "DET005"
    title = "order-tainted value reaches a JSON export"
    hint = (
        "iterate sorted(...) when building anything that feeds an "
        "export, or sort the list before serialising it"
    )
    node_types = ()

    def applies_to(self, rel_path: str) -> bool:
        return _under(
            rel_path,
            "src/repro/experiments",
            "src/repro/faults",
            "src/repro/network",
            "src/repro/serving",
        )

    def end_file(self, ctx: FileContext) -> Iterator[Finding]:
        functions: dict[str, FunctionNode] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)

        # Pass 1 (to fixpoint): which module functions return
        # order-tainted lists.
        tainted_fns: set[str] = set()
        for _ in range(len(functions) + 1):
            grew = False
            for name, fn in functions.items():
                if name in tainted_fns:
                    continue
                tainted, _sinks = self._analyse(fn, tainted_fns)
                if tainted:
                    tainted_fns.add(name)
                    grew = True
            if not grew:
                break

        # Pass 2: report sink hits everywhere.
        for fn in functions.values():
            _tainted, sinks = self._analyse(fn, tainted_fns)
            for offender, origin in sinks:
                yield self.finding(
                    ctx,
                    offender,
                    f"value built from unordered iteration ({origin}) "
                    "flows into a JSON export",
                )

    @staticmethod
    def _is_sink(call: ast.Call) -> bool:
        dotted = dotted_expr(call.func)
        if dotted in ("json.dump", "json.dumps"):
            return True
        if dotted is not None and dotted.split(".")[-1] == "write_json_atomic":
            return True
        return False

    def _analyse(
        self, fn: FunctionNode, tainted_fns: set[str]
    ) -> tuple[bool, list[tuple[ast.AST, str]]]:
        """(returns-tainted-list?, sink hits) for one function."""
        tainted_locals: dict[str, str] = {}
        returns_tainted = False
        sink_hits: list[tuple[ast.AST, str]] = []

        def expr_taint(expr: ast.AST) -> str | None:
            """Why *expr* is an order-tainted list, if it is."""
            if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
                for gen in expr.generators:
                    origin = _unordered_origin(gen.iter)
                    if origin is not None:
                        return origin
                return None
            if isinstance(expr, ast.Call):
                func = expr.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in ("list", "tuple")
                    and len(expr.args) == 1
                ):
                    origin = _unordered_origin(expr.args[0])
                    if origin is not None:
                        return origin
                    return expr_taint(expr.args[0])
                if isinstance(func, ast.Name) and func.id in tainted_fns:
                    return f"{func.id}() (order-tainted in this module)"
                return None
            if isinstance(expr, ast.Name):
                return tainted_locals.get(expr.id)
            return None

        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    origin = expr_taint(node.value)
                    if origin is not None:
                        tainted_locals[target.id] = origin
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                origin = _unordered_origin(node.iter)
                if origin is None:
                    continue
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in ("append", "extend", "insert")
                        and isinstance(sub.func.value, ast.Name)
                    ):
                        tainted_locals[sub.func.value.id] = origin

        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                if expr_taint(node.value) is not None:
                    returns_tainted = True
            elif isinstance(node, ast.Call) and self._is_sink(node):
                for arg in list(node.args) + [
                    kw.value for kw in node.keywords if kw.arg is not None
                ]:
                    origin = expr_taint(arg)
                    if origin is not None:
                        sink_hits.append((arg, origin))
        return returns_tainted, sink_hits


# -- API001 ------------------------------------------------------------------

class ProjectRule(LintRule):
    """Base class for rules that run once over the whole project model."""

    project_wide = True

    def check_project(
        self,
        project: ProjectModel,
        lint_files: frozenset[str],
        source_line_for: Callable[[str, int], str],
    ) -> Iterator[Finding]:
        """Yield findings across the model (only for files being linted)."""
        return iter(())


@register_rule
class CrossModuleSymbolRule(ProjectRule):
    """API001: imports must resolve; exports must be used somewhere.

    Two whole-program checks joined on the symbol table: (1) a
    ``from repro.x import name`` whose source module defines no such
    name (nor a submodule of that name) is a latent ImportError that
    per-file linting cannot see; (2) a name a module lists in
    ``__all__`` that no other file in the repo references is dead
    public surface — either the feature lost its callers or the export
    was never wired up.  Package ``__init__`` re-export lists are
    exempt from the dead-export check (they are the external API).
    """

    code = "API001"
    title = "cross-module symbol mismatch"
    hint = (
        "fix the import to a name the module defines, or remove the "
        "unused name from __all__ (and delete the dead code it exports)"
    )

    def check_project(
        self,
        project: ProjectModel,
        lint_files: frozenset[str],
        source_line_for: Callable[[str, int], str],
    ) -> Iterator[Finding]:
        for rel_path in sorted(lint_files):
            info = project.files.get(rel_path)
            if info is None:
                continue
            for edge in info.imports:
                if edge.name in (None, "*"):
                    continue
                if edge.module not in project.modules:
                    continue
                if not project.module_defines(edge.module, edge.name):
                    yield self._make(
                        rel_path,
                        edge.lineno,
                        f"import of {edge.name!r} from {edge.module}, "
                        "which defines no such name",
                        source_line_for,
                    )
            if (
                info.exports
                and _under(rel_path, "src/repro")
                and not rel_path.endswith("__init__.py")
            ):
                for name, lineno in info.exports:
                    if name not in info.defined:
                        continue  # re-export of an import: used by definition
                    if name in info.refs:
                        # A def/class definition does not put its own name
                        # into refs, so this means the module itself uses
                        # the name (constructs it, returns it, annotates
                        # with it) — the export is wired to used code.
                        continue
                    if project.referenced_anywhere_except(name, rel_path):
                        continue
                    yield self._make(
                        rel_path,
                        lineno,
                        f"{name!r} is exported in __all__ but never "
                        "referenced anywhere else in the repo",
                        source_line_for,
                    )

    def _make(
        self,
        rel_path: str,
        lineno: int,
        message: str,
        source_line_for: Callable[[str, int], str],
    ) -> Finding:
        return Finding(
            path=rel_path,
            line=lineno,
            col=0,
            code=self.code,
            message=message,
            hint=self.hint,
            source_line=source_line_for(rel_path, lineno),
        )
