"""The repo-specific rule catalog.

Each rule encodes one invariant the reproduction's guarantees rest on;
the rule docstring is the normative statement, the ``hint`` the standing
fix.  Codes group by family:

- ``DET*`` — determinism (byte-identical reruns under one seed)
- ``INV*`` — module-privacy invariants
- ``TEL*`` — telemetry naming discipline
- ``CFG*`` — config serialisability

See ``docs/static-analysis.md`` for rationale and the suppression
policy.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.lint.engine import FileContext, LintRule, register_rule
from repro.lint.findings import Finding

# Deliberately no __all__: rule classes are reached through the
# register_rule registry (rule_catalog), never imported by name —
# exporting them here is exactly the dead surface API001 flags.


def _under(rel: str, *prefixes: str) -> bool:
    """Whether *rel* lies at or below any of the given directory prefixes."""
    return any(rel == p or rel.startswith(p + "/") for p in prefixes)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportTrackingRule(LintRule):
    """Base for rules that must resolve names through the file's imports.

    The alias maps are read off the file's
    :class:`~repro.lint.project.ModuleInfo` summary — the same import
    resolution the whole-program model uses — so relative imports
    arrive pre-resolved to absolute dotted modules and every
    import-aware rule agrees with the project graph.
    """

    def begin_file(self, ctx: FileContext) -> None:
        #: local alias -> imported module path ("np" -> "numpy")
        self.module_alias: dict[str, str] = {}
        #: local name -> (module path, original name) for from-imports
        self.from_names: dict[str, tuple[str, str]] = {}
        for edge in ctx.module_info.imports:
            if edge.name is None:
                self.module_alias[edge.alias] = edge.module
            elif edge.name != "*":
                self.from_names[edge.alias] = (edge.module, edge.name)

    def resolve_call(self, func: ast.AST) -> tuple[str, str] | None:
        """Resolve a call's func to ``(module, dotted_tail)`` via imports.

        ``time.monotonic()`` -> ("time", "monotonic"); with ``import
        datetime as dt``, ``dt.datetime.now()`` -> ("datetime",
        "datetime.now"); with ``from datetime import datetime``,
        ``datetime.now()`` -> ("datetime", "datetime.now").  Returns
        None when the root is not an imported module or class.
        """
        dotted = _dotted(func)
        if dotted is None:
            return None
        root, _, tail = dotted.partition(".")
        if root in self.module_alias:
            module = self.module_alias[root]
            if "." in module and not tail:
                return None
            if "." in module:  # e.g. import numpy.random as nr
                mod_root, _, mod_tail = module.partition(".")
                return mod_root, f"{mod_tail}.{tail}"
            return module, tail
        if root in self.from_names:
            module, original = self.from_names[root]
            tail_full = original if not tail else f"{original}.{tail}"
            return module, tail_full
        return None


@register_rule
class WallClockRule(_ImportTrackingRule):
    """DET001: no wall-clock reads outside ``telemetry/``.

    Simulation state must be a pure function of the seed and the config.
    ``time.time``/``time.monotonic``/``datetime.now`` smuggle the host
    clock into that state and break bit-identical replay.  Wall-clock
    profiling belongs to the telemetry subsystem (tracer spans), which
    keeps it out of seed-stable data.  ``time.perf_counter`` is audited
    too: it is allowed in benchmark harnesses (outside ``src/``) and in
    the explicitly declared wall-measurement sites
    (:data:`_PERF_COUNTER_ALLOWED` — the scaling sweep's throughput
    timers and the serving recovery lane's recovery-time measurement),
    but nowhere else — in particular not in the serving durability
    write paths, which must stay virtual-clock only.
    """

    code = "DET001"
    title = "wall-clock read in a simulation path"
    hint = (
        "derive times from the simulation clock (Simulator.now); "
        "wall-clock spans belong in repro.telemetry"
    )
    node_types = (ast.Call,)

    _FORBIDDEN = {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("datetime", "datetime.now"),
        ("datetime", "datetime.utcnow"),
        ("datetime", "datetime.today"),
        ("datetime", "date.today"),
    }

    #: perf_counter is wall-clock too — these call sites are forbidden
    #: except in the declared measurement modules below.
    _PROFILING = {
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
    }

    #: Modules allowed to read perf_counter: wall-time *measurement*
    #: that decorates reports without feeding simulation state.
    _PERF_COUNTER_ALLOWED = {
        "src/repro/experiments/scaling.py",
        "src/repro/serving/recovery.py",
    }

    def applies_to(self, rel_path: str) -> bool:
        return _under(rel_path, "src/repro") and not _under(
            rel_path, "src/repro/telemetry"
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        resolved = self.resolve_call(node.func)
        if resolved in self._FORBIDDEN:
            module, tail = resolved
            yield self.finding(
                ctx, node, f"wall-clock call {module}.{tail}() in a sim path"
            )
        elif (
            resolved in self._PROFILING
            and ctx.rel_path not in self._PERF_COUNTER_ALLOWED
        ):
            module, tail = resolved
            yield self.finding(
                ctx,
                node,
                f"wall-clock call {module}.{tail}() outside the declared "
                "measurement sites",
            )


@register_rule
class GlobalRandomRule(_ImportTrackingRule):
    """DET002: no global-state RNG calls, anywhere.

    ``random.random()`` and ``numpy.random.rand()`` draw from hidden
    process-global state, so any new caller perturbs every stream drawn
    after it and reruns stop being comparable.  All randomness must come
    from seeded constructors — :class:`repro.util.rng.RngRegistry`
    streams (named, independent per component) or an explicit
    ``numpy.random.default_rng(seed)`` / ``random.Random(seed)``.
    """

    code = "DET002"
    title = "global-state RNG call"
    hint = (
        "draw from a named RngRegistry stream (repro.util.rng) or a "
        "seeded random.Random / numpy.random.default_rng instance"
    )
    node_types = (ast.Call,)

    #: Instance/seeded constructors that are fine to reference.
    _NUMPY_ALLOWED = {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "RandomState",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
    _STDLIB_ALLOWED = {"Random"}

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        resolved = self.resolve_call(node.func)
        if resolved is None:
            return
        module, tail = resolved
        if module == "random":
            if "." not in tail and tail not in self._STDLIB_ALLOWED:
                yield self.finding(
                    ctx, node, f"global-state RNG call random.{tail}()"
                )
        elif module == "numpy":
            prefix, _, leaf = tail.rpartition(".")
            if prefix == "random" and leaf not in self._NUMPY_ALLOWED:
                yield self.finding(
                    ctx, node, f"global-state RNG call numpy.random.{leaf}()"
                )


@register_rule
class UnsortedIterationRule(LintRule):
    """DET003: no unordered-container iteration in report-feeding packages.

    ``experiments/``, ``faults/``, ``network/`` and ``serving/`` produce
    the data that lands in reports and exported JSON (for ``serving/``,
    the byte-compared trace files and replay reports).  Iterating a set
    (or a raw ``.keys()`` view) there makes row order an accident of
    hashing or insertion history; an explicit ``sorted()`` makes the
    ordering part of the contract.
    """

    code = "DET003"
    title = "unordered iteration in a report path"
    hint = "wrap the iterable in sorted(...) to pin the ordering"
    node_types = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp,
                  ast.GeneratorExp, ast.Call)

    def applies_to(self, rel_path: str) -> bool:
        return _under(
            rel_path,
            "src/repro/experiments",
            "src/repro/faults",
            "src/repro/network",
            "src/repro/serving",
        )

    @staticmethod
    def _unordered(expr: ast.AST) -> str | None:
        """Describe *expr* when it is an unordered/view iterable."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id in (
                "set",
                "frozenset",
            ):
                return f"{expr.func.id}(...)"
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "keys"
                and not expr.args
            ):
                return ".keys()"
        return None

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        sources: list[ast.AST] = []
        if isinstance(node, ast.For):
            sources.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            sources.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
            ):
                sources.append(node.args[0])
        for expr in sources:
            what = self._unordered(expr)
            if what is not None:
                yield self.finding(
                    ctx,
                    expr,
                    f"iterating {what} without sorted() in a report path",
                )


@register_rule
class UnsortedJsonRule(_ImportTrackingRule):
    """DET004: JSON exports must pass ``sort_keys=True``.

    Every artifact the repo ships (run summaries, sweep checkpoints,
    resilience reports, telemetry snapshots) is compared byte-for-byte
    across reruns; an export without ``sort_keys=True`` ties the byte
    stream to dict construction order.  ``json.loads(json.dumps(x))``
    round-trips are exempt — the intermediate string is never persisted.
    """

    code = "DET004"
    title = "JSON export without sort_keys=True"
    hint = "pass sort_keys=True so exported artifacts are byte-stable"
    node_types = (ast.Call,)

    def applies_to(self, rel_path: str) -> bool:
        return _under(rel_path, "src/repro")

    def begin_file(self, ctx: FileContext) -> None:
        super().begin_file(ctx)
        self._exempt: set[int] = set()

    def _is_json_call(self, func: ast.AST, names: tuple[str, ...]) -> bool:
        resolved = self.resolve_call(func)
        return resolved is not None and resolved[0] == "json" and resolved[1] in names

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        # Parents are visited before children (pre-order walk), so mark
        # round-tripped dumps before the dumps node itself is dispatched.
        if self._is_json_call(node.func, ("loads",)) and node.args:
            inner = node.args[0]
            if isinstance(inner, ast.Call) and self._is_json_call(
                inner.func, ("dumps",)
            ):
                self._exempt.add(id(inner))
        if not self._is_json_call(node.func, ("dump", "dumps")):
            return
        if id(node) in self._exempt:
            return
        for keyword in node.keywords:
            if keyword.arg is None:  # **kwargs splat: cannot see inside
                return
            if keyword.arg == "sort_keys":
                value = keyword.value
                if isinstance(value, ast.Constant) and value.value is False:
                    break  # explicit False: flag it
                return
        yield self.finding(
            ctx, node, "json export without sort_keys=True"
        )


@register_rule
class PrivatePeekRule(LintRule):
    """INV002: no reads of another module's private attributes.

    A ``_name`` attribute is a contract between a class and its own
    module; code elsewhere that peeks at it (``obj._serving``,
    ``channel._burst``) couples itself to internals that are free to
    change without notice — the harness's old ``associations._serving``
    read is the motivating bug.  Reads of ``self._x``/``cls._x`` are
    fine, as is touching any ``_name`` the *current* module itself
    defines (module-level privacy: helper classes in one file may share
    internals).  The one deliberate peek site, the broker's inlined
    ``LocationDB.store``, carries inline suppressions with its measured
    reason; anything new needs a public accessor instead.
    """

    code = "INV002"
    title = "cross-module private-attribute peek"
    hint = (
        "expose a public accessor/property on the owning class instead "
        "of reading its _private attribute from outside its module"
    )
    node_types = (ast.Attribute,)

    def applies_to(self, rel_path: str) -> bool:
        return _under(rel_path, "src/repro")

    def begin_file(self, ctx: FileContext) -> None:
        #: every _name this module itself defines: self/cls attribute
        #: assignments plus anything bound in a class body (methods,
        #: class attributes, annotations).
        defined: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    list(node.targets)
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in ("self", "cls")
                    ):
                        defined.add(target.attr)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        defined.add(stmt.name)
                    elif isinstance(stmt, ast.Assign):
                        for t in stmt.targets:
                            if isinstance(t, ast.Name):
                                defined.add(t.id)
                    elif isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        defined.add(stmt.target.id)
        self._module_private = defined

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Attribute)
        if not isinstance(node.ctx, ast.Load):
            return
        name = node.attr
        if not name.startswith("_") or name.startswith("__"):
            return
        receiver = node.value
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            return
        if name in self._module_private:
            return
        yield self.finding(
            ctx,
            node,
            f"read of private attribute .{name} on an object from "
            "another module",
        )


@register_rule
class MetricNameRule(_ImportTrackingRule):
    """TEL001: telemetry metric names are literal, dotted, lowercase.

    Dashboards, docs and grep all key on metric names; a name built with
    an f-string or a variable cannot be found by reading the code, and a
    camel-cased one breaks the ``net.arq.retransmits`` convention every
    exporter assumes.  Per-entity variation belongs in labels
    (``counter("net.channel.sent", channel=name)``), not the name.
    """

    code = "TEL001"
    title = "non-literal or badly-formed metric name"
    hint = (
        "use a literal dotted lowercase name (e.g. 'net.queue.depth') "
        "and put variable parts into labels"
    )
    node_types = (ast.Call,)

    _METHODS = ("counter", "gauge", "histogram")
    _NAME_RE = re.compile(r"[a-z0-9_]+(\.[a-z0-9_]+)+")

    def applies_to(self, rel_path: str) -> bool:
        return _under(rel_path, "src/repro") and not _under(
            rel_path, "src/repro/telemetry"
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._METHODS:
            return
        # Module-level functions that merely share a method name (e.g.
        # numpy.histogram) are not telemetry instruments: skip calls whose
        # receiver is an imported module.
        if isinstance(func.value, ast.Name) and func.value.id in self.module_alias:
            return
        name_expr: ast.AST | None = node.args[0] if node.args else None
        if name_expr is None:
            for keyword in node.keywords:
                if keyword.arg == "name":
                    name_expr = keyword.value
                    break
        if name_expr is None:
            return
        if not isinstance(name_expr, ast.Constant) or not isinstance(
            name_expr.value, str
        ):
            yield self.finding(
                ctx,
                name_expr,
                f"metric name passed to .{func.attr}() is not a string "
                "literal (not greppable)",
            )
        elif not self._NAME_RE.fullmatch(name_expr.value):
            yield self.finding(
                ctx,
                name_expr,
                f"metric name {name_expr.value!r} is not dotted lowercase",
            )


@register_rule
class ConfigDefaultRule(LintRule):
    """CFG001: config dataclass defaults must be config_io-serialisable.

    ``*Config`` / ``*Spec`` dataclasses round-trip through TOML/JSON
    (``experiments.config_io``) and are embedded in sweep checkpoints.
    A default that is an arbitrary import-time expression — a direct
    call, a lambda factory, a mutable literal — either breaks the
    round-trip or silently shares state between instances.  Allowed:
    literals, tuples of literals, named constants, enum members, and
    ``field(default_factory=<named callable>)``.
    """

    code = "CFG001"
    title = "non-serialisable config dataclass default"
    hint = (
        "use a literal/named-constant default, or "
        "field(default_factory=SomeCallable) for structured fields"
    )
    node_types = (ast.ClassDef,)

    def applies_to(self, rel_path: str) -> bool:
        return _under(rel_path, "src/repro")

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            dotted = _dotted(target)
            if dotted in ("dataclass", "dataclasses.dataclass"):
                return True
        return False

    def _default_ok(self, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Constant):
            return True
        if isinstance(expr, ast.UnaryOp) and isinstance(
            expr.op, (ast.USub, ast.UAdd)
        ):
            return self._default_ok(expr.operand)
        if isinstance(expr, ast.Tuple):
            return all(self._default_ok(el) for el in expr.elts)
        if isinstance(expr, ast.Attribute):
            return _dotted(expr) is not None  # enum member / namespaced const
        if isinstance(expr, ast.Name):
            return expr.id.isupper() or expr.id[:1].isupper()
        if isinstance(expr, ast.Call):
            dotted = _dotted(expr.func)
            if dotted not in ("field", "dataclasses.field"):
                return False
            for keyword in expr.keywords:
                if keyword.arg == "default":
                    if not self._default_ok(keyword.value):
                        return False
                elif keyword.arg == "default_factory":
                    if _dotted(keyword.value) is None:
                        return False  # lambda or computed factory
            return True
        return False

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ClassDef)
        if not node.name.endswith(("Config", "Spec")):
            return
        if not self._is_dataclass(node):
            return
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                continue
            if not self._default_ok(stmt.value):
                target = stmt.target
                field_name = target.id if isinstance(target, ast.Name) else "?"
                yield self.finding(
                    ctx,
                    stmt.value,
                    f"default of {node.name}.{field_name} is not a "
                    "config_io-serialisable expression",
                )
