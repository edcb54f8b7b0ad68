"""The whole-program project model: symbols, exports and imports.

Per-file rules see one tree at a time; the analyses added with the
whole-program engine (``API001`` cross-module symbol checks, the
project-aware import resolution every ``_ImportTrackingRule`` now rides
on) need a repo-wide view.  :class:`ProjectModel` provides it as a
*summary* — one :class:`ModuleInfo` per file holding the module's
defined names, ``__all__`` exports, resolved import edges and the set
of identifiers it references — rather than retained ASTs, so the model
is cheap to hold for a 230+-file repo, JSON-serialisable, and cacheable
by content hash (a file whose bytes did not change is never re-parsed;
see :class:`ModelCache`).

Import edges resolve ``from``-imports, aliases and relative imports the
same way DET002's per-file tracker always has, but to *absolute dotted
module names*, so import edges can be joined against the symbol
table: ``from ..broker import GridBroker`` inside
``repro.serving.store`` becomes an edge to module ``repro.broker``
importing name ``GridBroker``.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "ImportEdge",
    "ModuleInfo",
    "ProjectModel",
    "ModelCache",
    "module_name_for",
    "extract_module",
    "content_hash",
]

#: Bump when the extracted summary shape changes: stale cache entries
#: from older engine versions must never be reused.
MODEL_VERSION = 2


def content_hash(source: str) -> str:
    """Stable identity of one file's bytes (sha256 hex, truncated)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:24]


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/``-rooted files resolve to their importable name
    (``src/repro/a/b.py`` -> ``repro.a.b``); everything else keeps its
    directory chain (``tests/lint/test_cli.py`` -> ``tests.lint.test_cli``)
    so test/bench modules still get unique graph nodes.
    """
    parts = list(Path(rel_path).with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class ImportEdge:
    """One imported binding: *alias* in this module names *name* of *module*.

    ``name`` is ``None`` for plain ``import X [as alias]`` (the binding
    is the module object itself) and ``"*"`` for star imports.
    """

    module: str
    name: str | None
    alias: str
    lineno: int

    def to_list(self) -> list[Any]:
        return [self.module, self.name, self.alias, self.lineno]

    @classmethod
    def from_list(cls, row: Sequence[Any]) -> "ImportEdge":
        return cls(row[0], row[1], row[2], int(row[3]))


@dataclass
class ModuleInfo:
    """The whole-program summary of one python file."""

    rel_path: str
    module: str
    hash: str
    #: every top-level binding (defs, classes, assignments, imports),
    #: including those under top-level ``if``/``try`` arms
    defined: frozenset[str]
    #: ``__all__`` entries with the lineno of each string constant, or
    #: None when the module has no statically-resolvable ``__all__``
    exports: tuple[tuple[str, int], ...] | None
    imports: tuple[ImportEdge, ...]
    #: every identifier the module mentions (Name ids + Attribute attrs);
    #: the usage side of the cross-module dead-symbol check
    refs: frozenset[str] = frozenset()
    #: a module-level ``__getattr__`` makes its exports dynamic — the
    #: undefined-import check must not second-guess it
    dynamic: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "rel_path": self.rel_path,
            "module": self.module,
            "hash": self.hash,
            "defined": sorted(self.defined),
            "exports": (
                None
                if self.exports is None
                else [[name, line] for name, line in self.exports]
            ),
            "imports": [edge.to_list() for edge in self.imports],
            "refs": sorted(self.refs),
            "dynamic": self.dynamic,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModuleInfo":
        exports = data["exports"]
        return cls(
            rel_path=data["rel_path"],
            module=data["module"],
            hash=data["hash"],
            defined=frozenset(data["defined"]),
            exports=(
                None
                if exports is None
                else tuple((name, int(line)) for name, line in exports)
            ),
            imports=tuple(ImportEdge.from_list(row) for row in data["imports"]),
            refs=frozenset(data["refs"]),
            dynamic=bool(data["dynamic"]),
        )


def _resolve_relative(package_parts: list[str], level: int, module: str | None) -> str:
    """Absolute dotted module for a level-*level* relative import."""
    if level <= 0:
        return module or ""
    base = package_parts[: len(package_parts) - (level - 1)]
    if module:
        base = base + module.split(".")
    return ".".join(base)


def _top_level_bindings(body: Iterable[ast.stmt], into: set[str]) -> None:
    """Collect names bound by *body*, descending into if/try/with arms.

    Function and class bodies are *not* descended: a name bound there is
    not a module attribute.
    """
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            into.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                _binding_names(target, into)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            _binding_names(stmt.target, into)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                into.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if alias.name != "*":
                    into.add(alias.asname or alias.name)
        elif isinstance(stmt, ast.If):
            _top_level_bindings(stmt.body, into)
            _top_level_bindings(stmt.orelse, into)
        elif isinstance(stmt, ast.Try):
            _top_level_bindings(stmt.body, into)
            for handler in stmt.handlers:
                _top_level_bindings(handler.body, into)
            _top_level_bindings(stmt.orelse, into)
            _top_level_bindings(stmt.finalbody, into)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            _top_level_bindings(stmt.body, into)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            _binding_names(stmt.target, into)
            _top_level_bindings(stmt.body, into)
            _top_level_bindings(stmt.orelse, into)


def _binding_names(target: ast.AST, into: set[str]) -> None:
    if isinstance(target, ast.Name):
        into.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _binding_names(element, into)
    elif isinstance(target, ast.Starred):
        _binding_names(target.value, into)


def _extract_exports(
    body: Iterable[ast.stmt],
) -> tuple[tuple[str, int], ...] | None:
    """``__all__`` entries (with linenos) when statically resolvable."""
    for stmt in body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        if not isinstance(value, (ast.List, ast.Tuple)):
            return None  # computed __all__: give up, stay silent
        entries: list[tuple[str, int]] = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                entries.append((element.value, element.lineno))
            else:
                return None
        return tuple(entries)
    return None


def extract_module(rel_path: str, source: str, tree: ast.Module) -> ModuleInfo:
    """Summarise one parsed file into a :class:`ModuleInfo`."""
    module = module_name_for(rel_path)
    # Package context for relative imports: a plain module resolves
    # level-1 against its containing package, an __init__ against itself.
    if rel_path.endswith("__init__.py"):
        containing = module.split(".") if module else []
    else:
        containing = module.split(".")[:-1]

    defined: set[str] = set()
    _top_level_bindings(tree.body, defined)
    exports = _extract_exports(tree.body)

    imports: list[ImportEdge] = []
    refs: set[str] = set()
    dynamic = False
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__getattr__":
            dynamic = True
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports.append(
                    ImportEdge(
                        module=target, name=None, alias=local, lineno=node.lineno
                    )
                )
        elif isinstance(node, ast.ImportFrom):
            target = (
                _resolve_relative(containing, node.level, node.module)
                if node.level
                else (node.module or "")
            )
            if not target:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                imports.append(
                    ImportEdge(
                        module=target,
                        name=alias.name,
                        alias=local,
                        lineno=node.lineno,
                    )
                )
        elif isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return ModuleInfo(
        rel_path=rel_path,
        module=module,
        hash=content_hash(source),
        defined=frozenset(defined),
        exports=exports,
        imports=tuple(imports),
        refs=frozenset(refs),
        dynamic=dynamic,
    )


class ModelCache:
    """Content-hash keyed persistence for :class:`ModuleInfo` summaries.

    One JSON document (sorted keys, so reruns rewrite identical bytes)
    maps ``hash -> summary``.  Entries are re-keyed on every save to
    exactly the hashes still in use, so the file cannot grow without
    bound as the repo churns.
    """

    def __init__(self, path: Path | None) -> None:
        self.path = path
        self._entries: dict[str, dict[str, Any]] = {}
        self._used: set[str] = set()
        if path is not None and path.is_file():
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                data = {}
            if data.get("version") == MODEL_VERSION and isinstance(
                data.get("entries"), dict
            ):
                self._entries = data["entries"]

    def get(self, file_hash: str, rel_path: str) -> ModuleInfo | None:
        raw = self._entries.get(file_hash)
        if raw is None or raw.get("rel_path") != rel_path:
            return None
        self._used.add(file_hash)
        try:
            return ModuleInfo.from_dict(raw)
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, info: ModuleInfo) -> None:
        self._entries[info.hash] = info.to_dict()
        self._used.add(info.hash)

    def save(self) -> None:
        if self.path is None:
            return
        payload = {
            "version": MODEL_VERSION,
            "entries": {
                key: self._entries[key]
                for key in sorted(self._used)
                if key in self._entries
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )


class ProjectModel:
    """Repo-wide symbol table and import edges."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        #: rel_path -> summary
        self.files = modules
        #: dotted module name -> summary (first writer wins on collision)
        self.modules: dict[str, ModuleInfo] = {}
        for info in modules.values():
            self.modules.setdefault(info.module, info)

    @classmethod
    def build(
        cls,
        root: Path,
        files: Sequence[Path],
        *,
        cache: ModelCache | None = None,
    ) -> "ProjectModel":
        """Summarise *files* (skipping unparseable ones) into a model."""
        modules: dict[str, ModuleInfo] = {}
        for path in files:
            try:
                source = path.read_text(encoding="utf-8")
            except OSError:
                continue
            rel = _rel_path(root, path)
            file_hash = content_hash(source)
            if cache is not None:
                cached = cache.get(file_hash, rel)
                if cached is not None:
                    modules[rel] = cached
                    continue
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError:
                continue
            info = extract_module(rel, source, tree)
            modules[rel] = info
            if cache is not None:
                cache.put(info)
        if cache is not None:
            cache.save()
        return cls(modules)

    # -- the joins the cross-module rules run on ---------------------------
    def module_defines(self, module: str, name: str) -> bool:
        """Whether *module* (or a submodule of that name) binds *name*."""
        info = self.modules.get(module)
        if info is None:
            return True  # outside the model: stay silent
        if info.dynamic or name in info.defined:
            return True
        if any(edge.name == "*" for edge in info.imports):
            return True  # star import: definitions unknowable
        return f"{module}.{name}" in self.modules

    def referenced_anywhere_except(self, name: str, rel_path: str) -> bool:
        """Whether *name* is mentioned in any file other than *rel_path*.

        Both reference forms count: identifier/attribute mentions
        (``info.refs``) and ``from``-imports of the name — an importing
        ``__init__.py`` re-export never mentions the name as an
        expression, only as an ``import`` alias.
        """
        for other_rel, info in self.files.items():
            if other_rel == rel_path:
                continue
            if name in info.refs:
                return True
            for edge in info.imports:
                if edge.name == name or edge.alias == name:
                    return True
        return False


def _rel_path(root: Path, path: Path) -> str:
    resolved = path.resolve()
    try:
        return resolved.relative_to(root.resolve()).as_posix()
    except ValueError:
        return resolved.as_posix()
