"""File loading, the rule registry, and the two-phase analysis driver.

Phase 1 — **per-file rules**: every rule declares the AST node types it
cares about; the engine parses each file once and dispatches nodes to
the interested rules in a single pre-order walk (parents before
children, which rules such as DET004's ``json.loads(json.dumps(...))``
exemption rely on).  The :class:`FileContext` a rule sees now carries
the file's :class:`~repro.lint.project.ModuleInfo` summary, so import
resolution is shared with the whole-program model instead of each rule
re-walking the tree.  Per-file results are a pure function of the
file's bytes and the rule set, which makes a content-hash result cache
(:mod:`repro.lint.cache`) sound.

Phase 2 — **project rules**: rules with :attr:`LintRule.project_wide`
set run once against a repo-wide
:class:`~repro.lint.project.ProjectModel` (itself content-hash cached),
regardless of how few files were selected for phase 1 — a cross-module
check needs the whole repo as context even when linting one file.

Findings from both phases are filtered through each file's inline
suppressions before being returned.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import Callable

from repro.lint.cache import CACHE_VERSION, ResultCache
from repro.lint.findings import Finding
from repro.lint.project import (
    ModelCache,
    ModuleInfo,
    ProjectModel,
    content_hash,
    extract_module,
)
from repro.lint.suppressions import Suppressions

__all__ = [
    "LintRule",
    "LintEngine",
    "FileContext",
    "register_rule",
    "rule_catalog",
    "find_repo_root",
    "iter_python_files",
    "lint_paths",
]

#: Code used for files the engine cannot parse at all.
PARSE_ERROR_CODE = "LINT000"

#: Directory (under the repo root) holding the model and result caches.
CACHE_DIR_NAME = ".lint-cache"

#: Directories (relative to the repo root) the project model always
#: covers, so cross-module checks see the whole repo even when only a
#: subset of files is being linted.
MODEL_SCOPE = ("src", "tests", "examples", "benchmarks", "scripts")


class FileContext:
    """Everything a per-file rule may need about the file under analysis."""

    def __init__(
        self, path: Path, rel_path: str, source: str, tree: ast.Module
    ) -> None:
        self.path = path
        self.rel_path = rel_path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self._module_info: ModuleInfo | None = None

    @property
    def module_info(self) -> ModuleInfo:
        """The file's whole-program summary (computed once, on demand).

        Import edges here are resolved to absolute dotted modules —
        including relative imports — which is what
        ``_ImportTrackingRule`` and the project model both consume.
        """
        if self._module_info is None:
            self._module_info = extract_module(
                self.rel_path, self.source, self.tree
            )
        return self._module_info

    def source_line(self, lineno: int) -> str:
        """The stripped text of 1-based *lineno* ('' when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class LintRule:
    """Base class for one lint rule.

    Per-file rules set :attr:`code`, :attr:`title`, :attr:`hint` and
    :attr:`node_types`, override :meth:`visit` (and optionally
    :meth:`begin_file`), and register themselves with
    :func:`register_rule`.  Rules are instantiated fresh for every run,
    so per-file state in ``begin_file`` is safe.

    Whole-program rules set :attr:`project_wide` and override
    :meth:`check_project` instead; they run once per engine run, after
    the per-file phase.
    """

    code: str = ""
    title: str = ""
    hint: str = ""
    #: AST node classes dispatched to :meth:`visit` (isinstance match).
    node_types: tuple[type[ast.AST], ...] = ()
    #: True for rules that run once against the whole project model.
    project_wide: bool = False

    def applies_to(self, rel_path: str) -> bool:
        """Whether this rule runs on the file at repo-relative *rel_path*."""
        return True

    def begin_file(self, ctx: FileContext) -> None:
        """Reset per-file state; called once before the walk."""

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one dispatched node."""
        return iter(())

    def check_project(
        self,
        project: ProjectModel,
        lint_files: frozenset[str],
        source_line_for: Callable[[str, int], str],
    ) -> Iterator[Finding]:
        """Yield whole-program findings (``project_wide`` rules only).

        *lint_files* is the set of repo-relative paths in this run;
        findings must stay within it so ``--changed`` runs do not blame
        files the user never asked about.  *source_line_for* fetches the
        stripped source text for fingerprints.
        """
        return iter(())

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding for *node* carrying this rule's code and hint."""
        line = getattr(node, "lineno", 1)
        return Finding(
            path=ctx.rel_path,
            line=line,
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            hint=self.hint,
            source_line=ctx.source_line(line),
        )


_RULES: dict[str, type[LintRule]] = {}


def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to the global registry (by code)."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    _RULES[cls.code] = cls
    return cls


def rule_catalog() -> tuple[LintRule, ...]:
    """Fresh instances of every registered rule, ordered by code."""
    import repro.lint.rules  # noqa: F401  (registers the built-in rules)
    import repro.lint.rules_program  # noqa: F401  (whole-program rules)

    return tuple(_RULES[code]() for code in sorted(_RULES))


def find_repo_root(start: Path) -> Path:
    """The nearest ancestor of *start* holding a ``pyproject.toml``.

    Falls back to *start* itself so the engine still produces stable
    relative paths when run outside a checkout (e.g. on a temp dir).
    """
    start = start.resolve()
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """All ``.py`` files under *paths*, deterministically ordered.

    Directories are walked recursively, skipping hidden entries and
    ``__pycache__`` *below* each directory argument; where the argument
    itself lives does not matter, so a checkout under a hidden directory
    still lints.
    """
    seen: set[Path] = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            candidates: Iterable[Path] = (path,)
        elif path.is_dir():
            candidates = (
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not any(
                    part == "__pycache__" or part.startswith(".")
                    for part in candidate.relative_to(path).parts
                )
            )
        else:
            candidates = ()
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield resolved


class LintEngine:
    """Runs a rule set over files and returns suppression-filtered findings."""

    def __init__(
        self,
        root: Path | None = None,
        rules: Sequence[LintRule] | None = None,
        select: Sequence[str] | None = None,
        *,
        cache_dir: Path | None = None,
    ) -> None:
        self.root = (root or find_repo_root(Path.cwd())).resolve()
        catalog = tuple(rules) if rules is not None else rule_catalog()
        if select:
            wanted = set(select)
            unknown = wanted - {rule.code for rule in catalog}
            if unknown:
                raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
            catalog = tuple(r for r in catalog if r.code in wanted)
        self.rules = catalog
        self.cache_dir = cache_dir

    def rel_path(self, path: Path) -> str:
        """Repo-relative ``/``-separated path (absolute when outside root)."""
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root).as_posix()
        except ValueError:
            return resolved.as_posix()

    def rules_signature(self) -> str:
        """Cache signature: engine cache version + active rule codes."""
        codes = ",".join(sorted(rule.code for rule in self.rules))
        return f"{CACHE_VERSION}:{codes}"

    def lint_file(self, path: Path) -> list[Finding]:
        """All (non-suppressed) per-file findings for one file."""
        rel = self.rel_path(path)
        source = path.read_text(encoding="utf-8")
        return self._lint_source(path, rel, source)

    def _lint_source(self, path: Path, rel: str, source: str) -> list[Finding]:
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            line = exc.lineno or 1
            ctx_lines = source.splitlines()
            src_line = ctx_lines[line - 1].strip() if line <= len(ctx_lines) else ""
            return [
                Finding(
                    path=rel,
                    line=line,
                    col=(exc.offset or 1) - 1,
                    code=PARSE_ERROR_CODE,
                    message=f"file does not parse: {exc.msg}",
                    hint="fix the syntax error; unparseable files are unchecked",
                    source_line=src_line,
                )
            ]
        ctx = FileContext(path, rel, source, tree)
        active = [
            rule
            for rule in self.rules
            if not rule.project_wide and rule.applies_to(rel)
        ]
        if not active:
            return []
        findings: list[Finding] = []
        for rule in active:
            rule.begin_file(ctx)
        for node in ast.walk(tree):  # BFS: parents always precede children
            for rule in active:
                if isinstance(node, rule.node_types):
                    findings.extend(rule.visit(node, ctx))
        suppressions = Suppressions.parse(source)
        kept = [f for f in findings if not suppressions.covers(f.code, f.line)]
        return sorted(kept, key=Finding.sort_key)

    # -- the two-phase driver ------------------------------------------------
    def lint(self, paths: Sequence[Path]) -> list[Finding]:
        """All findings across *paths* (files or directories), sorted."""
        files = list(iter_python_files(paths))
        sources: dict[str, str] = {}
        hashes: dict[str, str] = {}
        order: list[tuple[Path, str]] = []
        for path in files:
            rel = self.rel_path(path)
            if rel in sources:
                continue
            source = path.read_text(encoding="utf-8")
            sources[rel] = source
            hashes[rel] = content_hash(source)
            order.append((path, rel))

        cache: ResultCache | None = None
        if self.cache_dir is not None:
            cache = ResultCache(
                self.cache_dir / "results.json", self.rules_signature()
            )

        findings: list[Finding] = []
        for path, rel in order:
            cached = cache.get(rel, hashes[rel]) if cache is not None else None
            if cached is not None:
                findings.extend(cached)
                continue
            file_findings = self._lint_source(path, rel, sources[rel])
            findings.extend(file_findings)
            if cache is not None:
                cache.put(rel, hashes[rel], file_findings)
        if cache is not None:
            cache.save()

        findings.extend(self._project_findings(files, sources))
        return sorted(findings, key=Finding.sort_key)

    def _project_findings(
        self, files: Sequence[Path], sources: dict[str, str]
    ) -> list[Finding]:
        project_rules = [rule for rule in self.rules if rule.project_wide]
        if not project_rules:
            return []
        model = self._build_model(files)
        lint_files = frozenset(sources)

        def source_line_for(rel: str, lineno: int) -> str:
            lines = sources.get(rel, "").splitlines()
            if 1 <= lineno <= len(lines):
                return lines[lineno - 1].strip()
            return ""

        suppressions: dict[str, Suppressions] = {}
        kept: list[Finding] = []
        for rule in project_rules:
            for finding in rule.check_project(model, lint_files, source_line_for):
                supp = suppressions.get(finding.path)
                if supp is None:
                    supp = Suppressions.parse(sources.get(finding.path, ""))
                    suppressions[finding.path] = supp
                if not supp.covers(finding.code, finding.line):
                    kept.append(finding)
        return kept

    def _build_model(self, lint_targets: Sequence[Path]) -> ProjectModel:
        """The repo-wide model: standard scope dirs plus the linted files."""
        scope = [
            self.root / name
            for name in MODEL_SCOPE
            if (self.root / name).is_dir()
        ]
        model_files = list(iter_python_files(scope))
        known = set(model_files)
        model_files.extend(p for p in lint_targets if p not in known)
        model_cache = (
            ModelCache(self.cache_dir / "model.json")
            if self.cache_dir is not None
            else None
        )
        return ProjectModel.build(self.root, model_files, cache=model_cache)


def lint_paths(
    paths: Sequence[str | Path],
    *,
    root: Path | None = None,
    select: Sequence[str] | None = None,
    cache_dir: Path | None = None,
) -> list[Finding]:
    """Convenience wrapper: lint *paths* with the full built-in rule set."""
    engine = LintEngine(root=root, select=select, cache_dir=cache_dir)
    return engine.lint([Path(p) for p in paths])
