"""Whole-program analyses over the project model: API001.

``API001`` checks cross-module symbol hygiene, which no per-file pass
can see: ``from``-imports of names the source module does not define,
and ``__all__`` exports no other file in the repo ever references.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.lint.engine import LintRule, register_rule
from repro.lint.findings import Finding
from repro.lint.project import ProjectModel
from repro.lint.rules import _under

# Deliberately no __all__: rule classes are reached through the
# register_rule registry (rule_catalog), never imported by name —
# exporting them here is exactly the dead surface API001 flags.


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
