"""The cross-file project model: extraction, resolution, caching."""

from __future__ import annotations

import ast
import textwrap

from repro.lint.project import (
    ModelCache,
    ProjectModel,
    content_hash,
    extract_module,
    module_name_for,
)


def _info(rel: str, source: str):
    source = textwrap.dedent(source)
    return extract_module(rel, source, ast.parse(source))


class TestModuleNames:
    def test_src_rooted_files_resolve_to_importable_names(self):
        assert module_name_for("src/repro/serving/store.py") == "repro.serving.store"

    def test_package_init_collapses_to_the_package(self):
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"

    def test_non_src_files_keep_their_directory_chain(self):
        assert module_name_for("tests/lint/test_cli.py") == "tests.lint.test_cli"


class TestExtraction:
    def test_defined_includes_conditional_and_loop_bindings(self):
        info = _info(
            "src/repro/m.py",
            """
            try:
                import numpy
                HAVE_NUMPY = True
            except ImportError:
                HAVE_NUMPY = False
            if HAVE_NUMPY:
                def fast(): ...
            else:
                def fast(): ...
            class Widget: ...
            """,
        )
        assert {"numpy", "HAVE_NUMPY", "fast", "Widget"} <= info.defined

    def test_function_locals_are_not_module_bindings(self):
        info = _info(
            "src/repro/m.py",
            """
            def f():
                inner = 1
                return inner
            """,
        )
        assert "inner" not in info.defined

    def test_static_dunder_all_is_captured_with_linenos(self):
        info = _info(
            "src/repro/m.py",
            """
            __all__ = [
                "alpha",
                "beta",
            ]
            def alpha(): ...
            def beta(): ...
            """,
        )
        assert info.exports == (("alpha", 3), ("beta", 4))

    def test_computed_dunder_all_yields_none(self):
        info = _info(
            "src/repro/m.py",
            '__all__ = sorted(["a", "b"])\n',
        )
        assert info.exports is None

    def test_relative_import_resolves_against_the_package(self):
        info = _info(
            "src/repro/serving/store.py",
            "from ..broker import GridBroker\n",
        )
        (edge,) = info.imports
        assert (edge.module, edge.name, edge.alias) == (
            "repro.broker",
            "GridBroker",
            "GridBroker",
        )

    def test_relative_import_in_init_resolves_against_itself(self):
        info = _info(
            "src/repro/serving/__init__.py",
            "from .store import ShardedLocationStore as Store\n",
        )
        (edge,) = info.imports
        assert edge.module == "repro.serving.store"
        assert edge.alias == "Store"

    def test_module_getattr_marks_the_module_dynamic(self):
        info = _info(
            "src/repro/m.py",
            """
            def __getattr__(name):
                raise AttributeError(name)
            """,
        )
        assert info.dynamic


class TestProjectModel:
    def _model(self, *files: tuple[str, str]) -> ProjectModel:
        modules = {}
        for rel, source in files:
            modules[rel] = _info(rel, source)
        return ProjectModel(modules)

    def test_module_defines_sees_top_level_names(self):
        model = self._model(("src/repro/a.py", "def foo(): ...\n"))
        assert model.module_defines("repro.a", "foo")
        assert not model.module_defines("repro.a", "bar")

    def test_module_defines_accepts_submodules_as_names(self):
        model = self._model(
            ("src/repro/pkg/__init__.py", ""),
            ("src/repro/pkg/sub.py", "def f(): ...\n"),
        )
        assert model.module_defines("repro.pkg", "sub")

    def test_module_defines_stays_silent_outside_the_model(self):
        model = self._model()
        assert model.module_defines("os.path", "join")

    def test_star_imports_make_definitions_unknowable(self):
        model = self._model(
            ("src/repro/a.py", "from os.path import *\n"),
        )
        assert model.module_defines("repro.a", "anything")

    def test_referenced_anywhere_counts_import_edges(self):
        # A re-exporting __init__ mentions the name only as an import
        # alias, never as an expression — it must still count as a use.
        model = self._model(
            ("src/repro/a.py", "__all__ = ['Foo']\nclass Foo: ...\n"),
            ("src/repro/__init__.py", "from repro.a import Foo\n"),
        )
        assert model.referenced_anywhere_except("Foo", "src/repro/a.py")


class TestModelCache:
    def test_build_round_trips_through_the_cache(self, tmp_path):
        target = tmp_path / "src" / "repro" / "a.py"
        target.parent.mkdir(parents=True)
        target.write_text("__all__ = ['f']\ndef f(): ...\n")
        cache_path = tmp_path / ".lint-cache" / "model.json"

        first = ProjectModel.build(
            tmp_path, [target], cache=ModelCache(cache_path)
        )
        assert cache_path.is_file()
        second = ProjectModel.build(
            tmp_path, [target], cache=ModelCache(cache_path)
        )
        rel = "src/repro/a.py"
        assert first.files[rel].to_dict() == second.files[rel].to_dict()

    def test_changed_content_misses_the_cache(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        cache_path = tmp_path / "model.json"
        ProjectModel.build(tmp_path, [target], cache=ModelCache(cache_path))

        target.write_text("y = 2\n")
        model = ProjectModel.build(
            tmp_path, [target], cache=ModelCache(cache_path)
        )
        assert "y" in model.files["a.py"].defined

    def test_stale_hash_entries_are_pruned_on_save(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        old_hash = content_hash("x = 1\n")
        cache_path = tmp_path / "model.json"
        ProjectModel.build(tmp_path, [target], cache=ModelCache(cache_path))

        target.write_text("y = 2\n")
        ProjectModel.build(tmp_path, [target], cache=ModelCache(cache_path))
        reloaded = ModelCache(cache_path)
        assert reloaded.get(old_hash, "a.py") is None

    def test_unparseable_files_are_skipped(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("def broken(:\n")
        model = ProjectModel.build(tmp_path, [target])
        assert model.files == {}
