"""API001: cross-module symbols over the project model."""

from __future__ import annotations

from repro.lint.engine import LintEngine


def _lint(root, paths, select=("API001",)):
    engine = LintEngine(root=root, select=list(select))
    return engine.lint(paths)


class TestCrossModuleSymbols:
    def test_undefined_from_import_is_flagged(self, fake_repo):
        root, write = fake_repo
        write("src/repro/a.py", "def foo(): ...\n")
        target = write("src/repro/b.py", "from repro.a import bar\n")
        findings = _lint(root, [target])
        assert [f.code for f in findings] == ["API001"]
        assert "'bar'" in findings[0].message
        assert "repro.a" in findings[0].message

    def test_importing_a_submodule_name_resolves(self, fake_repo):
        root, write = fake_repo
        write("src/repro/pkg/__init__.py", "")
        write("src/repro/pkg/sub.py", "def f(): ...\n")
        target = write("src/repro/b.py", "from repro.pkg import sub\n")
        assert _lint(root, [target]) == []

    def test_modules_outside_the_model_stay_silent(self, fake_repo):
        root, write = fake_repo
        target = write("src/repro/b.py", "from os.path import join\n")
        assert _lint(root, [target]) == []

    def test_dead_export_is_flagged(self, fake_repo):
        root, write = fake_repo
        target = write(
            "src/repro/a.py",
            """
            __all__ = ["used", "dead"]

            def used(): ...

            def dead(): ...
            """,
        )
        write("src/repro/b.py", "from repro.a import used\n")
        findings = _lint(root, [target, root / "src" / "repro" / "b.py"])
        assert [f.code for f in findings] == ["API001"]
        assert "'dead'" in findings[0].message

    def test_package_init_reexport_lists_are_exempt(self, fake_repo):
        root, write = fake_repo
        write("src/repro/pkg/impl.py", "def f(): ...\n")
        target = write(
            "src/repro/pkg/__init__.py",
            '__all__ = ["f"]\nfrom repro.pkg.impl import f\n',
        )
        assert _lint(root, [target]) == []

    def test_exports_the_module_itself_uses_are_not_dead(self, fake_repo):
        root, write = fake_repo
        target = write(
            "src/repro/a.py",
            """
            __all__ = ["Result"]

            class Result:
                pass

            def run():
                return Result()
            """,
        )
        assert _lint(root, [target]) == []

    def test_findings_are_restricted_to_the_linted_set(self, fake_repo):
        root, write = fake_repo
        write("src/repro/a.py", '__all__ = ["dead"]\ndef dead(): ...\n')
        target = write("src/repro/b.py", "X = 1\n")
        # a.py is in the model (cross-file resolution) but not in the
        # lint target set, so its dead export is not reported here.
        assert _lint(root, [target]) == []

    def test_suppression_comments_cover_project_findings(self, fake_repo):
        root, write = fake_repo
        write("src/repro/a.py", "def foo(): ...\n")
        target = write(
            "src/repro/b.py",
            "from repro.a import bar  # lint: disable=API001\n",
        )
        assert _lint(root, [target]) == []
