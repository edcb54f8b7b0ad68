"""Engine mechanics: registry, file iteration, ordering, parse errors."""

from __future__ import annotations

import ast

import pytest

from repro.lint.engine import (
    PARSE_ERROR_CODE,
    LintEngine,
    LintRule,
    find_repo_root,
    iter_python_files,
    register_rule,
    rule_catalog,
)


class TestRegistry:
    def test_catalog_covers_all_documented_rules(self):
        codes = [rule.code for rule in rule_catalog()]
        assert codes == sorted(codes)
        for expected in (
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "INV001",
            "TEL001",
            "CFG001",
        ):
            assert expected in codes

    def test_register_rejects_duplicate_and_missing_codes(self):
        class NoCode(LintRule):
            pass

        with pytest.raises(ValueError, match="no code"):
            register_rule(NoCode)

        class Clash(LintRule):
            code = "DET001"

        with pytest.raises(ValueError, match="duplicate rule code"):
            register_rule(Clash)

    def test_select_unknown_code_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule code"):
            LintEngine(root=tmp_path, select=["NOPE99"])


class TestLintFile:
    def test_syntax_error_becomes_lint000(self, fake_repo):
        root, write = fake_repo
        path = write("src/repro/x.py", "def broken(:\n")
        findings = LintEngine(root=root).lint_file(path)
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]
        assert findings[0].line == 1

    def test_findings_sorted_by_position(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            import json
            import time


            def export(data):
                payload = json.dumps(data)
                stamp = time.time()
                return payload, stamp
            """,
        )
        assert [(f.line, f.code) for f in findings] == [
            (6, "DET004"),
            (7, "DET001"),
        ]

    def test_paths_are_repo_relative_posix(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            "import time\nstamp = time.time()\n",
        )
        assert findings[0].path == "src/repro/experiments/x.py"

    def test_select_filters_rules(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            import json
            import time


            def export(data):
                return json.dumps(data), time.time()
            """,
            select=["DET004"],
        )
        assert [f.code for f in findings] == ["DET004"]


class TestFileDiscovery:
    def test_iter_skips_pycache_and_hidden_and_sorts(self, fake_repo):
        root, write = fake_repo
        write("src/repro/b.py", "")
        write("src/repro/a.py", "")
        write("src/repro/__pycache__/a.py", "")
        write("src/.hidden/c.py", "")
        write("src/repro/notes.txt", "")
        names = [p.name for p in iter_python_files([root / "src"])]
        assert names == ["a.py", "b.py"]

    def test_explicit_file_listed_once(self, fake_repo):
        root, write = fake_repo
        path = write("src/repro/a.py", "")
        files = list(iter_python_files([path, root / "src"]))
        assert files.count(path.resolve()) == 1


class TestRepoRoot:
    def test_walks_up_to_pyproject(self, fake_repo):
        root, write = fake_repo
        write("src/repro/a.py", "")
        assert find_repo_root(root / "src" / "repro") == root.resolve()

    def test_falls_back_to_start(self, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        assert find_repo_root(bare) == bare.resolve()


class TestCustomRules:
    def test_begin_file_hook_runs_before_visit(self, fake_repo):
        root, write = fake_repo
        path = write("src/repro/a.py", "x = 1\ny = 2\n")

        class CountAssigns(LintRule):
            code = "TST001"
            title = "test rule"
            hint = "n/a"
            node_types = (ast.Assign,)

            def begin_file(self, ctx):
                self.count = 0

            def visit(self, node, ctx):
                self.count += 1
                yield self.finding(ctx, node, f"assign {self.count}")

        engine = LintEngine(root=root, rules=[CountAssigns()])
        findings = engine.lint_file(path)
        assert [f.message for f in findings] == ["assign 1", "assign 2"]
