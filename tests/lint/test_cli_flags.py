"""The whole-program CLI surface: --changed, --prune-baseline, path
arguments, SARIF output, and the content-hash result cache."""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.lint.cli import main
from repro.lint.engine import CACHE_DIR_NAME

TRIPPING = """\
import time


def stamp():
    return time.time()
"""

CLEAN = """\
def stamp(sim):
    return sim.now
"""


def _git(root, *argv):
    subprocess.run(
        ["git", *argv],
        cwd=root,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@example.invalid",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@example.invalid",
            "HOME": str(root),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


@pytest.fixture
def git_repo(fake_repo):
    root, write = fake_repo
    _git(root, "init", "-q")
    write("src/repro/experiments/x.py", CLEAN)
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "seed")
    return root, write


class TestChanged:
    def test_only_files_changed_against_head_are_linted(
        self, git_repo, capsys
    ):
        root, write = git_repo
        write("src/repro/experiments/x.py", TRIPPING)  # modified
        write("src/repro/experiments/y.py", TRIPPING)  # untracked
        assert main([str(root / "src"), "--changed"]) == 1
        out = capsys.readouterr().out
        assert "x.py:5" in out
        assert "y.py:5" in out

    def test_unchanged_tree_has_nothing_to_lint(self, git_repo, capsys):
        root, _ = git_repo
        assert main([str(root / "src"), "--changed"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_explicit_base_ref_widens_the_diff(self, git_repo, capsys):
        root, write = git_repo
        write("src/repro/experiments/x.py", TRIPPING)
        _git(root, "add", "-A")
        _git(root, "commit", "-q", "-m", "introduce a wall-clock read")
        # Against HEAD the tree is clean; against HEAD~1 the commit shows.
        assert main([str(root / "src"), "--changed"]) == 0
        capsys.readouterr()
        assert main([str(root / "src"), "--changed=HEAD~1"]) == 1
        assert "x.py:5" in capsys.readouterr().out

    def test_bad_ref_is_a_usage_error(self, git_repo, capsys):
        root, _ = git_repo
        assert main([str(root / "src"), "--changed=no-such-ref"]) == 2
        assert capsys.readouterr().err != ""


class TestPruneBaseline:
    def test_prune_rewrites_the_baseline_and_unblocks_strict(
        self, fake_repo, capsys
    ):
        root, write = fake_repo
        write("src/repro/experiments/x.py", TRIPPING)
        src = str(root / "src")
        assert main([src, "--write-baseline"]) == 0

        write("src/repro/experiments/x.py", CLEAN)  # finding fixed
        capsys.readouterr()
        assert main([src, "--strict-baseline"]) == 1  # stale gate trips

        assert main([src, "--prune-baseline"]) == 0
        captured = capsys.readouterr()
        assert "pruned 1 stale entry" in captured.err
        data = json.loads((root / "lint-baseline.json").read_text())
        assert data["fingerprints"] == {}

        assert main([src, "--strict-baseline"]) == 0

    def test_prune_is_a_no_op_without_stale_entries(self, fake_repo, capsys):
        root, write = fake_repo
        write("src/repro/experiments/x.py", TRIPPING)
        src = str(root / "src")
        assert main([src, "--write-baseline"]) == 0
        before = (root / "lint-baseline.json").read_text()
        capsys.readouterr()
        assert main([src, "--prune-baseline"]) == 0
        assert "pruned" not in capsys.readouterr().err
        assert (root / "lint-baseline.json").read_text() == before


class TestPaths:
    def test_a_checkout_under_a_hidden_directory_is_linted(
        self, tmp_path, capsys
    ):
        # Only entries *below* a path argument are filtered; a checkout
        # that itself sits under a dot-directory must not lint 0 files.
        root = tmp_path / ".hidden" / "checkout"
        (root / "src" / "repro" / "experiments").mkdir(parents=True)
        (root / "pyproject.toml").touch()
        (root / "src" / "repro" / "experiments" / "x.py").write_text(TRIPPING)
        assert main([str(root / "src"), "--no-cache"]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        hidden = tmp_path / ".hidden"
        hidden.mkdir()
        (hidden / "pyproject.toml").touch()
        assert main([str(hidden / "no_such_dir"), "--no-cache"]) == 2
        assert "no_such_dir" in capsys.readouterr().err


class TestSarif:
    def test_format_sarif_emits_a_valid_log(self, fake_repo):
        root, write = fake_repo
        write("src/repro/experiments/x.py", TRIPPING)
        report = root / "lint.sarif"
        assert main([str(root / "src"), "--sarif-file", str(report)]) == 1
        log = json.loads(report.read_text())
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro.lint"
        (result,) = run["results"]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert (
            location["artifactLocation"]["uri"]
            == "src/repro/experiments/x.py"
        )
        assert "reproLint/v1" in result["partialFingerprints"]

    def test_grandfathered_findings_are_suppressed_notes(
        self, fake_repo, capsys
    ):
        root, write = fake_repo
        write("src/repro/experiments/x.py", TRIPPING)
        src = str(root / "src")
        assert main([src, "--write-baseline"]) == 0
        report = root / "lint.sarif"
        assert main([src, "--sarif-file", str(report)]) == 0
        (result,) = json.loads(report.read_text())["runs"][0]["results"]
        assert result["level"] == "note"
        (suppression,) = result["suppressions"]
        assert suppression["kind"] == "external"

    def test_sarif_file_rides_along_with_text_output(self, fake_repo, capsys):
        root, write = fake_repo
        write("src/repro/experiments/x.py", TRIPPING)
        report = root / "lint.sarif"
        exit_code = main(
            [str(root / "src"), "--sarif-file", str(report)]
        )
        assert exit_code == 1
        assert "DET001" in capsys.readouterr().out  # text still on stdout
        log = json.loads(report.read_text())
        assert log["runs"][0]["results"]


class TestResultCache:
    def test_second_run_reuses_cached_findings(self, fake_repo, capsys):
        root, write = fake_repo
        write("src/repro/experiments/x.py", TRIPPING)
        src = str(root / "src")

        assert main([src, "--format", "json"]) == 1
        cold = json.loads(capsys.readouterr().out)
        cache_file = root / CACHE_DIR_NAME / "results.json"
        assert cache_file.is_file()

        assert main([src, "--format", "json"]) == 1
        warm = json.loads(capsys.readouterr().out)
        assert warm == cold

    def test_edits_invalidate_by_content_hash(self, fake_repo, capsys):
        root, write = fake_repo
        write("src/repro/experiments/x.py", TRIPPING)
        src = str(root / "src")
        assert main([src]) == 1
        write("src/repro/experiments/x.py", CLEAN)
        capsys.readouterr()
        assert main([src]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_select_change_invalidates_the_cache_signature(
        self, fake_repo, capsys
    ):
        root, write = fake_repo
        write("src/repro/experiments/x.py", TRIPPING)
        src = str(root / "src")
        assert main([src, "--select", "INV001"]) == 0  # caches empty result
        capsys.readouterr()
        assert main([src]) == 1  # full run must not reuse it
        assert "DET001" in capsys.readouterr().out

    def test_no_cache_leaves_no_directory_behind(self, fake_repo):
        root, write = fake_repo
        write("src/repro/experiments/x.py", TRIPPING)
        assert main([str(root / "src"), "--no-cache"]) == 1
        assert not (root / CACHE_DIR_NAME).exists()
