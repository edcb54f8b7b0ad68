"""The ``python -m repro.lint`` front-end: exit codes and formats.

Also the repo-clean gate: the checkout itself must lint with zero
findings, since CI runs ``repro.lint src tests`` and fails on any.
"""

from __future__ import annotations

import json
import re
import tokenize
from pathlib import Path

from repro.lint.cli import main
from repro.lint.engine import (
    PARSE_ERROR_CODE,
    find_repo_root,
    lint_paths,
    rule_catalog,
)

REPO_ROOT = find_repo_root(Path(__file__).resolve().parent)

TRIPPING = """\
import time


def stamp():
    return time.time()
"""

CLEAN = """\
def stamp(sim):
    return sim.now
"""


def _seed(fake_repo, source=TRIPPING):
    root, write = fake_repo
    write("src/repro/experiments/x.py", source)
    return root


class TestExitCodes:
    def test_clean_tree_exits_zero(self, fake_repo, capsys):
        root = _seed(fake_repo, CLEAN)
        assert main([str(root / "src")]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one_with_rendered_lines(self, fake_repo, capsys):
        root = _seed(fake_repo)
        assert main([str(root / "src")]) == 1
        out = capsys.readouterr().out
        assert "src/repro/experiments/x.py:5:" in out
        assert "DET001" in out
        assert "1 finding(s): DET001 x1" in out

    def test_unknown_select_code_exits_two(self, fake_repo, capsys):
        root = _seed(fake_repo)
        assert main([str(root / "src"), "--select", "NOPE99"]) == 2
        assert "unknown rule code" in capsys.readouterr().err


class TestFormats:
    def test_json_format_is_machine_readable(self, fake_repo, capsys):
        root = _seed(fake_repo)
        assert main([str(root / "src"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["findings"]
        (finding,) = payload["findings"]
        assert finding["code"] == "DET001"
        assert finding["path"] == "src/repro/experiments/x.py"
        assert "fingerprint" in finding

    def test_list_rules_prints_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET004", "INV002", "TEL001", "CFG001"):
            assert code in out


class TestRepoCleanGate:
    def test_checkout_lints_with_zero_findings_and_no_baseline(self):
        """The CI gate: no finding survives, and nothing grandfathers one.

        An inline ``# lint: disable=CODE`` at the site is the only way to
        accept a finding, so each accepted one shows in its diff.
        """
        findings = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"], root=REPO_ROOT
        )
        assert findings == [], "\n".join(f.render() for f in findings)
        assert not (REPO_ROOT / "lint-baseline.json").exists()

    def test_docs_rule_table_lists_exactly_the_catalog(self):
        """docs/static-analysis.md documents every rule and no retired one."""
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        documented = re.findall(r"^\| `([A-Z]+\d{3})` \|", doc, re.MULTILINE)
        catalog = [rule.code for rule in rule_catalog()]
        assert sorted(documented) == sorted([*catalog, PARSE_ERROR_CODE])

    def test_only_the_inlined_store_suppresses_a_finding(self):
        """No inline suppression is left in src/.

        The last two, on the broker's inlined ``LocationDB.store``, went
        with the inlined copy.  A new private peek needs a public
        accessor, not a suppression.
        """
        suppressed = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            rel = path.relative_to(REPO_ROOT).as_posix()
            with path.open("rb") as handle:
                for token in tokenize.tokenize(handle.readline):
                    if token.type == tokenize.COMMENT and re.match(
                        r"#\s*lint:\s*disable", token.string
                    ):
                        suppressed.append((rel, token.string))
        assert suppressed == []
