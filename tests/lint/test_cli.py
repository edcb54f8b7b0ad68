"""The ``python -m repro.lint`` front-end: exit codes, formats, baseline.

Also the repo-clean gate: the checkout itself must lint clean, since CI
runs ``repro.lint src tests`` with a fail-on-any-new-finding policy.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.lint.baseline import Baseline
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
        assert payload["counts"]["new"] == 1
        (finding,) = payload["findings"]
        assert finding["code"] == "DET001"
        assert finding["path"] == "src/repro/experiments/x.py"
        assert "fingerprint" in finding

    def test_list_rules_prints_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET004", "INV001", "TEL001", "CFG001"):
            assert code in out


class TestBaselineWorkflow:
    def test_write_baseline_then_clean_rerun(self, fake_repo, capsys):
        root = _seed(fake_repo)
        src = str(root / "src")
        assert main([src, "--write-baseline"]) == 0
        assert (root / "lint-baseline.json").is_file()
        assert "1 finding(s) grandfathered" in capsys.readouterr().out

        assert main([src]) == 0
        assert "1 baselined finding(s) not shown" in capsys.readouterr().out

    def test_new_finding_still_fails_under_baseline(self, fake_repo, capsys):
        root = _seed(fake_repo)
        src = str(root / "src")
        assert main([src, "--write-baseline"]) == 0
        (root / "src/repro/experiments/y.py").write_text(
            "import time\nstamp = time.time()\n"
        )
        capsys.readouterr()
        assert main([src]) == 1
        out = capsys.readouterr().out
        assert "y.py" in out
        assert "x.py:5" not in out  # grandfathered, not re-reported

    def test_stale_entries_reported_and_gated_by_strict(
        self, fake_repo, capsys
    ):
        root = _seed(fake_repo)
        src = str(root / "src")
        assert main([src, "--write-baseline"]) == 0
        (root / "src/repro/experiments/x.py").write_text(CLEAN)
        capsys.readouterr()
        assert main([src]) == 0
        assert "stale baseline entry" in capsys.readouterr().out
        assert main([src, "--strict-baseline"]) == 1


class TestRepoCleanGate:
    def test_checkout_lints_clean_modulo_baseline(self):
        """The CI gate: no new findings and no stale baseline entries."""
        findings = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"], root=REPO_ROOT
        )
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        new, _, stale = baseline.filter(findings)
        assert new == [], "\n".join(f.render() for f in new)
        assert stale == []

    def test_docs_rule_table_lists_exactly_the_catalog(self):
        """docs/static-analysis.md documents every rule and no retired one."""
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        documented = re.findall(r"^\| `([A-Z]+\d{3})` \|", doc, re.MULTILINE)
        catalog = [rule.code for rule in rule_catalog()]
        assert sorted(documented) == sorted([*catalog, PARSE_ERROR_CODE])

    def test_committed_baseline_only_grandfathers_fast_path_peeks(self):
        """Only INV002 (the deliberate hot-path private peeks) may be
        grandfathered; every other rule stays strict everywhere."""
        path = REPO_ROOT / "lint-baseline.json"
        if path.is_file():
            data = json.loads(path.read_text())
            assert all(
                "::INV002::" in fp for fp in data["fingerprints"]
            ), sorted(data["fingerprints"])

    #: The inlined fast paths that measurably pay for themselves (see the
    #: table in docs/performance.md), each with the receiver its private
    #: peeks go through: the broker's LocationDB.store inline, and the
    #: fused uplink (the harness's probe and the gateway's fusion check).
    KEPT_FAST_PATHS = {
        "src/repro/broker/broker.py": "db._",
        "src/repro/experiments/harness.py": "gateway._",
        "src/repro/network/gateway.py": "uplink._",
    }

    def test_baseline_peeks_stay_at_the_kept_fast_paths(self):
        """The INV002 baseline cannot regrow outside the kept fast paths:
        every entry names one of them and peeks through its receiver."""
        data = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        fingerprints = data["fingerprints"]
        misplaced = []
        for fingerprint in fingerprints:
            path, _, line = fingerprint.partition("::INV002::")
            receiver = self.KEPT_FAST_PATHS.get(path)
            if receiver is None or receiver not in line:
                misplaced.append(fingerprint)
        assert misplaced == []
        assert sum(fingerprints.values()) <= 10
