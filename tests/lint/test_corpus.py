"""True-positive corpus: every fixture is still flagged by its rule.

Each file in ``corpus/`` copies the shape of a finding a rule has made
(or the code site it guards).  The files are ``.txt`` so that neither
the linter, ruff nor pytest reads them as code: the first line names
the repo path a fixture is linted as, and the file name starts with
the rule code that must flag it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.engine import LintEngine, rule_catalog

CORPUS = Path(__file__).parent / "corpus"
FIXTURES = sorted(CORPUS.glob("*.txt"))
HEADER = "# lint-as: "


def _code(fixture: Path) -> str:
    return fixture.name.split("-", 1)[0]


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda path: path.stem)
def test_fixture_is_flagged_by_its_rule(fixture, fake_repo):
    root, write = fake_repo
    source = fixture.read_text()
    header = source.splitlines()[0]
    assert header.startswith(HEADER)
    path = write(header[len(HEADER):], source)
    code = _code(fixture)
    findings = LintEngine(root=root, select=[code]).lint([path])
    assert findings
    assert {f.code for f in findings} == {code}


def test_every_rule_has_a_fixture():
    assert {_code(f) for f in FIXTURES} == {r.code for r in rule_catalog()}
