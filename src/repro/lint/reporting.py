"""Text, JSON and SARIF reporters for lint runs.

All reporters are deterministic: findings arrive pre-sorted from the
engine and the JSON/SARIF forms are emitted with sorted keys, so a lint
report can itself be diffed byte-for-byte across runs (the same
discipline DET004 demands of the simulator's own exports).

The SARIF output targets GitHub code scanning: one run, the rule
catalog under ``tool.driver.rules`` and every finding at level
``error``.  Findings suppressed inline never reach a reporter.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence
from typing import Any, TYPE_CHECKING

from repro.lint.findings import Finding

if TYPE_CHECKING:
    from repro.lint.engine import LintRule

__all__ = ["render_text", "render_json", "render_sarif"]


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in findings]
    if findings:
        by_code = Counter(finding.code for finding in findings)
        breakdown = ", ".join(
            f"{code} x{count}" for code, count in sorted(by_code.items())
        )
        lines.append(f"{len(findings)} finding(s): {breakdown}")
    else:
        lines.append("no findings")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (stable field ordering, sorted keys)."""
    payload = {"findings": [finding.to_dict() for finding in findings]}
    return json.dumps(payload, indent=2, sort_keys=True)


_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _sarif_result(finding: Finding) -> dict[str, Any]:
    message = finding.message
    if finding.hint:
        message += f" — fix: {finding.hint}"
    return {
        "ruleId": finding.code,
        "level": "error",
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
        "partialFingerprints": {"reproLint/v1": finding.fingerprint},
    }


def render_sarif(findings: Sequence[Finding], rules: Sequence["LintRule"]) -> str:
    """SARIF 2.1.0 document for CI code-scanning upload."""
    rule_entries = [
        {
            "id": rule.code,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.title or rule.code},
            "help": {"text": rule.hint or rule.title or rule.code},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in sorted(rules, key=lambda r: r.code)
    ]
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "informationUri": "docs/static-analysis.md",
                        "rules": rule_entries,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": [_sarif_result(f) for f in findings],
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
