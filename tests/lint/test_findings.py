"""The finding fingerprint that SARIF reports carry."""

from __future__ import annotations

from repro.lint.findings import Finding


def _finding(line=5, source_line="return time.time()", path="src/repro/x.py"):
    return Finding(
        path=path,
        line=line,
        col=4,
        code="DET001",
        message="wall-clock call",
        hint="use the sim clock",
        source_line=source_line,
    )


class TestFingerprint:
    def test_excludes_line_number_and_normalises_whitespace(self):
        a = _finding(line=5, source_line="return  time.time()")
        b = _finding(line=42, source_line="return time.time()")
        assert a.fingerprint == b.fingerprint

    def test_distinguishes_path_code_and_source(self):
        base = _finding()
        assert base.fingerprint != _finding(path="src/repro/y.py").fingerprint
        assert (
            base.fingerprint
            != _finding(source_line="return time.monotonic()").fingerprint
        )
