"""Inline suppression comments.

Two forms, both explicit about *which* rule they silence:

- ``# lint: disable=DET001`` (or ``=DET001,INV002``) on the offending
  line suppresses those codes for that line only.  Text after the codes
  (conventionally the reason, in parentheses) is ignored.
- ``# lint: disable-file=TEL001`` anywhere in a file suppresses the code
  for the whole file (conventionally placed right below the docstring).

This is the only way to accept a finding.  A suppression must name rule
codes; there is deliberately no blanket ``disable=all``, so each one
says which rule it silences at the site it silences it, where every
diff shows it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["Suppressions"]

_LINE_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")
_FILE_RE = re.compile(r"#\s*lint:\s*disable-file=([A-Za-z0-9_,\s]+)")


def _codes(raw: str) -> set[str]:
    return {token.strip().upper() for token in raw.split(",") if token.strip()}


@dataclass(frozen=True)
class Suppressions:
    """Parsed suppression state for one file."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    whole_file: set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, source: str) -> "Suppressions":
        """Extract suppression comments from *source*."""
        by_line: dict[int, set[str]] = {}
        whole_file: set[str] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            if "lint:" not in text:  # fast path: most lines have none
                continue
            match = _FILE_RE.search(text)
            if match:
                whole_file |= _codes(match.group(1))
            match = _LINE_RE.search(text)
            if match:
                by_line.setdefault(lineno, set()).update(_codes(match.group(1)))
        return cls(by_line=by_line, whole_file=whole_file)

    def covers(self, code: str, line: int) -> bool:
        """Whether a finding of *code* at *line* is suppressed."""
        if code in self.whole_file:
            return True
        return code in self.by_line.get(line, ())
