"""The lint finding record and its fingerprint.

A finding pins a rule violation to a file position.  Its *fingerprint*,
``path::code::normalised-source-line``, deliberately excludes the line
number, so code scanning (SARIF ``partialFingerprints``) tracks one
finding across unrelated edits above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    """Repo-relative, ``/``-separated path of the offending file."""
    line: int
    """1-based line of the offending node."""
    col: int
    """0-based column of the offending node."""
    code: str
    """Rule code, e.g. ``DET001``."""
    message: str
    """What is wrong, phrased for the file's author."""
    hint: str = ""
    """How to fix it (the rule's standing fix hint)."""
    source_line: str = field(default="", compare=False)
    """The stripped source text of the offending line (for fingerprints)."""

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity of the finding."""
        normalised = " ".join(self.source_line.split())
        return f"{self.path}::{self.code}::{normalised}"

    def sort_key(self) -> tuple[str, int, int, str]:
        """Stable report ordering: path, then position, then code."""
        return (self.path, self.line, self.col, self.code)

    def render(self) -> str:
        """``path:line:col: CODE message (hint)`` single-line form."""
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form (used by the ``--format json`` reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint,
        }

    def to_payload(self) -> dict[str, object]:
        """Lossless form for worker IPC and the on-disk result cache.

        Unlike :meth:`to_dict` this keeps :attr:`source_line`, so a
        finding revived from the cache still fingerprints identically.
        """
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
            "source_line": self.source_line,
        }

    @classmethod
    def from_payload(cls, data: dict[str, object]) -> "Finding":
        """Inverse of :meth:`to_payload`."""
        return cls(
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[call-overload]
            col=int(data["col"]),  # type: ignore[call-overload]
            code=str(data["code"]),
            message=str(data["message"]),
            hint=str(data.get("hint", "")),
            source_line=str(data.get("source_line", "")),
        )
