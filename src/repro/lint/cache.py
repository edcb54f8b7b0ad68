"""The per-file lint result cache.

Re-linting a 230+-file repo on every pre-commit is wasted work when
almost nothing changed: a file's findings are a pure function of its
bytes and the active rule set (every per-file rule is deliberately
file-local, so this holds by construction; the one whole-program rule,
API001, runs every time and is never cached).  The cache therefore
keys results by ``rel_path -> (content hash, findings)`` under a
*signature* of the engine version plus the sorted active rule codes;
any mismatch — engine upgrade, different ``--select`` — drops the whole
cache rather than risking stale findings.

Stored findings are post-suppression: identical bytes imply identical
suppression comments, so the filtered result is cacheable as-is.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.lint.findings import Finding

__all__ = ["ResultCache"]

#: Bump whenever cached payload semantics change.
CACHE_VERSION = 1


class ResultCache:
    """Content-hash keyed findings per file, bound to a rule signature."""

    def __init__(self, path: Path, signature: str) -> None:
        self.path = path
        self.signature = signature
        self._entries: dict[str, dict[str, Any]] = {}
        self._dirty = False
        if path.is_file():
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                data = {}
            if (
                data.get("version") == CACHE_VERSION
                and data.get("signature") == signature
                and isinstance(data.get("entries"), dict)
            ):
                self._entries = data["entries"]

    def get(self, rel_path: str, file_hash: str) -> list[Finding] | None:
        """Cached findings for *rel_path* at *file_hash*, or None."""
        entry = self._entries.get(rel_path)
        if entry is None or entry.get("hash") != file_hash:
            return None
        try:
            return [Finding.from_payload(raw) for raw in entry["findings"]]
        except (KeyError, TypeError, ValueError):
            return None

    def put(
        self, rel_path: str, file_hash: str, findings: Iterable[Finding]
    ) -> None:
        self._entries[rel_path] = {
            "hash": file_hash,
            "findings": [finding.to_payload() for finding in findings],
        }
        self._dirty = True

    def save(self) -> None:
        """Persist (sorted keys: reruns rewrite byte-identical files)."""
        if not self._dirty:
            return
        payload = {
            "version": CACHE_VERSION,
            "signature": self.signature,
            "entries": {
                rel: self._entries[rel] for rel in sorted(self._entries)
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        self._dirty = False
