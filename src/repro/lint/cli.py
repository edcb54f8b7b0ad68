"""The ``python -m repro.lint`` front-end.

Exit codes: 0 — no non-baselined findings; 1 — findings (or a stale
baseline under ``--strict-baseline``); 2 — usage errors, including a
path argument that does not exist.

The default paths (``src tests``) and baseline location
(``lint-baseline.json`` at the repo root, when present) match the CI
lint gate, so a bare ``python -m repro.lint`` reproduces CI locally.
Results are cached under ``.lint-cache/`` keyed by content hash (pass
``--no-cache`` to disable).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.engine import (
    CACHE_DIR_NAME,
    LintEngine,
    find_repo_root,
    rule_catalog,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based determinism & invariant checker for this repo.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--sarif-file",
        metavar="PATH",
        default=None,
        help="also write a SARIF report to PATH, so one run can gate on "
        "text output and feed CI code scanning",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline file of grandfathered findings "
        f"(default: {DEFAULT_BASELINE_NAME} at the repo root, if present)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help="rewrite the baseline file with stale fingerprints removed",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="lint only files git reports changed against REF "
        "(default HEAD: working-tree changes, for pre-commit; CI passes "
        "the PR base ref to lint exactly the PR's files)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"disable the {CACHE_DIR_NAME}/ content-hash result cache",
    )
    parser.add_argument(
        "--strict-baseline",
        action="store_true",
        help="also fail when the baseline contains stale entries",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules() -> int:
    for rule in rule_catalog():
        doc = (rule.__doc__ or "").strip().splitlines()[0]
        print(f"{rule.code}  {doc}")
        print(f"        fix: {rule.hint}")
    return 0


def _changed_files(root: Path, ref: str) -> list[Path]:
    """Python files git reports changed against *ref* (plus untracked)."""
    out = subprocess.run(
        ["git", "diff", "--name-only", "--diff-filter=ACMR", ref],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard"],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    names = sorted(set(out.splitlines()) | set(untracked.splitlines()))
    return [
        root / name
        for name in names
        if name.endswith(".py") and (root / name).is_file()
    ]


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            f"error: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    anchor = Path(args.paths[0]) if args.paths else Path.cwd()
    root = find_repo_root(anchor if anchor.is_dir() else anchor.parent)
    select = args.select.split(",") if args.select else None
    cache_dir = None if args.no_cache else root / CACHE_DIR_NAME
    try:
        engine = LintEngine(root=root, select=select, cache_dir=cache_dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.changed is not None:
        try:
            paths = _changed_files(root, args.changed)
        except subprocess.CalledProcessError as exc:
            message = (exc.stderr or "").strip() or f"git diff against {args.changed!r} failed"
            print(f"error: {message}", file=sys.stderr)
            return 2
    elif args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = [root / "src", root / "tests"]
    findings = engine.lint(paths)

    baseline_path = (
        Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE_NAME
    )
    if args.write_baseline:
        Baseline.from_findings(findings).save(baseline_path)
        print(f"wrote {baseline_path} ({len(findings)} finding(s) grandfathered)")
        return 0
    baseline = Baseline.load(baseline_path)
    new, grandfathered, stale = baseline.filter(findings)

    if args.prune_baseline and stale:
        for fingerprint in stale:
            del baseline.fingerprints[fingerprint]
        baseline.save(baseline_path)
        print(
            f"pruned {len(stale)} stale entr{'y' if len(stale) == 1 else 'ies'} "
            f"from {baseline_path}",
            file=sys.stderr,
        )
        stale = []

    from repro.lint.reporting import render_json, render_sarif, render_text

    if args.sarif_file:
        sarif = render_sarif(new, grandfathered, engine.rules)
        Path(args.sarif_file).write_text(sarif + "\n", encoding="utf-8")
    if args.format == "json":
        print(render_json(new, grandfathered, stale))
    else:
        print(render_text(new, grandfathered, stale))
    if new:
        return 1
    if stale and args.strict_baseline:
        return 1
    return 0
