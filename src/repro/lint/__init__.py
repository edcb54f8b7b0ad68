"""`repro.lint` — AST-based determinism & invariant checker.

The repository's headline guarantees — byte-reproducible chaos/sweep
reports, bit-identical no-fault runs, the fused network fast path
staying honest under mutable channels — all rest on a handful of code
invariants (seeded RNG only, no wall clock in simulation paths, derived
flags never hand-set, sorted-key JSON export).  This package checks
those invariants statically on every source file so they are enforced
by the lint gate instead of rediscovered by debugging.

The checker is whole-program: a cached cross-file project model
(symbol table and import edges) powers the API001 cross-module symbol
check.  Every other rule is a syntactic per-file check; DET003 is the
one iteration-order rule.

Usage::

    python -m repro.lint src tests
    python -m repro.lint --format json src
    python -m repro.lint --sarif-file lint.sarif src tests   # CI annotations
    python -m repro.lint --write-baseline      # grandfather current findings
    python -m repro.lint --prune-baseline      # drop stale baseline entries
    python -m repro.lint --changed             # only git-modified files
    python -m repro.lint --changed=origin/main # only files in this PR

Architecture (one module each):

- :mod:`repro.lint.findings`      — the :class:`Finding` record + fingerprints
- :mod:`repro.lint.engine`        — two-phase driver: cached per-file
  pass, then whole-program rules over the project model
- :mod:`repro.lint.project`       — cross-file symbol/import model
- :mod:`repro.lint.rules`         — the per-file rule catalog
- :mod:`repro.lint.rules_program` — the project-wide rule (API001)
- :mod:`repro.lint.cache`         — content-hash per-file result cache
- :mod:`repro.lint.suppressions`  — ``# lint: disable=CODE`` comment handling
- :mod:`repro.lint.baseline`      — committed grandfathered-findings file
- :mod:`repro.lint.reporting`     — text, JSON and SARIF reporters
- :mod:`repro.lint.cli`           — the ``python -m repro.lint`` front-end

See ``docs/static-analysis.md`` for the rule catalog and the
suppression/baseline policy.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.cli import main
from repro.lint.engine import LintEngine, LintRule, lint_paths, rule_catalog
from repro.lint.findings import Finding
from repro.lint.project import ProjectModel

__all__ = [
    "Baseline",
    "Finding",
    "LintEngine",
    "LintRule",
    "ProjectModel",
    "lint_paths",
    "main",
    "rule_catalog",
]
