"""RACE002: handoff escapes on the serving and experiment paths."""

from __future__ import annotations


class TestHandoffEscape:
    def test_mutating_a_submitted_object_is_flagged(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/handoff.py",
            """
            def fan_out(pool, work, batch):
                future = pool.submit(work, batch)
                batch.append("more")
                return future
            """,
            select=["RACE002"],
        )
        assert [f.code for f in findings] == ["RACE002"]
        assert "batch" in findings[0].message

    def test_mutation_before_the_handoff_is_clean(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/handoff.py",
            """
            def fan_out(pool, work, batch):
                batch.append("more")
                return pool.submit(work, batch)
            """,
            select=["RACE002"],
        )
        assert findings == []

    def test_mutation_under_a_lock_is_clean(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/handoff.py",
            """
            def fan_out(pool, work, batch, lock):
                future = pool.submit(work, batch)
                with lock:
                    batch.append("more")
                return future
            """,
            select=["RACE002"],
        )
        assert findings == []

    def test_rebound_local_no_longer_tracks_the_shipped_object(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/handoff.py",
            """
            def fan_out(pool, work, batch):
                future = pool.submit(work, batch)
                batch = []
                batch.append("fresh object, not the shipped one")
                return future
            """,
            select=["RACE002"],
        )
        assert findings == []

    def test_thread_args_count_as_handoffs(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/serving/threaded.py",
            """
            import threading

            def spawn(sink):
                worker = threading.Thread(target=print, args=(sink,))
                worker.start()
                sink["k"] = 1
                return worker
            """,
            select=["RACE002"],
        )
        assert [f.code for f in findings] == ["RACE002"]


def test_runner_and_serving_modules_lint_clean_for_races():
    """The real serving and experiment paths never mutate a handed-off object."""
    from pathlib import Path

    from repro.lint.engine import LintEngine, find_repo_root

    root = find_repo_root(Path(__file__).resolve())
    engine = LintEngine(root=root, select=["RACE002"])
    findings = engine.lint(
        [root / "src" / "repro" / "serving", root / "src" / "repro" / "experiments"]
    )
    assert findings == []
