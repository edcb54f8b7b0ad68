"""Inline suppression comments and their interaction with the engine."""

from __future__ import annotations

from repro.lint.suppressions import Suppressions


class TestParsing:
    def test_line_suppression_single_and_multi_code(self):
        sup = Suppressions.parse(
            "x = 1  # lint: disable=DET001\n"
            "y = 2  # lint: disable=DET002, INV001\n"
        )
        assert sup.covers("DET001", 1)
        assert sup.covers("DET002", 2)
        assert sup.covers("INV001", 2)
        assert not sup.covers("DET001", 2)
        assert not sup.covers("DET002", 1)

    def test_file_suppression_covers_every_line(self):
        sup = Suppressions.parse(
            '"""doc."""\n# lint: disable-file=TEL001\nx = 1\n'
        )
        assert sup.covers("TEL001", 1)
        assert sup.covers("TEL001", 999)
        assert not sup.covers("DET001", 3)

    def test_no_blanket_disable_all(self):
        # "all" is parsed as a (nonexistent) code, not a wildcard.
        sup = Suppressions.parse("x = 1  # lint: disable=all\n")
        assert not sup.covers("DET001", 1)


class TestEngineIntegration:
    def test_suppressed_line_is_dropped_others_kept(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            import time


            def stamps():
                a = time.time()  # lint: disable=DET001
                b = time.time()
                return a, b
            """,
        )
        assert [f.code for f in findings] == ["DET001"]
        assert findings[0].line == 6

    def test_wrong_code_does_not_suppress(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            import time


            def stamp():
                return time.time()  # lint: disable=DET002
            """,
        )
        assert [f.code for f in findings] == ["DET001"]

    def test_file_level_suppression(self, lint_snippet):
        assert not lint_snippet(
            "src/repro/experiments/x.py",
            """\
            # lint: disable-file=DET001
            import time


            def stamp():
                return time.time()
            """,
        )


class TestEdgeCases:
    """Decorators, comma lists, and suppressions inside ``with`` blocks."""

    def test_multi_code_list_silences_both_findings_on_one_line(
        self, lint_snippet
    ):
        # One line, two rules: a wall-clock read (DET001) and a
        # global-state RNG draw (DET002).
        source = """\
        import random
        import threading
        import time


        class Meter:
            def __init__(self):
                self._lock = threading.Lock()
                self.seen = 0.0
                self._worker = threading.Thread(target=self._tick)

            def _tick(self):
                self.seen = time.time() + random.random(){comment}
        """
        both = lint_snippet(
            "src/repro/serving/meter.py",
            source.format(comment=""),
            select=["DET001", "DET002"],
        )
        assert sorted(f.code for f in both) == ["DET001", "DET002"]
        assert {f.line for f in both} == {13}

        partial = lint_snippet(
            "src/repro/serving/meter.py",
            source.format(comment="  # lint: disable=DET001"),
            select=["DET001", "DET002"],
        )
        assert [f.code for f in partial] == ["DET002"]

        silenced = lint_snippet(
            "src/repro/serving/meter.py",
            source.format(comment="  # lint: disable=DET001, DET002"),
            select=["DET001", "DET002"],
        )
        assert silenced == []

    def test_decorators_do_not_shift_suppression_lines(self, lint_snippet):
        # Findings anchor to the offending statement, so a suppression
        # inside a decorated def lands on the same line regardless of
        # how many decorators sit above it.
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            import functools
            import time


            @functools.lru_cache(maxsize=None)
            @functools.wraps(print)
            def stamp():
                return time.time()  # lint: disable=DET001
            """,
        )
        assert findings == []

    def test_decorator_line_comment_does_not_cover_the_body(
        self, lint_snippet
    ):
        # Suppressions are strictly per-line: a comment on the decorator
        # does not bleed into the function body below it.
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            import functools
            import time


            @functools.wraps(print)  # lint: disable=DET001
            def stamp():
                return time.time()
            """,
        )
        assert [f.code for f in findings] == ["DET001"]

    def test_suppression_inside_a_with_body_tracks_the_lock_state(
        self, lint_snippet
    ):
        # The suppressed wall-clock read sits *inside* `with self._lock:`;
        # silencing DET001 there must not bleed past the block — the
        # global-state RNG draw after it is still flagged.
        findings = lint_snippet(
            "src/repro/serving/meter.py",
            """\
            import random
            import threading
            import time


            class Meter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.seen = 0.0
                    self.count = 0
                    self._worker = threading.Thread(target=self._tick)

                def _tick(self):
                    with self._lock:
                        self.seen = time.time()  # lint: disable=DET001
                    self.count += random.random()
            """,
            select=["DET001", "DET002"],
        )
        assert [f.code for f in findings] == ["DET002"]
        assert findings[0].line == 16
        assert "random.random" in findings[0].message
