"""DET001-DET004: one tripping fixture, one clean fixture per rule."""

from __future__ import annotations


def codes(findings):
    return [f.code for f in findings]


class TestDet001WallClock:
    def test_time_time_flagged_with_position(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            import time


            def stamp():
                return time.time()
            """,
        )
        assert codes(findings) == ["DET001"]
        assert findings[0].line == 5
        assert "time.time" in findings[0].message

    def test_from_import_and_datetime_now_flagged(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/broker/x.py",
            """\
            from datetime import datetime
            from time import monotonic


            def stamp():
                return monotonic() + datetime.now().timestamp()
            """,
        )
        assert codes(findings) == ["DET001", "DET001"]

    def test_perf_counter_clean_in_declared_measurement_sites(
        self, lint_snippet
    ):
        snippet = """\
            import time


            def wall(sim):
                return time.perf_counter() + sim.now
            """
        assert not lint_snippet(
            "src/repro/experiments/scaling.py", snippet
        )
        assert not lint_snippet("src/repro/serving/recovery.py", snippet)

    def test_perf_counter_flagged_elsewhere(self, lint_snippet):
        # The WAL/snapshot write paths (and everything else under
        # src/repro) must stay virtual-clock only; perf_counter is a
        # wall clock like any other outside the declared sites.
        findings = lint_snippet(
            "src/repro/serving/durability.py",
            """\
            import time


            def flush_stamp():
                return time.perf_counter_ns()
            """,
        )
        assert codes(findings) == ["DET001"]
        assert "perf_counter_ns" in findings[0].message

    def test_telemetry_package_out_of_scope(self, lint_snippet):
        assert not lint_snippet(
            "src/repro/telemetry/x.py",
            """\
            import time


            def stamp():
                return time.time()
            """,
        )


class TestDet002GlobalRandom:
    def test_stdlib_and_numpy_global_calls_flagged(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/mobility/x.py",
            """\
            import random

            import numpy as np


            def draw():
                return random.random() + np.random.rand()
            """,
        )
        assert codes(findings) == ["DET002", "DET002"]
        assert findings[0].line == findings[1].line == 7

    def test_applies_to_tests_too(self, lint_snippet):
        findings = lint_snippet(
            "tests/x.py",
            """\
            from random import shuffle


            def mix(xs):
                shuffle(xs)
            """,
        )
        assert codes(findings) == ["DET002"]

    def test_seeded_constructors_clean(self, lint_snippet):
        assert not lint_snippet(
            "src/repro/mobility/x.py",
            """\
            import random

            import numpy as np


            def make(seed):
                a = np.random.default_rng(seed)
                b = np.random.SeedSequence([seed])
                c = random.Random(seed)
                return a, b, c
            """,
        )

    def test_instance_draws_clean(self, lint_snippet):
        # Calls on generator *instances* are not global-state calls.
        assert not lint_snippet(
            "src/repro/mobility/x.py",
            """\
            def draw(rng):
                return rng.random() + rng.shuffle([1, 2])
            """,
        )


class TestDet003UnsortedIteration:
    def test_for_over_set_flagged(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            def rows(d):
                out = []
                for key in set(d):
                    out.append(key)
                return out
            """,
        )
        assert codes(findings) == ["DET003"]
        assert findings[0].line == 3

    def test_list_of_keys_and_set_literal_comprehension_flagged(
        self, lint_snippet
    ):
        findings = lint_snippet(
            "src/repro/faults/x.py",
            """\
            def rows(d):
                return list(d.keys()) + [x for x in {1, 2}]
            """,
        )
        assert codes(findings) == ["DET003", "DET003"]

    # Unordered lists that reach a JSON export: DET003 flags each where
    # the order is lost, even across a function boundary.
    def test_direct_comprehension_over_a_dict_view_is_flagged(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/export.py",
            """\
            import json

            def export(table):
                return json.dumps([key for key in table.keys()])
            """,
            select=["DET003"],
        )
        assert codes(findings) == ["DET003"]
        assert ".keys()" in findings[0].message

    def test_taint_crosses_function_boundaries_within_the_module(
        self, lint_snippet
    ):
        findings = lint_snippet(
            "src/repro/faults/export.py",
            """\
            import json

            def collect(live):
                return [node for node in live.keys()]

            def export(live, fh):
                json.dump(collect(live), fh)
            """,
            select=["DET003"],
        )
        assert codes(findings) == ["DET003"]
        assert findings[0].line == 4  # inside collect(), where the order is lost

    def test_append_inside_a_loop_over_a_set_taints_the_list(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/network/export.py",
            """\
            import json

            def export(nodes):
                out = []
                for node in set(nodes):
                    out.append(node.name)
                return json.dumps(out)
            """,
            select=["DET003"],
        )
        assert codes(findings) == ["DET003"]

    def test_sorted_wrapping_clean(self, lint_snippet):
        assert not lint_snippet(
            "src/repro/network/x.py",
            """\
            def rows(d):
                out = [k for k in sorted(set(d))]
                for key in sorted(d.keys()):
                    out.append(key)
                return out
            """,
        )

    def test_out_of_scope_package_clean(self, lint_snippet):
        # The rule covers report-feeding packages only.
        assert not lint_snippet(
            "src/repro/util/x.py",
            """\
            def rows(d):
                return list(set(d))
            """,
        )

    def test_serving_package_in_scope(self, lint_snippet):
        # serving/ writes byte-compared traces and replay reports.
        findings = lint_snippet(
            "src/repro/serving/x.py",
            """\
            def rows(d):
                return [k for k in d.keys()]
            """,
        )
        assert codes(findings) == ["DET003"]

    def test_serving_unsorted_json_dump_flagged(self, lint_snippet):
        # DET004 already covers serving/ (src/repro-wide): a trace or
        # report writer without sort_keys=True fails the gate.
        findings = lint_snippet(
            "src/repro/serving/x.py",
            """\
            import json


            def write_report(data, fh):
                json.dump(data, fh)
            """,
        )
        assert codes(findings) == ["DET004"]


class TestDet004UnsortedJson:
    def test_dump_and_dumps_without_sort_keys_flagged(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            import json


            def export(data, fh):
                json.dump(data, fh, indent=2)
                return json.dumps(data)
            """,
        )
        assert codes(findings) == ["DET004", "DET004"]
        assert [f.line for f in findings] == [5, 6]

    def test_explicit_false_flagged(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            import json


            def export(data):
                return json.dumps(data, sort_keys=False)
            """,
        )
        assert codes(findings) == ["DET004"]

    def test_sort_keys_true_clean(self, lint_snippet):
        assert not lint_snippet(
            "src/repro/experiments/x.py",
            """\
            import json


            def export(data, fh):
                json.dump(data, fh, indent=2, sort_keys=True)
                return json.dumps(data, sort_keys=True)
            """,
        )

    def test_loads_dumps_round_trip_exempt(self, lint_snippet):
        # json.loads(json.dumps(x)) normalises in memory; nothing is
        # persisted, so key order cannot leak into an artifact.
        assert not lint_snippet(
            "src/repro/experiments/x.py",
            """\
            import json


            def normalise(payload):
                return json.loads(json.dumps(payload))
            """,
        )
