"""INV002, TEL001, CFG001: invariant, telemetry and config rules."""

from __future__ import annotations


def codes(findings):
    return [f.code for f in findings]


class TestInv002PrivatePeek:
    def test_cross_module_read_flagged(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            def peek(manager):
                return manager._serving.get("n1")
            """,
            select=["INV002"],
        )
        assert codes(findings) == ["INV002"]
        assert "._serving" in findings[0].message

    def test_self_and_cls_reads_clean(self, lint_snippet):
        assert not lint_snippet(
            "src/repro/network/x.py",
            """\
            class Meter:
                def total(self):
                    return self._total

                @classmethod
                def shared(cls):
                    return cls._instance
            """,
            select=["INV002"],
        )

    def test_module_defined_attributes_clean(self, lint_snippet):
        # Helper classes in one file may share internals: a _name the
        # module itself defines (self-assignment or class body) is fair
        # game for every class in that module.
        assert not lint_snippet(
            "src/repro/broker/x.py",
            """\
            class Tracker:
                def __init__(self):
                    self._last_time = None


            class Broker:
                def age(self, tracker, now):
                    return now - tracker._last_time
            """,
            select=["INV002"],
        )

    def test_assignment_is_not_a_peek(self, lint_snippet):
        # INV002 only cares about reads.
        assert not lint_snippet(
            "src/repro/experiments/x.py",
            """\
            def force(channel):
                channel._budget = 3
            """,
            select=["INV002"],
        )

    def test_dunder_reads_clean(self, lint_snippet):
        assert not lint_snippet(
            "src/repro/util/x.py",
            """\
            def describe(obj):
                return obj.__class__.__name__
            """,
            select=["INV002"],
        )

    def test_out_of_scope_paths_clean(self, lint_snippet):
        # Tests and benchmarks may poke internals on purpose.
        assert not lint_snippet(
            "tests/network/x.py",
            """\
            def probe(manager):
                return manager._serving
            """,
            select=["INV002"],
        )

    def test_chained_receiver_flagged(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            def peek(adf):
                return adf.classifier._labels
            """,
            select=["INV002"],
        )
        assert codes(findings) == ["INV002"]


class TestTel001MetricNames:
    def test_fstring_name_flagged(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/network/x.py",
            """\
            def record(hub, region):
                hub.counter(f"net.sent.{region}").inc()
            """,
        )
        assert codes(findings) == ["TEL001"]
        assert "not a string literal" in findings[0].message

    def test_camel_case_and_undotted_names_flagged(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/network/x.py",
            """\
            def record(hub):
                hub.gauge("netQueueDepth").set(1)
                hub.histogram(name="latency").observe(2)
            """,
        )
        assert codes(findings) == ["TEL001", "TEL001"]
        assert "not dotted lowercase" in findings[0].message

    def test_literal_dotted_lowercase_clean(self, lint_snippet):
        assert not lint_snippet(
            "src/repro/network/x.py",
            """\
            def record(hub):
                hub.counter("net.arq.retransmits", channel="uplink").inc()
                hub.gauge("net.queue.depth").set(1)
                hub.histogram(name="net.lu.latency_ms").observe(2)
            """,
        )

    def test_numpy_histogram_not_a_metric(self, lint_snippet):
        # np.histogram shares a method name with the telemetry instrument
        # but its receiver is an imported module, so TEL001 must not fire.
        assert not lint_snippet(
            "src/repro/experiments/x.py",
            """\
            import numpy as np


            def bin_counts(xs):
                return np.histogram(xs, bins=10)
            """,
        )

    def test_telemetry_package_out_of_scope(self, lint_snippet):
        # The subsystem's own internals build names dynamically by design.
        assert not lint_snippet(
            "src/repro/telemetry/x.py",
            """\
            def record(hub, suffix):
                hub.counter("net." + suffix).inc()
            """,
        )


class TestCfg001ConfigDefaults:
    def test_mutable_and_computed_defaults_flagged(self, lint_snippet):
        findings = lint_snippet(
            "src/repro/experiments/x.py",
            """\
            from dataclasses import dataclass, field


            @dataclass
            class SweepConfig:
                regions: list = []
                factory: object = field(default_factory=lambda: {})
                stamp: float = make_stamp()
            """,
        )
        assert codes(findings) == ["CFG001", "CFG001", "CFG001"]
        assert [f.line for f in findings] == [6, 7, 8]
        assert "SweepConfig.regions" in findings[0].message

    def test_serialisable_defaults_clean(self, lint_snippet):
        assert not lint_snippet(
            "src/repro/experiments/x.py",
            """\
            from dataclasses import dataclass, field

            from repro.network import LinkKind


            @dataclass
            class ChannelSpec:
                rate_hz: float = 2.0
                offset: float = -0.5
                name: str | None = None
                kind: LinkKind = LinkKind.WLAN
                limit: int = MAX_NODES
                bounds: tuple = (0.0, 1.0)
                lanes: tuple = field(default_factory=tuple)
            """,
        )

    def test_only_config_and_spec_dataclasses_checked(self, lint_snippet):
        # Non-dataclasses and non-Config/Spec names are out of scope.
        assert not lint_snippet(
            "src/repro/experiments/x.py",
            """\
            from dataclasses import dataclass


            class RunnerConfig:
                cache: dict = {}


            @dataclass
            class ResultRow:
                values: list = make_values()
            """,
        )
