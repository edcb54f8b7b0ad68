"""Tests for counters, gauges, histograms and the registry."""

import json
import math
import random

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    TelemetryError,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero(self, registry):
        assert registry.counter("c").value == 0.0

    def test_inc_default_one(self, registry):
        c = registry.counter("c")
        c.inc()
        c.inc()
        assert c.value == 2.0

    def test_inc_amount(self, registry):
        c = registry.counter("c")
        c.inc(5)
        assert c.value == 5.0

    def test_negative_inc_raises(self, registry):
        with pytest.raises(TelemetryError):
            registry.counter("c").inc(-1)

    def test_full_name_without_labels(self, registry):
        assert registry.counter("sim.events").full_name == "sim.events"

    def test_full_name_sorts_labels(self, registry):
        c = registry.counter("net.sent", zone="a", channel="x")
        assert c.full_name == "net.sent{channel=x,zone=a}"


class TestGauge:
    def test_set(self, registry):
        g = registry.gauge("g")
        g.set(7.5)
        assert g.value == 7.5

    def test_inc_dec(self, registry):
        g = registry.gauge("g")
        g.inc(3)
        g.dec(1)
        assert g.value == 2.0


class TestHistogram:
    def test_count_sum_min_max(self, registry):
        h = registry.histogram("h")
        for v in (0.5, 1.5, 2.5):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(4.5)
        assert h.min == 0.5
        assert h.max == 2.5
        assert h.mean == pytest.approx(1.5)

    def test_bucket_counts_cumulative(self, registry):
        h = registry.histogram("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 5.0):
            h.observe(v)
        counts = dict(h.bucket_counts())
        assert counts[1.0] == 1
        assert counts[2.0] == 2
        assert counts[math.inf] == 3

    def test_exact_quantiles_for_few_samples(self, registry):
        h = registry.histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == pytest.approx(2.0)

    def test_p2_tracks_uniform_median(self, registry):
        h = registry.histogram("h")
        for i in range(1, 1001):
            h.observe(i / 1000.0)
        assert h.quantile(0.5) == pytest.approx(0.5, abs=0.02)
        assert h.quantile(0.9) == pytest.approx(0.9, abs=0.02)

    def test_snapshot_is_json_safe(self, registry):
        h = registry.histogram("h")
        h.observe(1.0)
        json.dumps(h.snapshot())


class TestP2Quantile:
    def test_deterministic(self):
        def run():
            q = P2Quantile(0.5)
            value = 0.0
            for i in range(500):
                value = (value * 1103515245 + 12345) % 1000
                q.observe(value / 1000.0)
            return q.value

        assert run() == run()


class TestGolden:
    """Bit-exact P² and bucket state on a fixed stream.

    The expected values were recorded from the original straight-line
    implementation; any reordering of the float operations in
    ``P2Quantile.observe`` or ``Histogram.observe`` shows up here.
    """

    BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

    def _stream(self):
        rng = random.Random(20240517)
        out = []
        while len(out) < 20_000:
            kind = rng.randrange(4)
            if kind == 0:
                # One replay window: arrivals 10 us apart, all applied at
                # the window's end, so the latencies decrease.
                width = rng.randrange(50, 600)
                out.extend(0.05 - i * 1e-05 for i in range(width))
            elif kind == 1:
                # Ties on a coarse grid.
                out.extend(
                    round(rng.uniform(0.0, 0.3), 2)
                    for _ in range(rng.randrange(5, 80))
                )
            elif kind == 2:
                # Exactly on the bucket bounds.
                out.extend(
                    rng.choice(self.BUCKETS) for _ in range(rng.randrange(5, 40))
                )
            else:
                # A heavy tail, some of it past the last bound.
                out.extend(
                    rng.expovariate(rng.choice((8.0, 8.0, 0.3)))
                    for _ in range(rng.randrange(5, 120))
                )
        return out[:20_000]

    def test_histogram_state_is_bit_exact(self):
        h = Histogram("h", buckets=self.BUCKETS, quantiles=(0.5, 0.9, 0.99))
        for value in self._stream():
            h.observe(value)
        assert h.quantile(0.5) == 0.04883350409764691
        assert h.quantile(0.9) == 0.23793875386415383
        assert h.quantile(0.99) == 5.398660634705871
        assert h.count == 20_000
        assert h.sum == 5422.705593809006
        assert h.min == 0.0
        assert h.max == 22.99973396867283
        assert [count for _, count in h.bucket_counts()] == [
            120, 264, 492, 878, 15500, 16357, 18065, 18793, 19066, 19450,
            19782, 20000,
        ]


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        assert registry.counter("c", a="1") is registry.counter("c", a="1")

    def test_different_labels_different_instruments(self, registry):
        assert registry.counter("c", a="1") is not registry.counter("c", a="2")

    def test_label_order_is_irrelevant(self, registry):
        assert registry.counter("c", a="1", b="2") is registry.counter(
            "c", b="2", a="1"
        )

    def test_kind_conflict_raises(self, registry):
        registry.counter("m")
        with pytest.raises(TelemetryError):
            registry.gauge("m")

    def test_value_map_scalars(self, registry):
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        h = registry.histogram("h")
        h.observe(9.0)
        values = registry.value_map()
        assert values["c"] == 2.0
        assert values["g"] == 1.5
        assert values["h"] == 1.0  # histograms sample their count

    def test_snapshot_sorted_and_json_safe(self, registry):
        registry.counter("z.last").inc()
        registry.counter("a.first").inc()
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)

    def test_instrument_types(self, registry):
        assert isinstance(registry.counter("c2"), Counter)
        assert isinstance(registry.gauge("g2"), Gauge)
        assert isinstance(registry.histogram("h2"), Histogram)
