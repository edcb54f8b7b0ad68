"""Tests for counters, gauges, histograms and the registry."""

import json
import math
import random
import struct
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
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

    def test_snapshot_is_json_safe(self, registry):
        h = registry.histogram("h")
        h.observe(1.0)
        json.dumps(h.snapshot())


BOUNDS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


def running_fold(stream, bounds):
    """Count, sum, min, max and cumulative bucket counts by one running
    pass in plain Python: the streaming loop the histogram replaced."""
    total = 0.0
    low = math.inf
    high = -math.inf
    counts = [0] * (len(bounds) + 1)
    for value in stream:
        total += value
        if value < low:
            low = value
        if value > high:
            high = value
        if value == value:
            counts[bisect_left(bounds, value)] += 1
        else:
            counts[-1] += 1
    cumulative = []
    running = 0
    for upper, count in zip((*bounds, math.inf), counts):
        running += count
        cumulative.append((upper, running))
    if not stream:
        low = high = 0.0
    return len(stream), total, low, high, cumulative


def sorted_quantile(stream, q):
    """Linear interpolation between closest ranks of the sorted stream,
    and the larger magnitude of the two samples it interpolates."""
    ranked = sorted(stream)
    position = q * (len(ranked) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ranked) - 1)
    frac = position - lower
    value = ranked[lower] * (1.0 - frac) + ranked[upper] * frac
    return value, max(abs(ranked[lower]), abs(ranked[upper]))


def same_float(a, b):
    """Bit-identical floats; any two NaNs count as the same."""
    if a != a or b != b:
        return a != a and b != b
    return struct.pack("<d", a) == struct.pack("<d", b)


def fed(stream, data):
    """A histogram fed *stream* in drawn chunks, each through a drawn
    path: one ``observe`` per value, ``observe_many`` of a list, or
    ``observe_many`` of an array."""
    h = Histogram("h", buckets=BOUNDS)
    start = 0
    while start < len(stream):
        stop = data.draw(st.integers(start + 1, len(stream)), label="stop")
        chunk = stream[start:stop]
        path = data.draw(st.sampled_from(("observe", "list", "array")))
        if path == "observe":
            for value in chunk:
                h.observe(value)
        elif path == "list":
            h.observe_many(chunk)
        else:
            h.observe_many(np.array(chunk, dtype=np.float64))
        start = stop
    return h


ANY_SAMPLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((*BOUNDS, 0.0, -0.0, math.inf, -math.inf, math.nan)),
)

# Bounded so ``high - low`` between two samples never overflows.
FINITE_SAMPLE = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from((*BOUNDS, 0.0, -0.0)),
)


class TestDifferential:
    """Every ingest path against plain-Python references."""

    @settings(max_examples=300, deadline=None)
    @given(stream=st.lists(ANY_SAMPLE, max_size=60), data=st.data())
    def test_fold_statistics_match_the_running_fold(self, stream, data):
        h = fed(stream, data)
        count, total, low, high, buckets = running_fold(stream, BOUNDS)
        assert h.count == count
        assert same_float(h.sum, total)
        assert same_float(h.min, low)
        assert same_float(h.max, high)
        assert h.bucket_counts() == buckets

    @settings(max_examples=300, deadline=None)
    @given(
        stream=st.lists(FINITE_SAMPLE, min_size=1, max_size=60),
        qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_quantiles_match_the_sorted_reference(self, stream, qs, data):
        h = fed(stream, data)
        qs = sorted({0.0, 1.0, *qs})
        got = [h.quantile(q) for q in qs]
        for q, value in zip(qs, got):
            want, scale = sorted_quantile(stream, q)
            # Each side rounds three operations; 8 ulps of the larger
            # neighbour covers either order.
            tolerance = 8 * math.ulp(scale)
            assert abs(value - want) <= tolerance
            assert abs(value - float(np.quantile(stream, q))) <= tolerance
        assert got == sorted(got)
        assert got[0] == h.min
        assert got[-1] == h.max

    @pytest.mark.parametrize("q", (1.5, -0.1, math.nan))
    def test_quantile_outside_the_unit_interval_raises(self, q):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(TelemetryError):
            h.quantile(q)


class TestGolden:
    """Bit-exact histogram state on a fixed stream.

    Count, sum, min, max and the bucket counts were recorded from the
    running-fold implementation (see :func:`running_fold`); any change
    in the order of the float operations shows up here.  The quantiles
    are the exact linear-rule quantiles of the stream.
    """

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
                    rng.choice(BOUNDS) for _ in range(rng.randrange(5, 40))
                )
            else:
                # A heavy tail, some of it past the last bound.
                out.extend(
                    rng.expovariate(rng.choice((8.0, 8.0, 0.3)))
                    for _ in range(rng.randrange(5, 120))
                )
        return out[:20_000]

    def test_histogram_state_is_bit_exact(self):
        h = Histogram("h", buckets=BOUNDS)
        for value in self._stream():
            h.observe(value)
        assert h.quantile(0.5) == 0.04873
        assert h.quantile(0.9) == 0.25
        assert h.quantile(0.99) == 5.179804448819898
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
