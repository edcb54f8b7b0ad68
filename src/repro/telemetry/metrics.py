"""Metric instruments and the registry that owns them.

Three instrument kinds cover everything the simulation stack needs to
expose:

* :class:`Counter` — a monotonically increasing count (LUs received,
  events executed, messages dropped);
* :class:`Gauge` — a value that moves both ways (queue depth, live
  cluster count, staleness);
* :class:`Histogram` — a distribution (delivery latency, queueing
  delay) with fixed cumulative buckets *and* streaming quantile
  estimates (the P² algorithm, so no samples are retained).

Instruments are keyed by ``(name, labels)`` in a
:class:`MetricsRegistry`; asking twice for the same key returns the same
instrument, so call sites may re-derive instruments freely while hot
paths cache them once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from typing import Any

__all__ = [
    "TelemetryError",
    "LabelTuple",
    "Counter",
    "Gauge",
    "P2Quantile",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Canonical form of a label set: sorted ``(key, value)`` pairs.
LabelTuple = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds, tuned for the latencies and
#: delays (seconds) this simulation produces.  The implicit final bucket
#: is ``+inf``.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Quantiles every histogram estimates by default.
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)


class TelemetryError(RuntimeError):
    """Misuse of the telemetry API (type conflicts, bad arguments)."""


def _label_key(labels: dict[str, Any]) -> LabelTuple:
    """Canonicalise a label mapping to a hashable, ordered tuple."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_metric_name(name: str, labels: LabelTuple) -> str:
    """Render ``name{k=v,...}`` (just ``name`` when unlabelled)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _Instrument:
    """Shared identity of all instruments."""

    kind = "instrument"
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: LabelTuple) -> None:
        self.name = name
        self.labels = labels

    @property
    def full_name(self) -> str:
        """The instrument's registry-unique display name."""
        return format_metric_name(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.full_name})"


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self, name: str, labels: LabelTuple = ()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.full_name} cannot decrease (inc {amount})"
            )
        self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        return self._value

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable state."""
        return {"kind": self.kind, "value": self._value}


class Gauge(_Instrument):
    """A value that can move in both directions."""

    kind = "gauge"
    __slots__ = ("_value",)

    def __init__(self, name: str, labels: LabelTuple = ()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with *value*."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by *amount*."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by *amount*."""
        self._value -= amount

    @property
    def value(self) -> float:
        """The current level."""
        return self._value

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable state."""
        return {"kind": self.kind, "value": self._value}


def _p2_step(
    up: bool,
    n_prev: float,
    n_here: float,
    n_next: float,
    h_prev: float,
    h_here: float,
    h_next: float,
) -> tuple[float, float]:
    """One P² marker move (up or down a position): the new height and
    position — parabolic when that keeps the heights ordered, else linear
    toward the neighbour the marker moves to."""
    step = 1.0 if up else -1.0
    candidate = h_here + step / (n_next - n_prev) * (
        (n_here - n_prev + step) * (h_next - h_here) / (n_next - n_here)
        + (n_next - n_here - step) * (h_here - h_prev) / (n_here - n_prev)
    )
    if h_prev < candidate < h_next:
        return candidate, n_here + step
    if up:
        return h_here + step * (h_next - h_here) / (n_next - n_here), n_here + step
    return h_here + step * (h_prev - h_here) / (n_prev - n_here), n_here + step


class P2Quantile:
    """Streaming quantile estimation via the P² algorithm.

    Jain & Chlamtac (1985): five markers track the running quantile
    without retaining observations.  Estimates are exact for the first
    five samples and converge quickly after; memory is O(1) and every
    update is deterministic, which keeps telemetry snapshots seed-stable.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments", "_count")

    def __init__(self, q: float) -> None:
        if not (0.0 < q < 1.0):
            raise TelemetryError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        # Desired positions and their per-sample increments of the three
        # interior markers; the end markers always sit at 1 and count.
        self._desired = [1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q]
        self._increments = [q / 2.0, q, (1.0 + q) / 2.0]
        self._count = 0

    def observe(self, x: float) -> None:
        """Absorb one observation."""
        self.observe_many((x,))

    def observe_many(self, values: Iterable[float]) -> None:
        """Absorb *values* in order (the same state as one observe each)."""
        stream = iter(values)
        h = self._heights
        while len(h) < 5:
            first = next(stream, None)
            if first is None:
                return
            self._count += 1
            h.append(first)
            h.sort()
        h0, h1, h2, h3, h4 = h
        n0, n1, n2, n3, n4 = self._positions
        d1, d2, d3 = self._desired
        inc1, inc2, inc3 = self._increments
        count = self._count
        step = _p2_step
        for x in stream:
            count += 1
            # Locate the cell containing x, extending extremes when needed.
            # The chain tests the cells in order, so a NaN lands in cell 3.
            if x < h0:
                h0 = x
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif x >= h4:
                h4 = x
            elif h0 <= x < h1:
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif h1 <= x < h2:
                n2 += 1.0
                n3 += 1.0
            elif h2 <= x < h3:
                n3 += 1.0
            n4 += 1.0
            d1 += inc1
            d2 += inc2
            d3 += inc3
            # Adjust the three interior markers in order, each toward its
            # desired position by one step when it has room to move.
            d = d1 - n1
            if (d >= 1.0 and n2 - n1 > 1.0) or (d <= -1.0 and n0 - n1 < -1.0):
                h1, n1 = step(d >= 1.0, n0, n1, n2, h0, h1, h2)
            d = d2 - n2
            if (d >= 1.0 and n3 - n2 > 1.0) or (d <= -1.0 and n1 - n2 < -1.0):
                h2, n2 = step(d >= 1.0, n1, n2, n3, h1, h2, h3)
            d = d3 - n3
            if (d >= 1.0 and n4 - n3 > 1.0) or (d <= -1.0 and n2 - n3 < -1.0):
                h3, n3 = step(d >= 1.0, n2, n3, n4, h2, h3, h4)
        self._count = count
        self._heights = [h0, h1, h2, h3, h4]
        self._positions = [n0, n1, n2, n3, n4]
        self._desired = [d1, d2, d3]

    @property
    def count(self) -> int:
        """Observations absorbed so far."""
        return self._count

    @property
    def value(self) -> float:
        """The current quantile estimate (0.0 before any observation)."""
        if not self._heights:
            return 0.0
        if len(self._heights) < 5:
            # Exact quantile over the few retained samples.
            idx = self.q * (len(self._heights) - 1)
            lo = int(math.floor(idx))
            hi = min(lo + 1, len(self._heights) - 1)
            frac = idx - lo
            return self._heights[lo] * (1.0 - frac) + self._heights[hi] * frac
        return self._heights[2]


class Histogram(_Instrument):
    """Distribution summary: fixed buckets plus streaming quantiles."""

    kind = "histogram"
    __slots__ = (
        "_buckets",
        "_bucket_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_quantiles",
    )

    def __init__(
        self,
        name: str,
        labels: LabelTuple = (),
        *,
        buckets: tuple[float, ...] | None = None,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise TelemetryError(
                f"histogram buckets must be non-empty and sorted, got {bounds}"
            )
        self._buckets = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # final bucket = +inf
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._quantiles = {q: P2Quantile(q) for q in quantiles}

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Record *values* in order (the same state as one observe each)."""
        total = self._sum
        low = self._min
        high = self._max
        bounds = self._buckets
        counts = self._bucket_counts
        for value in values:
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
            # The first bound >= value; past the last bound (or NaN, which
            # no bound admits) the sample lands in the final +inf bucket.
            if value == value:
                counts[bisect_left(bounds, value)] += 1
            else:
                counts[-1] += 1
        self._count += len(values)
        self._sum = total
        self._min = low
        self._max = high
        for estimator in self._quantiles.values():
            estimator.observe_many(values)

    @property
    def count(self) -> int:
        """Samples recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all samples."""
        return self._sum

    @property
    def mean(self) -> float:
        """Average sample (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest sample (0.0 when empty)."""
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Streaming estimate of quantile *q* (must have been configured)."""
        try:
            return self._quantiles[q].value
        except KeyError:
            raise TelemetryError(
                f"histogram {self.full_name} does not track quantile {q}; "
                f"tracked: {sorted(self._quantiles)}"
            ) from None

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative counts per bucket upper bound (last bound is inf)."""
        out: list[tuple[float, int]] = []
        running = 0
        for upper, count in zip(self._buckets, self._bucket_counts):
            running += count
            out.append((upper, running))
        out.append((math.inf, running + self._bucket_counts[-1]))
        return out

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable state (inf bucket rendered as a string)."""
        return {
            "kind": self.kind,
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "quantiles": {str(q): est.value for q, est in self._quantiles.items()},
            "buckets": [
                ["inf" if math.isinf(upper) else upper, count]
                for upper, count in self.bucket_counts()
            ],
        }


class MetricsRegistry:
    """Owns every instrument, keyed by ``(name, labels)``.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a key creates the instrument, later calls return it.  Re-using a
    name with a different instrument kind raises — one name means one
    kind of thing.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelTuple], _Instrument] = {}

    def _get_or_create(
        self,
        cls: type,
        name: str,
        labels: dict[str, Any],
        **kwargs: Any,
    ) -> Any:
        if not name:
            raise TelemetryError("metric name must be non-empty")
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1], **kwargs)
            self._instruments[key] = instrument
            return instrument
        if not isinstance(instrument, cls):
            raise TelemetryError(
                f"metric {instrument.full_name} is a {instrument.kind}, "
                f"not a {cls.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] | None = None,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
        **labels: Any,
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        return self._get_or_create(
            Histogram, name, labels, buckets=buckets, quantiles=quantiles
        )

    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, in registration order."""
        return list(self._instruments.values())

    def get(self, name: str, **labels: Any) -> _Instrument | None:
        """Look up an instrument without creating it."""
        return self._instruments.get((name, _label_key(labels)))

    def __len__(self) -> int:
        return len(self._instruments)

    def value_map(self) -> dict[str, float]:
        """One scalar per instrument (counters/gauges: value; histograms:
        count) keyed by full name — the sampler's per-tick snapshot."""
        out: dict[str, float] = {}
        for instrument in self._instruments.values():
            if isinstance(instrument, Histogram):
                out[instrument.full_name] = float(instrument.count)
            else:
                out[instrument.full_name] = instrument.value  # type: ignore[attr-defined]
        return out

    def snapshot(self) -> dict[str, Any]:
        """Full JSON-serialisable dump of every instrument, sorted by name."""
        return {
            instrument.full_name: instrument.snapshot()
            for instrument in sorted(
                self._instruments.values(), key=lambda m: m.full_name
            )
        }
