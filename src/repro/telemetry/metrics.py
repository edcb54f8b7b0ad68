"""Metric instruments and the registry that owns them.

Three instrument kinds cover everything the simulation stack needs to
expose:

* :class:`Counter` — a monotonically increasing count (LUs received,
  events executed, messages dropped);
* :class:`Gauge` — a value that moves both ways (queue depth, live
  cluster count, staleness);
* :class:`Histogram` — a distribution (delivery latency, queueing
  delay): every sample is kept, and fixed cumulative buckets and exact
  quantiles are derived from them when read.

Instruments are keyed by ``(name, labels)`` in a
:class:`MetricsRegistry`; asking twice for the same key returns the same
instrument, so call sites may re-derive instruments freely while hot
paths cache them once.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "TelemetryError",
    "LabelTuple",
    "Counter",
    "Gauge",
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

#: Quantiles a histogram snapshot reports.
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


class Histogram(_Instrument):
    """Distribution summary: every sample kept, statistics derived on read.

    Samples go into one growable float64 column: 8 B per observation,
    kept for the histogram's lifetime.  Count, sum, extremes, cumulative
    bucket counts and quantiles are exact functions of that column,
    computed each time they are read.
    """

    kind = "histogram"
    __slots__ = ("_buckets", "_values")

    def __init__(
        self,
        name: str,
        labels: LabelTuple = (),
        *,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise TelemetryError(
                f"histogram buckets must be non-empty and sorted, got {bounds}"
            )
        self._buckets = bounds
        self._values = array("d")

    def observe(self, value: float) -> None:
        """Record one sample."""
        self._values.append(value)

    def observe_many(self, values: Sequence[float] | NDArray[Any]) -> None:
        """Record *values*, a list or an array, in order."""
        column = np.ascontiguousarray(values, dtype=np.float64)
        self._values.frombytes(column.view(np.uint8))

    def _column(self) -> NDArray[np.float64]:
        """The samples as an array, without a copy.  The column cannot
        grow while such a view is alive, so callers must not keep one."""
        return np.frombuffer(self._values, dtype=np.float64)

    @property
    def count(self) -> int:
        """Samples recorded."""
        return len(self._values)

    @property
    def sum(self) -> float:
        """Sum of all samples, added in observation order."""
        if not self._values:
            return 0.0
        # A sequential fold, as a running ``total += value`` from 0.0
        # would add (overflow to inf and inf - inf = NaN included); the
        # trailing ``+ 0.0`` gives that fold's +0.0 when every sample is
        # -0.0.
        with np.errstate(over="ignore", invalid="ignore"):
            folded = np.add.accumulate(self._column())[-1]
        return float(folded) + 0.0

    @property
    def mean(self) -> float:
        """Average sample (0.0 when empty)."""
        return self.sum / self.count if self._values else 0.0

    def _extremes(self) -> tuple[float, float]:
        """The first smallest and first largest non-NaN sample, or
        ``(inf, -inf)`` when every sample is NaN."""
        column = self._column()
        column = column[column == column]
        if not len(column):
            return math.inf, -math.inf
        return float(column[column.argmin()]), float(column[column.argmax()])

    @property
    def min(self) -> float:
        """Smallest sample, ignoring NaN (0.0 when empty)."""
        return self._extremes()[0] if self._values else 0.0

    @property
    def max(self) -> float:
        """Largest sample, ignoring NaN (0.0 when empty)."""
        return self._extremes()[1] if self._values else 0.0

    def quantile(self, q: float) -> float:
        """Exact quantile *q* in [0, 1] of the samples (0.0 when empty).

        The linear rule of ``np.quantile``'s default method: sort, then
        interpolate between the samples at ranks ``floor(q * (n - 1))``
        and the next.  The interpolation is written so it never falls
        below the lower sample or passes the upper one, which keeps the
        result non-decreasing in *q* to the last bit.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(
                f"histogram {self.full_name}: quantile must be in [0, 1], got {q}"
            )
        n = len(self._values)
        if not n:
            return 0.0
        position = q * (n - 1)
        lower = int(position)
        upper = min(lower + 1, n - 1)
        ranked = np.partition(self._column(), (lower, upper))
        low = float(ranked[lower])
        high = float(ranked[upper])
        return min(low + (high - low) * (position - lower), high)

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative counts per bucket upper bound (last bound is inf).

        A sample lands in the first bucket whose bound is >= it; past the
        last bound (or NaN, which no bound admits) it lands in the final
        +inf bucket.
        """
        bounds = self._buckets
        index = np.searchsorted(bounds, self._column(), side="left")
        running = np.cumsum(np.bincount(index, minlength=len(bounds) + 1))
        return list(zip((*bounds, math.inf), running.tolist()))

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable state (inf bucket rendered as a string)."""
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "quantiles": {str(q): self.quantile(q) for q in DEFAULT_QUANTILES},
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
        **labels: Any,
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

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
