"""The telemetry facade components talk to, and its disabled twin.

Every instrumented layer takes an optional ``telemetry`` argument.  When
a real :class:`Telemetry` is passed, instruments register in its shared
:class:`~repro.telemetry.metrics.MetricsRegistry`, spans aggregate in its
:class:`~repro.telemetry.tracing.Tracer`, and events land in its
:class:`~repro.telemetry.events.EventLog`.  When nothing (or
:data:`NULL_TELEMETRY`) is passed, the same call sites receive no-op
instruments whose methods do nothing — the disabled path costs one
attribute call per hook and allocates nothing.

Components should cache instruments at construction time::

    self._m_drops = (telemetry or NULL_TELEMETRY).counter("net.drops")
    ...
    self._m_drops.inc()          # hot path: one call either way
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.events import EventLog, Severity
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.sampler import Sampler
from repro.telemetry.tracing import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel import Simulator

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY"]


class Telemetry:
    """Live telemetry: one registry + tracer + event log + sampler."""

    enabled = True

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig(enabled=True)
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.events = EventLog(
            capacity=self.config.event_log_capacity,
            min_severity=self.config.min_severity,
        )
        self.sampler = Sampler(self.registry, self.config.sample_interval)
        self._clock: Callable[[], float] | None = None

    @classmethod
    def from_config(
        cls, config: TelemetryConfig | None
    ) -> "Telemetry | NullTelemetry":
        """A live Telemetry when enabled, the shared null one otherwise."""
        if config is not None and config.enabled:
            return cls(config)
        return NULL_TELEMETRY

    # -- instruments ------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        """Registry counter for ``(name, labels)``."""
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Registry gauge for ``(name, labels)``."""
        return self.registry.gauge(name, **labels)

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] | None = None,
        **labels: Any,
    ) -> Histogram:
        """Registry histogram for ``(name, labels)``."""
        return self.registry.histogram(name, buckets=buckets, **labels)

    # -- tracing / events -------------------------------------------------
    def span(self, name: str) -> Span:
        """A tracer span; use with ``with``."""
        return self.tracer.span(name)

    def event(
        self,
        severity: Severity,
        message: str,
        *,
        source: str = "",
        time: float | None = None,
        **fields: Any,
    ) -> None:
        """Log a structured event (time defaults to the bound sim clock)."""
        if time is None:
            time = self._clock() if self._clock is not None else 0.0
        self.events.log(severity, message, time=time, source=source, **fields)

    # -- binding to a simulation ------------------------------------------
    def bind(self, sim: "Simulator", *, end: float) -> None:
        """Attach to *sim*: sim-clock for spans/events, periodic sampling.

        *end* bounds the sampler's self-perpetuating schedule (normally
        the experiment duration).
        """
        self._clock = lambda: sim.now
        self.tracer.set_sim_clock(self._clock)
        self.sampler.install(sim, end=end)

    # -- export ------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The full JSON-serialisable state of this telemetry instance.

        ``metrics`` and ``samples`` are seed-stable (pure sim-time data);
        ``spans`` carry wall-clock timings and vary run to run.
        """
        return {
            "metrics": self.registry.snapshot(),
            "samples": self.sampler.snapshot(),
            "spans": self.tracer.snapshot(),
            "events": self.events.snapshot(),
        }

    def summary(self) -> str:
        """Human-readable summary table (see :mod:`repro.telemetry.export`)."""
        from repro.telemetry.export import summary_table

        return summary_table(self)


class _NullInstrument:
    """Absorbs every counter/gauge/histogram method as a no-op."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    value = 0.0
    count = 0


class _NullSpan:
    """A reusable context manager that does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()
_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Disabled telemetry: same surface as :class:`Telemetry`, all no-ops."""

    enabled = False

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **kwargs: Any) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def span(self, name: str) -> _NullSpan:
        """The shared no-op span."""
        return _NULL_SPAN

    def event(self, severity: Any, message: str, **kwargs: Any) -> None:
        """Dropped."""

    def bind(self, sim: Any, *, end: float) -> None:
        """Nothing to attach."""

    def snapshot(self) -> None:
        """Disabled telemetry has no state to dump."""
        return None

    def summary(self) -> str:
        """A one-line notice instead of a table."""
        return "telemetry disabled (enable via TelemetryConfig(enabled=True))"


#: The process-wide disabled telemetry every un-instrumented component uses.
NULL_TELEMETRY = NullTelemetry()
