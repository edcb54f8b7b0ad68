"""repro.telemetry — unified metrics, tracing and event logging.

The observability substrate of the whole simulation stack:

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments keyed by name + labels;
* :class:`Tracer` / :class:`Span` — nested sections timed in both
  wall-clock and sim-clock;
* :class:`EventLog` — a bounded ring of structured, JSON-serialisable
  event records;
* :class:`Sampler` — periodic metric snapshots into
  :class:`~repro.util.timeseries.TimeSeries`, riding the simulator;
* a JSON exporter and a human-readable summary table.

Everything hangs off a :class:`Telemetry` facade; the disabled twin
:data:`NULL_TELEMETRY` keeps un-instrumented runs at near-zero overhead.
See ``docs/telemetry.md`` for architecture and naming conventions.
"""

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.events import EventLog, EventRecord, Severity
from repro.telemetry.export import (
    merge_snapshots,
    summary_table,
    write_snapshot_json,
)
from repro.telemetry.hub import NULL_TELEMETRY, NullTelemetry, Telemetry
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
)
from repro.telemetry.sampler import Sampler
from repro.telemetry.tracing import Span, SpanStats, Tracer

__all__ = [
    "TelemetryConfig",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "TelemetryError",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "SpanStats",
    "EventLog",
    "EventRecord",
    "Severity",
    "Sampler",
    "merge_snapshots",
    "summary_table",
    "write_snapshot_json",
]
