"""Exporters: JSON snapshots and the human-readable summary table.

The snapshot layout (see :meth:`Telemetry.snapshot`)::

    {
      "metrics": {"<name{labels}>": {"kind": ..., "value"/"count"/...}},
      "samples": {"<name{labels}>": {"times": [...], "values": [...]}},
      "spans":   {"<span name>":   {"count": ..., "wall_total": ...}},
      "events":  {"capacity": ..., "records": [...]}
    }

``metrics`` and ``samples`` are deterministic under a fixed seed; span
wall-clock timings are not, which is why they live in their own section.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry

__all__ = [
    "write_snapshot_json",
    "merge_snapshots",
    "summary_table",
]


def write_snapshot_json(snapshot: dict[str, Any], path: str | Path) -> Path:
    """Write a telemetry snapshot as indented JSON; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return out


def merge_snapshots(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Combine several runs' telemetry snapshots into one cell summary.

    The sweep runner collects one snapshot per replication of a sweep
    cell; this folds them into cross-run aggregates:

    * counters — values summed across runs;
    * gauges — last values averaged across runs;
    * histograms — ``count``/``sum`` summed, ``min``/``max`` taken over
      all runs, ``mean`` recomputed from the merged totals (per-run
      quantiles and buckets are dropped: a snapshot keeps no samples to
      re-derive merged quantiles from);
    * spans — ``count``/``wall_total``/``sim_total`` summed;
    * events — per-severity counts summed.

    Sample series are per-run time series and do not aggregate across
    runs, so they are omitted.
    """
    if not snapshots:
        raise ValueError("no snapshots to merge")
    metrics: dict[str, dict[str, Any]] = {}
    spans: dict[str, dict[str, float]] = {}
    event_counts: dict[str, int] = {}
    for snapshot in snapshots:
        for name, data in (snapshot.get("metrics") or {}).items():
            kind = data.get("kind", "counter")
            slot = metrics.setdefault(
                name, {"kind": kind, "runs": 0, "value": 0.0}
            )
            slot["runs"] += 1
            if kind == "histogram":
                slot.setdefault("count", 0)
                slot.setdefault("sum", 0.0)
                slot["count"] += data.get("count", 0)
                slot["sum"] += data.get("sum", 0.0)
                if data.get("count"):
                    slot["min"] = min(
                        slot.get("min", math.inf), data.get("min", math.inf)
                    )
                    slot["max"] = max(
                        slot.get("max", -math.inf), data.get("max", -math.inf)
                    )
                slot["mean"] = (
                    slot["sum"] / slot["count"] if slot["count"] else 0.0
                )
                slot.pop("value", None)
            else:
                slot["value"] += data.get("value", 0.0)
        for name, data in (snapshot.get("spans") or {}).items():
            slot = spans.setdefault(
                name, {"count": 0, "wall_total": 0.0, "sim_total": 0.0}
            )
            slot["count"] += data.get("count", 0)
            slot["wall_total"] += data.get("wall_total", 0.0)
            slot["sim_total"] += data.get("sim_total", 0.0)
        counts = (snapshot.get("events") or {}).get("counts") or {}
        for severity, count in counts.items():
            event_counts[severity] = event_counts.get(severity, 0) + count
    for slot in metrics.values():
        if slot["kind"] == "gauge" and slot["runs"]:
            slot["value"] /= slot["runs"]
    return {
        "runs": len(snapshots),
        "metrics": dict(sorted(metrics.items())),
        "spans": dict(sorted(spans.items())),
        "events": {"counts": dict(sorted(event_counts.items()))},
    }


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def summary_table(telemetry: "Telemetry") -> str:
    """Render a run's telemetry as aligned, layer-grouped text tables."""
    lines: list[str] = []

    instruments = sorted(
        telemetry.registry.instruments(), key=lambda m: m.full_name
    )
    if instruments:
        lines.append("=== metrics ===")
        width = max(len(m.full_name) for m in instruments)
        last_layer = None
        for metric in instruments:
            layer = metric.name.split(".", 1)[0]
            if layer != last_layer:
                if last_layer is not None:
                    lines.append("")
                last_layer = layer
            if metric.kind == "histogram":
                lines.append(
                    f"  {metric.full_name:<{width}}  n={metric.count:<8} "
                    f"mean={_format_value(metric.mean):<10} "
                    f"p50={_format_value(metric.quantile(0.5)):<10} "
                    f"p99={_format_value(metric.quantile(0.99)):<10} "
                    f"max={_format_value(metric.max)}"
                )
            else:
                lines.append(
                    f"  {metric.full_name:<{width}}  "
                    f"{_format_value(metric.value)}"
                )
    else:
        lines.append("=== metrics === (none registered)")

    span_stats = telemetry.tracer.stats()
    if span_stats:
        lines.append("")
        lines.append("=== spans (wall-clock; non-deterministic) ===")
        width = max(len(name) for name in span_stats)
        ordered = sorted(
            span_stats.values(), key=lambda s: s.wall_total, reverse=True
        )
        for stats in ordered:
            lines.append(
                f"  {stats.name:<{width}}  n={stats.count:<8} "
                f"total={stats.wall_total * 1e3:>9.2f}ms "
                f"mean={stats.wall_mean * 1e6:>8.2f}us "
                f"max={(0.0 if math.isinf(stats.wall_max) else stats.wall_max) * 1e6:>8.2f}us"
            )

    log = telemetry.events
    lines.append("")
    counts = ", ".join(
        f"{name}={count}"
        for name, count in log.counts_by_severity().items()
        if count
    )
    lines.append(
        f"=== events === {log.total_logged} logged"
        f" ({counts or 'none'}), {log.dropped} dropped from ring"
    )
    for record in log.records()[-10:]:
        lines.append(
            f"  [{record.time:>8.1f}s {record.severity.name:<7}] "
            f"{record.source}: {record.message}"
        )
    return "\n".join(lines)
