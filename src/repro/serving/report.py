"""The replay run's exported result: one flat, sorted-key JSON document.

A :class:`ServingReport` is assembled from the ingest service's counters
and latency histogram after a replay completes.  Every field is a pure
function of (trace, rate, serving config), so two same-seed replays
serialise byte-identically — ``to_json`` dumps with ``sort_keys=True``
and the CI ``serving-smoke`` gate ``cmp``s the files.

When telemetry was enabled for the run, the registry's metric snapshot
rides along under ``"metrics"`` (itself sorted by full metric name).
Spans and wall-clock data never enter the report — they live in the
telemetry snapshot proper, which is allowed to vary run to run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.serving.durability import DurabilityStats

__all__ = ["ServingReport"]


@dataclass(frozen=True)
class ServingReport:
    """Outcome of replaying one trace through the ingest service."""

    # -- workload ----------------------------------------------------------
    trace_meta: dict[str, Any] = field(default_factory=dict)
    records: int = 0
    rate: float = 0.0
    shards: int = 0
    replay_seconds: float = 0.0

    # -- intake ------------------------------------------------------------
    offered: int = 0
    accepted: int = 0
    shed: int = 0
    shed_rate: float = 0.0
    batches: int = 0
    max_queue_depth: int = 0
    max_total_depth: int = 0

    # -- store -------------------------------------------------------------
    applied: int = 0
    duplicates: int = 0
    reordered: int = 0
    broker_stale_dropped: int = 0
    estimates_made: int = 0
    quarantines: int = 0
    resyncs: int = 0
    node_count: int = 0
    shard_sizes: list[int] = field(default_factory=list)

    # -- durability & recovery (all zero when durability is off) -------------
    wal_appended: int = 0
    wal_flushes: int = 0
    snapshots_written: int = 0
    compacted_entries: int = 0
    crashes: int = 0
    crash_dropped_queued: int = 0
    shed_down: int = 0
    down_dropped: int = 0
    recoveries: int = 0
    recovery_replayed: int = 0

    # -- SLOs (virtual seconds / msgs per virtual second) -------------------
    latency_count: int = 0
    latency_mean: float = 0.0
    latency_min: float = 0.0
    latency_max: float = 0.0
    latency_p50: float = 0.0
    latency_p90: float = 0.0
    latency_p99: float = 0.0
    offered_rate: float = 0.0
    applied_rate: float = 0.0

    #: Telemetry metric snapshot (sorted by full name) when enabled.
    metrics: dict[str, Any] | None = None

    @classmethod
    def from_service(
        cls,
        service: Any,
        *,
        records: int,
        rate: float,
        replay_seconds: float,
        trace_meta: dict[str, Any] | None = None,
        metrics: dict[str, Any] | None = None,
    ) -> "ServingReport":
        """Assemble the report from a drained :class:`IngestService`."""
        stats = service.stats
        store = service.store
        latency = service.latency
        durability = service.durability
        logged = durability.stats if durability else DurabilityStats()
        seconds = replay_seconds
        return cls(
            trace_meta=dict(trace_meta or {}),
            records=records,
            rate=rate,
            shards=service.config.shards,
            replay_seconds=seconds,
            offered=stats.offered,
            accepted=stats.accepted,
            shed=stats.shed,
            shed_rate=stats.shed_rate,
            batches=stats.batches,
            max_queue_depth=stats.max_queue_depth,
            max_total_depth=stats.max_total_depth,
            applied=store.applied,
            duplicates=store.duplicates,
            reordered=store.reordered,
            broker_stale_dropped=store.broker_stale_dropped,
            estimates_made=store.estimates_made,
            quarantines=store.quarantines,
            resyncs=store.resyncs,
            node_count=store.node_count,
            shard_sizes=store.shard_sizes(),
            wal_appended=logged.wal_appended,
            wal_flushes=logged.wal_flushes,
            snapshots_written=logged.snapshots_written,
            compacted_entries=logged.compacted_entries,
            crashes=stats.crashes,
            crash_dropped_queued=stats.crash_dropped_queued,
            shed_down=stats.shed_down,
            down_dropped=store.down_dropped,
            recoveries=stats.recoveries,
            recovery_replayed=sum(r.replayed for r in service.recoveries),
            latency_count=latency.count,
            latency_mean=latency.mean,
            latency_min=latency.min,
            latency_max=latency.max,
            latency_p50=latency.quantile(0.5),
            latency_p90=latency.quantile(0.9),
            latency_p99=latency.quantile(0.99),
            offered_rate=stats.offered / seconds if seconds > 0 else 0.0,
            applied_rate=store.applied / seconds if seconds > 0 else 0.0,
            metrics=metrics,
        )

    def to_json_dict(self) -> dict[str, Any]:
        """A plain JSON-serialisable mapping of every field."""
        return asdict(self)

    def to_json(self) -> str:
        """Canonical (sorted-key, indented) JSON rendering."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def write_json(self, path: str | Path) -> Path:
        """Write the canonical JSON to *path*; returns the path."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.to_json() + "\n", encoding="utf-8")
        return out

    def summary(self) -> str:
        """Terse human-readable digest for CLI output."""
        return (
            f"records={self.records} offered={self.offered} "
            f"applied={self.applied} shed={self.shed} "
            f"(rate {self.shed_rate:.1%}) "
            f"p50={self.latency_p50 * 1000:.2f}ms "
            f"p99={self.latency_p99 * 1000:.2f}ms "
            f"throughput={self.applied_rate:,.0f} msg/s"
        )
