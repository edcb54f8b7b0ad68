"""Broker-as-a-service: online LU ingest + trace record/replay workloads.

The serving layer lifts the paper's in-loop broker into a service shape:

* :mod:`repro.serving.trace` — record one harness lane's transmitted LU
  stream into a compact replayable log (``repro-lu-trace``);
* :mod:`repro.serving.store` — a region-sharded location store whose
  shards hold the state of a degraded-mode
  :class:`~repro.broker.broker.GridBroker` (staleness, extrapolation,
  quarantine) as columns, applying each flush window as array ops;
* :mod:`repro.serving.service` — the bounded-queue, batch-draining
  ingest front door with explicit shed-based backpressure;
* :mod:`repro.serving.loadgen` / :mod:`repro.serving.report` — open-loop
  replay at configurable rates with a byte-reproducible SLO report;
* :mod:`repro.serving.durability` — per-shard write-ahead log +
  snapshots + compaction, so a killed shard is reconstructible as
  snapshot state plus WAL tail replay;
* :mod:`repro.serving.recovery` — the crash-recovery convergence gate:
  a mid-replay ``ShardCrash``/restart must reproduce the uncrashed
  store byte-identically outside the explicitly-accounted shed window.

Ingest is single-threaded by design, like the paper's broker applying
one LU stream: every entry point drives the store from one thread, so
the store holds no lock.
"""

from repro.serving.durability import (
    DurabilityConfig,
    DurabilityManager,
    WriteAheadLog,
    read_wal,
)
from repro.serving.loadgen import ReplayConfig, replay_trace, replay_trace_full
from repro.serving.recovery import (
    RecoveryGateReport,
    run_recovery_gate,
    write_filtered_export,
)
from repro.serving.report import ServingReport
from repro.serving.service import IngestService, RecoveryStats, ServingConfig
from repro.serving.store import (
    ColumnShard,
    IngestOutcome,
    ShardedLocationStore,
    shard_for,
)
from repro.serving.trace import (
    ColumnarTraceRecorder,
    TraceBatch,
    TraceError,
    TraceRecord,
    TraceRecorder,
    read_trace,
    record_columnar_trace,
    record_trace,
    write_trace,
)

__all__ = [
    "ColumnShard",
    "ColumnarTraceRecorder",
    "DurabilityConfig",
    "DurabilityManager",
    "IngestOutcome",
    "IngestService",
    "RecoveryGateReport",
    "RecoveryStats",
    "ReplayConfig",
    "ServingConfig",
    "ServingReport",
    "ShardedLocationStore",
    "TraceBatch",
    "TraceError",
    "TraceRecord",
    "TraceRecorder",
    "WriteAheadLog",
    "read_trace",
    "read_wal",
    "record_columnar_trace",
    "record_trace",
    "replay_trace",
    "replay_trace_full",
    "run_recovery_gate",
    "shard_for",
    "write_filtered_export",
    "write_trace",
]
