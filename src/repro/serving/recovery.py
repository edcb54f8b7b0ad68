"""The crash-recovery convergence gate (the serving CLI's chaos lane).

Durability is only worth its write amplification if it provably loses
nothing it did not *account* for.  This module runs that proof
end-to-end on a recorded trace:

1. **Golden run** — replay the trace through a plain ingest service
   (no durability, no faults) and export the per-node latest applied
   fix (:meth:`~repro.serving.store.ShardedLocationStore.export_state`).
2. **Crashed run** — replay the *same* trace with a WAL/snapshot
   :class:`~repro.serving.durability.DurabilityManager` attached and a
   deterministic :class:`~repro.faults.schedule.ShardCrash` window
   injected mid-replay: the shard's state and queued window die, the
   down window sheds, the restart rebuilds the shard from snapshot +
   WAL tail.
3. **Byte-compare** — both exports, minus the crash's explicitly
   accounted loss window (queued-but-unflushed nodes + nodes shed while
   down), must be **identical**.  Any other divergence means recovery
   silently lost or corrupted state — the gate fails.

The exports compare *applied* fixes only (no estimates), so estimation
sweeps that ran while the shard was down cannot create false positives;
what is compared is exactly the state durability promises to preserve.

Recovery wall time is measured with ``time.perf_counter`` — the one
place the serving layer touches a wall clock, injected into the service
as its ``recovery_clock`` so the DET001 discipline (simulation behaviour
never depends on wall time) still holds: the measurement decorates the
report and nothing else.
"""

from __future__ import annotations

import json
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.faults.schedule import FaultSchedule, ShardCrash
from repro.serving.durability import DurabilityConfig, DurabilityManager
from repro.serving.loadgen import ReplayConfig, replay_trace_full
from repro.serving.report import ServingReport
from repro.serving.trace import TraceRecord

__all__ = ["RecoveryGateReport", "run_recovery_gate", "write_filtered_export"]


@dataclass(frozen=True)
class RecoveryGateReport:
    """Outcome of one golden-vs-crashed convergence comparison.

    ``divergent_nodes`` must be empty for the gate to pass; everything
    else is accounting.  ``recovery_wall_s`` is a wall-clock measurement
    and therefore excluded from any byte-compared artifact — CI compares
    the filtered exports, not this report.
    """

    crash_shard: int
    crash_at: float
    restart_at: float
    snapshot_every: int
    records: int
    golden_applied: int
    crashed_applied: int
    replayed: int
    snapshot_lsn: int
    recovery_wall_s: float
    dropped_queued: int
    shed_while_down: int
    affected_nodes: tuple[str, ...]
    compared_nodes: int
    divergent_nodes: tuple[str, ...]
    golden: ServingReport = field(repr=False, default_factory=ServingReport)
    crashed: ServingReport = field(repr=False, default_factory=ServingReport)

    @property
    def converged(self) -> bool:
        """Whether the crashed run matched the golden run outside the window."""
        return not self.divergent_nodes

    def to_json_dict(self) -> dict[str, Any]:
        """JSON-serialisable mapping (full nested reports included)."""
        document = asdict(self)
        for name in ("affected_nodes", "divergent_nodes"):
            document[name] = list(document[name])
        return {**document, "converged": self.converged}

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
        verdict = "CONVERGED" if self.converged else (
            f"DIVERGED ({len(self.divergent_nodes)} nodes)"
        )
        return (
            f"crash shard={self.crash_shard} "
            f"window=[{self.crash_at:g}s, {self.restart_at:g}s) "
            f"replayed={self.replayed} from lsn={self.snapshot_lsn} "
            f"recovery={self.recovery_wall_s * 1000:.2f}ms "
            f"affected={len(self.affected_nodes)} "
            f"compared={self.compared_nodes} {verdict}"
        )


def write_filtered_export(
    export: dict[str, Any],
    affected: tuple[str, ...] | set[str],
    path: str | Path,
) -> Path:
    """Write *export* minus *affected* nodes as canonical sorted-key JSON.

    Two runs that converged outside the accounted window produce
    byte-identical files — CI's ``recovery-smoke`` ``cmp``s them.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    excluded = set(affected)
    filtered = {
        node: fix for node, fix in export.items() if node not in excluded
    }
    out.write_text(
        json.dumps(filtered, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return out


def run_recovery_gate(
    records: Sequence[TraceRecord],
    wal_dir: str | Path,
    *,
    replay: ReplayConfig | None = None,
    crash_shard: int = 0,
    crash_fraction: float = 0.45,
    restart_fraction: float = 0.75,
    snapshot_every: int = 2048,
    fsync: bool = False,
    trace_meta: dict[str, Any] | None = None,
    telemetry: Any = None,
    measure_wall: bool = True,
) -> tuple[RecoveryGateReport, dict[str, Any], dict[str, Any]]:
    """Run the golden-vs-crashed convergence gate on *records*.

    The crash window is placed at ``crash_fraction`` /
    ``restart_fraction`` of the replay's arrival horizon (virtual
    seconds).  Returns ``(report, golden_export, crashed_export)`` —
    the exports are *unfiltered*; pass them with
    ``report.affected_nodes`` to :func:`write_filtered_export` for the
    byte-compare artifacts.
    """
    if not records:
        raise ValueError("cannot run the recovery gate on an empty trace")
    if not 0.0 < crash_fraction < restart_fraction:
        raise ValueError(
            "need 0 < crash_fraction < restart_fraction, got "
            f"{crash_fraction} / {restart_fraction}"
        )
    replay = replay or ReplayConfig()
    if replay.rate > 0:
        horizon = (len(records) - 1) / replay.rate
    else:
        horizon = records[-1].time - records[0].time
    if horizon <= 0:
        raise ValueError("replay horizon is empty; nothing to crash into")
    crash_at = crash_fraction * horizon
    restart_at = restart_fraction * horizon

    golden_report, golden_service = replay_trace_full(
        records, replay, trace_meta=trace_meta
    )
    golden_export = golden_service.store.export_state()

    durability = DurabilityManager(
        wal_dir,
        DurabilityConfig(snapshot_every=snapshot_every, fsync=fsync),
        telemetry=telemetry,
    )
    faults = FaultSchedule(
        (
            ShardCrash(
                shard_index=crash_shard,
                start=crash_at,
                duration=restart_at - crash_at,
            ),
        )
    )
    try:
        crashed_report, crashed_service = replay_trace_full(
            records,
            replay,
            trace_meta=trace_meta,
            telemetry=telemetry,
            durability=durability,
            faults=faults,
            recovery_clock=time.perf_counter if measure_wall else None,
        )
    finally:
        durability.close()
    crashed_export = crashed_service.store.export_state()

    affected = tuple(sorted(crashed_service.affected_nodes()))
    excluded = set(affected)
    keys = (set(golden_export) | set(crashed_export)) - excluded
    divergent = tuple(
        sorted(
            node
            for node in keys
            if golden_export.get(node) != crashed_export.get(node)
        )
    )
    recoveries = crashed_service.recoveries
    report = RecoveryGateReport(
        crash_shard=crash_shard,
        crash_at=crash_at,
        restart_at=restart_at,
        snapshot_every=snapshot_every,
        records=len(records),
        golden_applied=golden_report.applied,
        crashed_applied=crashed_report.applied,
        replayed=sum(r.replayed for r in recoveries),
        snapshot_lsn=max((r.snapshot_lsn for r in recoveries), default=0),
        recovery_wall_s=sum(r.wall_s for r in recoveries),
        dropped_queued=sum(r.dropped_queued for r in recoveries),
        shed_while_down=sum(r.shed_while_down for r in recoveries),
        affected_nodes=affected,
        compared_nodes=len(keys),
        divergent_nodes=divergent,
        golden=golden_report,
        crashed=crashed_report,
    )
    return report, golden_export, crashed_export
