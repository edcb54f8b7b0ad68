"""Open-loop trace replay: drive the ingest service at a configured rate.

:func:`replay_trace` takes a recorded LU trace and pushes it through a
fresh :class:`~repro.serving.service.IngestService` on a private
simulation clock.  The replay is **open-loop**: arrivals follow the
configured rate regardless of how the service is coping, which is the
regime where bounded queues and shedding matter (a closed-loop client
would implicitly self-throttle and hide saturation).

Nominal arrival times are synthetic — record ``i`` of ``n`` arrives at
``i / rate`` virtual seconds (or at its recorded offset when
``rate == 0``) — while the LUs keep their original *trace* timestamps,
so the store's broker-level semantics (staleness, extrapolation ages)
still reason in trace time.  Arrivals are submitted in windows aligned
with the service's flush interval: one simulator event per window
carries every record whose nominal arrival falls inside it, passing the
exact nominal time as the latency-accounting ``arrival``.  That keeps
the event count proportional to replay *duration*, not message count —
the 100k+ msg/s ceilings cost thousands of events, not hundreds of
thousands.  A window offers its rows to the service in bulk, one run of
row indices per shard (split where a sweep falls), and never builds a
per-record object: a plain list of records is turned into a
:class:`~repro.serving.trace.TraceBatch` once.

Everything here is deterministic: same trace + same config ⇒ the same
event sequence, the same shed decisions, the same P² latency estimates,
and a byte-identical :class:`~repro.serving.report.ServingReport`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.serving.durability import DurabilityManager
from repro.serving.report import ServingReport
from repro.serving.service import IngestService, ServingConfig
from repro.serving.trace import TraceBatch, TraceRecord
from repro.simkernel import Simulator

__all__ = ["ReplayConfig", "replay_trace", "replay_trace_full"]


@dataclass(frozen=True)
class ReplayConfig:
    """Replay knobs.

    ``rate`` is the open-loop offered load in messages per virtual
    second; ``0`` replays at the trace's own recorded timing.
    ``sweep_interval`` (in *trace-time* seconds, ``0`` disables) runs the
    store's estimation/quarantine sweep whenever the submitted stream
    crosses a trace-time boundary, exercising the PR 4 degradation
    machinery against replayed gaps.
    """

    rate: float = 10_000.0
    sweep_interval: float = 0.0
    serving: ServingConfig = field(default_factory=ServingConfig)

    def __post_init__(self) -> None:
        # Written so NaN fails too: a NaN rate would put every arrival
        # in window 0, a NaN sweep interval would never sweep.
        if not 0 <= self.rate < math.inf:
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")
        if not 0 <= self.sweep_interval < math.inf:
            raise ValueError(
                f"sweep_interval must be finite and >= 0, got "
                f"{self.sweep_interval}"
            )


def _as_batch(records: Sequence[TraceRecord]) -> TraceBatch:
    """*records* as a :class:`TraceBatch` (converted once if a list)."""
    if isinstance(records, TraceBatch):
        return records
    return TraceBatch.from_records(records)


def _arrival_times(records: Sequence[TraceRecord], rate: float) -> NDArray[Any]:
    """Nominal arrival time per record (replay-clock seconds from 0)."""
    batch = _as_batch(records)
    if rate > 0:
        return np.arange(len(batch)) / rate
    base = batch.time[0] if len(batch) else 0.0
    return batch.time - base


def replay_trace(
    records: Sequence[TraceRecord],
    config: ReplayConfig | None = None,
    *,
    trace_meta: dict[str, Any] | None = None,
    telemetry: Any = None,
    durability: DurabilityManager | None = None,
    faults: Any = None,
    recovery_clock: Callable[[], float] | None = None,
) -> ServingReport:
    """Replay *records* through a fresh ingest service; returns the report."""
    report, _ = replay_trace_full(
        records,
        config,
        trace_meta=trace_meta,
        telemetry=telemetry,
        durability=durability,
        faults=faults,
        recovery_clock=recovery_clock,
    )
    return report


def replay_trace_full(
    records: Sequence[TraceRecord],
    config: ReplayConfig | None = None,
    *,
    trace_meta: dict[str, Any] | None = None,
    telemetry: Any = None,
    durability: DurabilityManager | None = None,
    faults: Any = None,
    recovery_clock: Callable[[], float] | None = None,
) -> tuple[ServingReport, IngestService]:
    """Like :func:`replay_trace`, but also returns the drained service.

    The recovery gate needs the service after the run — for the store's
    convergence export and the crash's affected-node accounting.
    *durability* attaches a WAL/snapshot manager to the service; *faults*
    (a :class:`~repro.faults.schedule.FaultSchedule`) is bound via a
    :class:`~repro.faults.injector.FaultInjector`, which is how
    ``ShardCrash`` windows reach the service deterministically;
    *recovery_clock* (e.g. ``time.perf_counter``) times recoveries
    without the service itself touching a wall clock.
    """
    config = config or ReplayConfig()
    if faults is not None and faults.has_churn:
        raise ValueError(
            "schedule contains NodeChurn faults, which a trace replay cannot "
            "honour: the trace already holds the fleet's LUs"
        )
    sim = Simulator()
    service = IngestService(
        sim,
        config.serving,
        telemetry=telemetry,
        durability=durability,
        recovery_clock=recovery_clock,
    )
    if faults is not None and faults:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(faults, telemetry=telemetry)
        injector.attach(sim, service=service)

    batch = _as_batch(records)
    arrivals = _arrival_times(batch, config.rate)
    window = config.serving.flush_interval
    # Window k (event at time k*window) carries records whose nominal
    # arrival lies in ((k-1)*window, k*window]; arrival 0 lands in k=0.
    # Each window holds index runs [start, stop) of consecutive records,
    # in record order: one run per window when arrivals never decrease.
    ks = np.where(arrivals > 0, np.ceil(arrivals / window), 0.0).astype(np.int64)
    cuts = (np.flatnonzero(ks[1:] != ks[:-1]) + 1).tolist()
    windows: dict[int, list[tuple[int, int]]] = {}
    for start, stop in zip([0, *cuts], [*cuts, len(batch)]):
        if stop > start:
            windows.setdefault(int(ks[start]), []).append((start, stop))

    # Each shard's record indices, ascending: a run's rows for one shard
    # are a slice of them.
    route = service.store.route(batch)
    shard_rows = [np.flatnonzero(route == s) for s in range(config.serving.shards)]
    times = batch.time

    def submit(start: int, stop: int) -> None:
        for index, rows in enumerate(shard_rows):
            lo, hi = np.searchsorted(rows, (start, stop)).tolist()
            if hi > lo:
                run = rows[lo:hi]
                service.submit_rows(batch, run, arrivals[run], index)

    sweep_interval = config.sweep_interval
    sweep_state = {"next": None}
    if sweep_interval > 0 and len(batch):
        sweep_state["next"] = float(times[0]) + sweep_interval

    def submit_window(runs: list[tuple[int, int]]) -> None:
        boundary = sweep_state["next"]
        for start, stop in runs:
            while boundary is not None:
                crossed = np.flatnonzero(times[start:stop] >= boundary)
                if not len(crossed):
                    break
                cross = start + int(crossed[0])
                submit(start, cross)
                # The submitted stream crossed a trace-time boundary: run
                # the estimation/quarantine sweep up to it.  Queued (not
                # yet flushed) LUs behind the boundary resync on apply —
                # the shards' skip_db path keeps the DB monotonic.
                time = float(times[cross])
                while time >= boundary:
                    service.tick(boundary)
                    boundary += sweep_interval
                start = cross
            submit(start, stop)
        sweep_state["next"] = boundary

    for k in sorted(windows):
        sim.schedule_at(
            k * window,
            lambda runs=windows[k]: submit_window(runs),
            label="loadgen:submit",
        )

    sim.run()  # drains: submissions, then the service's self-scheduled flushes

    metrics = None
    if telemetry is not None and telemetry.enabled:
        metrics = telemetry.registry.snapshot()
    report = ServingReport.from_service(
        service,
        records=len(batch),
        rate=config.rate,
        replay_seconds=sim.now,
        trace_meta=trace_meta,
        metrics=metrics,
    )
    return report, service
