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
thousands.

Everything here is deterministic: same trace + same config ⇒ the same
event sequence, the same shed decisions, the same P² latency estimates,
and a byte-identical :class:`~repro.serving.report.ServingReport`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.serving.durability import DurabilityManager
from repro.serving.report import ServingReport
from repro.serving.service import IngestService, ServingConfig
from repro.serving.trace import TraceRecord
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


def _arrival_times(records: list[TraceRecord], rate: float) -> list[float]:
    """Nominal arrival time per record (replay-clock seconds from 0)."""
    if rate > 0:
        return [index / rate for index in range(len(records))]
    base = records[0].time if records else 0.0
    return [record.time - base for record in records]


def replay_trace(
    records: list[TraceRecord],
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
    records: list[TraceRecord],
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

    arrivals = _arrival_times(records, config.rate)
    window = config.serving.flush_interval
    # Window k (event at time k*window) carries records whose nominal
    # arrival lies in ((k-1)*window, k*window]; arrival 0 lands in k=0.
    # Each window holds index runs [start, stop) of consecutive records,
    # in record order: one run per window when arrivals never decrease.
    windows: dict[int, list[tuple[int, int]]] = {}
    current: int | None = None
    start = 0
    for index, arrival in enumerate(arrivals):
        k = math.ceil(arrival / window) if arrival > 0 else 0
        if k != current:
            if current is not None:
                windows.setdefault(current, []).append((start, index))
            current = k
            start = index
    if current is not None:
        windows.setdefault(current, []).append((start, len(arrivals)))

    sweep_interval = config.sweep_interval
    sweep_state = {"next": None}
    if sweep_interval > 0 and records:
        sweep_state["next"] = records[0].time + sweep_interval

    def submit_window(runs: list[tuple[int, int]]) -> None:
        submit = service.submit
        boundary = sweep_state["next"]
        for start, stop in runs:
            for index in range(start, stop):
                record = records[index]
                if boundary is not None and record.time >= boundary:
                    # The submitted stream crossed a trace-time boundary:
                    # run the estimation/quarantine sweep up to it.  Queued
                    # (not yet flushed) LUs behind the boundary resync on
                    # apply — the broker's skip_db path keeps the DB
                    # monotonic.
                    while record.time >= boundary:
                        service.tick(boundary)
                        boundary += sweep_interval
                submit(record.to_update(), arrival=arrivals[index])
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
        records=len(records),
        rate=config.rate,
        replay_seconds=sim.now,
        trace_meta=trace_meta,
        metrics=metrics,
    )
    return report, service
