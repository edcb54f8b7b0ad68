"""The broker-as-a-service ingest path.

:class:`IngestService` is the online front door of the serving layer: it
accepts LU submissions from any number of clients, parks them in bounded
per-shard queues, and drains those queues with batched writes into a
:class:`~repro.serving.store.ShardedLocationStore`.

Scheduling runs on the repo's deterministic
:class:`~repro.simkernel.Simulator` — the service never reads a wall
clock (DET001).  "Time" is whatever clock the simulator advances: the
replay load generator drives it with virtual arrival times derived from
the trace and the configured rate, which is what makes a replay's
latency distribution a pure function of (trace, rate, config) and the
exported report byte-reproducible.

Backpressure is explicit and loss is visible:

* a submission that finds its shard queue full is **shed** — counted
  (``serving.ingest.shed``), reported, and rejected back to the caller
  (``submit`` returns False); nothing buffers without bound.

Queues hold rows, not objects: each entry is a run of row indices into
a :class:`~repro.serving.trace.TraceBatch` with their arrival times.
The load generator offers whole runs (:meth:`IngestService.submit_rows`);
a lone LU (:meth:`IngestService.submit`) is a one-row batch.  A flush
hands each shard's rows to the store in one call.

Ingest latency (enqueue to batched-apply, in virtual seconds) feeds a
telemetry histogram that keeps every sample, so the p50/p90/p99 the
load generator reports against (the SLO surface) are exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

from repro.network.messages import LocationUpdate
from repro.serving.durability import DurabilityManager
from repro.serving.store import IngestOutcome, ShardedLocationStore
from repro.serving.trace import TraceBatch, TraceRecord
from repro.simkernel import Simulator
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.metrics import Histogram
from repro.util.validation import check_in_range, check_positive

__all__ = ["ServingConfig", "IngestService", "RecoveryStats"]

#: Row index 0 of a one-row batch.
_FIRST_ROW = np.zeros(1, dtype=np.intp)

#: Latency buckets for the ingest histogram (virtual seconds).  Batched
#: drains bound latency by the flush interval under light load, so the
#: default simulation buckets (1 ms .. 10 s) fit unchanged; they are
#: restated here so the serving SLO surface is explicit.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

@dataclass(frozen=True)
class ServingConfig:
    """Ingest-service tunables.

    ``queue_capacity`` bounds each shard's intake queue — the explicit
    backpressure point.  ``batch_size`` caps how many records one flush
    applies per shard, and ``flush_interval`` is the drain period, so a
    single shard's sustainable throughput is
    ``batch_size / flush_interval`` records per (virtual) second; offered
    load beyond ``shards`` times that saturates the queues and sheds.
    Degradation ages are expressed in reporting-interval multiples,
    mirroring :class:`~repro.experiments.chaos.ChaosConfig`.
    """

    shards: int = 4
    queue_capacity: int = 4096
    batch_size: int = 512
    flush_interval: float = 0.05
    report_interval: float = 1.0
    max_extrapolation_intervals: float = 10.0
    quarantine_intervals: float = 30.0
    smoothing_alpha: float = 0.4
    use_location_estimator: bool = True

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        check_positive(self.flush_interval, "flush_interval")
        check_positive(self.report_interval, "report_interval")
        check_in_range(
            self.smoothing_alpha, "smoothing_alpha", 0.0, 1.0, inclusive=False
        )

    @property
    def drain_rate(self) -> float:
        """Aggregate sustainable throughput (records per virtual second)."""
        return self.shards * self.batch_size / self.flush_interval


@dataclass
class IngestStats:
    """Counters accumulated by an ingest service."""

    offered: int = 0
    accepted: int = 0
    shed: int = 0
    batches: int = 0
    max_queue_depth: int = 0
    #: Peak summed depth across all shard queues at any flush boundary.
    max_total_depth: int = 0
    shed_per_shard: list[int] = field(default_factory=list)
    #: Submissions refused because the target shard was crashed (a subset
    #: of ``shed`` — the recovery gate's explicitly-accounted window).
    shed_down: int = 0
    #: Queued-but-unflushed records dropped by shard crashes.
    crash_dropped_queued: int = 0
    crashes: int = 0
    recoveries: int = 0

    @property
    def shed_rate(self) -> float:
        """Fraction of offered submissions rejected for lack of queue room."""
        return self.shed / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class RecoveryStats:
    """One shard recovery, as observed by the service.

    ``affected_nodes`` is the crash's explicitly-accounted loss window:
    nodes whose queued-but-unflushed records died with the shard plus
    nodes shed while it was down.  Everything *outside* that set must
    converge byte-identically with an uncrashed run — the chaos lane's
    correctness gate.  ``wall_s`` is measured by the injected recovery
    clock (zero when none was provided) — the only wall-clock quantity
    in the serving layer, and it never influences simulation behaviour.
    """

    shard: int
    at: float
    snapshot_lsn: int
    replayed: int
    dropped_queued: int
    shed_while_down: int
    affected_nodes: tuple[str, ...]
    wall_s: float


class IngestService:
    """Bounded-queue, batch-draining LU ingest front end."""

    def __init__(
        self,
        sim: Simulator,
        config: ServingConfig | None = None,
        *,
        telemetry: Any = None,
        name: str = "serving",
        durability: DurabilityManager | None = None,
        recovery_clock: Callable[[], float] | None = None,
    ) -> None:
        self.config = config or ServingConfig()
        self._sim = sim
        self.name = name
        self.durability = durability
        #: Wall clock for recovery-time measurement only (DET001: the
        #: service itself never reads one; callers inject e.g.
        #: ``time.perf_counter`` from the chaos lane).
        self._recovery_clock = recovery_clock
        self.recoveries: list[RecoveryStats] = []
        #: Per-down-shard accumulation of the crash's loss window.
        self._crash_affected: dict[int, set[str]] = {}
        self._crash_dropped: dict[int, int] = {}
        self._crash_shed: dict[int, int] = {}
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._telemetry = tm
        self._instrumented = tm.enabled
        self.store = ShardedLocationStore(
            self.config.shards,
            report_interval=self.config.report_interval,
            max_extrapolation_intervals=self.config.max_extrapolation_intervals,
            quarantine_intervals=self.config.quarantine_intervals,
            smoothing_alpha=self.config.smoothing_alpha,
            use_location_estimator=self.config.use_location_estimator,
            telemetry=telemetry,
            name=name,
        )
        #: Per shard: queued (batch, rows, arrival times) runs, in order,
        #: and how many rows they hold.
        self._queues: list[deque[tuple[TraceBatch, NDArray[Any], NDArray[Any]]]] = [
            deque() for _ in range(self.config.shards)
        ]
        self._depths = [0] * self.config.shards
        if durability is not None:
            durability.bind(self.config.shards)
        self._capacity = self.config.queue_capacity
        self._flush_scheduled = False
        self.stats = IngestStats(shed_per_shard=[0] * self.config.shards)
        self._t_offered = tm.counter("serving.ingest.offered", service=name)
        self._t_accepted = tm.counter("serving.ingest.accepted", service=name)
        self._t_shed = tm.counter("serving.ingest.shed", service=name)
        self._t_batches = tm.counter("serving.ingest.batches", service=name)
        self._t_depth = tm.gauge("serving.queue.depth", service=name)
        # The latency histogram must survive disabled telemetry: the
        # replay report reads p50/p99 from it either way, so fall back to
        # a standalone (unregistered) instrument when telemetry is off.
        if tm.enabled:
            self.latency: Histogram = tm.histogram(
                "serving.ingest.latency", buckets=LATENCY_BUCKETS, service=name
            )
        else:
            self.latency = Histogram(
                "serving.ingest.latency", buckets=LATENCY_BUCKETS
            )

    # -- intake ---------------------------------------------------------------
    def shard_index(self, update: LocationUpdate) -> int:
        """Which shard queue *update* routes to."""
        return self.store.shard_for_update(update)

    def submit(
        self, update: LocationUpdate, *, arrival: float | None = None
    ) -> bool:
        """Offer one LU; returns False when backpressure sheds it.

        *arrival* backdates the enqueue time for latency accounting; it
        defaults to the simulator's current time.
        """
        when = self._sim.now if arrival is None else arrival
        batch = TraceBatch.from_records([TraceRecord.from_update(update)])
        return bool(
            self.submit_rows(
                batch, _FIRST_ROW, np.array([when]), self.shard_index(update)
            )
        )

    def submit_rows(
        self,
        batch: TraceBatch,
        rows: NDArray[Any],
        arrivals: NDArray[Any],
        index: int,
    ) -> int:
        """Offer *batch*'s *rows*, all routed to shard *index*, in order.

        *arrivals* are the rows' enqueue times for latency accounting
        (the load generator submits whole windows of nominal arrivals
        from one event).  Rows past the queue's free room are shed, and
        all of them when the shard is down.  Returns how many were
        accepted.
        """
        offered = len(rows)
        stats = self.stats
        stats.offered += offered
        instrumented = self._instrumented
        if instrumented:
            self._t_offered.inc(offered)
        if self.store.shard_is_down(index):
            stats.shed += offered
            stats.shed_down += offered
            stats.shed_per_shard[index] += offered
            self._crash_shed[index] = self._crash_shed.get(index, 0) + offered
            self._crash_affected.setdefault(index, set()).update(
                _node_ids(batch, rows)
            )
            if instrumented:
                self._t_shed.inc(offered)
            return 0
        depth = self._depths[index]
        accepted = min(offered, max(self._capacity - depth, 0))
        shed = offered - accepted
        if shed:
            stats.shed += shed
            stats.shed_per_shard[index] += shed
            if instrumented:
                self._t_shed.inc(shed)
        if not accepted:
            return 0
        if shed:
            rows = rows[:accepted]
            arrivals = arrivals[:accepted]
        self._queues[index].append((batch, rows, arrivals))
        depth += accepted
        self._depths[index] = depth
        stats.accepted += accepted
        if instrumented:
            self._t_accepted.inc(accepted)
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._sim.schedule_in(
                self.config.flush_interval,
                self._flush,
                label=f"{self.name}:flush",
            )
        return accepted

    # -- the drain ------------------------------------------------------------
    def _take(
        self, index: int, count: int
    ) -> list[tuple[TraceBatch, NDArray[Any], NDArray[Any]]]:
        """Dequeue the next *count* rows of shard *index*, joined into one
        run per batch so that a flush applies them in one call (a replay
        queues a run per shard for every sweep it splits a window at)."""
        queue = self._queues[index]
        self._depths[index] -= count
        runs: list[tuple[TraceBatch, list[NDArray[Any]], list[NDArray[Any]]]] = []
        while count:
            batch, rows, arrivals = queue.popleft()
            if len(rows) > count:
                queue.appendleft((batch, rows[count:], arrivals[count:]))
                rows = rows[:count]
                arrivals = arrivals[:count]
            count -= len(rows)
            if runs and runs[-1][0] is batch:
                runs[-1][1].append(rows)
                runs[-1][2].append(arrivals)
            else:
                runs.append((batch, [rows], [arrivals]))
        return [
            (batch, np.concatenate(rows), np.concatenate(arrivals))
            for batch, rows, arrivals in runs
        ]

    def _flush(self) -> None:
        """Apply up to ``batch_size`` queued records per shard.

        Self-perpetuating only while backlog remains, so a drained
        service schedules nothing and the simulation can run to
        completion without an explicit end bound.
        """
        self._flush_scheduled = False
        now = self._sim.now
        batch_size = self.config.batch_size
        observe = self.latency.observe_many
        apply = self.store.apply
        durability = self.durability
        backlog = 0
        total_before = 0
        for index in range(self.config.shards):
            depth = self._depths[index]
            total_before += depth
            take = min(depth, batch_size)
            if take:
                appended = 0
                for batch, rows, arrivals in self._take(index, take):
                    outcome = apply(batch, rows)
                    if durability is not None:
                        # Log-after-apply: made durable before this event
                        # ends, so (the crash model being event-granular)
                        # WAL contents exactly track what the shard absorbed.
                        applied = rows[outcome == IngestOutcome.APPLIED]
                        if len(applied):
                            durability.wal(index).append_update(batch, applied)
                            appended += len(applied)
                    observe(now - arrivals)
                if durability is not None:
                    if appended:
                        durability.note_appended(index, appended)
                    durability.flush_shard(index)
                    durability.maybe_snapshot(
                        index, lambda index=index: self.store.shard_image(index)
                    )
            backlog += self._depths[index]
        stats = self.stats
        stats.batches += 1
        if total_before > stats.max_total_depth:
            stats.max_total_depth = total_before
        if self._instrumented:
            self._t_batches.inc()
            self._t_depth.set(backlog)
        if backlog:
            self._flush_scheduled = True
            self._sim.schedule_in(
                self.config.flush_interval,
                self._flush,
                label=f"{self.name}:flush",
            )

    def tick(self, now: float) -> int:
        """Run the store's estimation/quarantine sweep (PR 4 machinery).

        With durability on, the sweep boundary is WAL-logged per live
        shard *before* it runs, so replay reproduces estimation state
        (extrapolation decay, quarantine timing) bit-exactly.
        """
        durability = self.durability
        if durability is not None:
            for index in range(self.config.shards):
                if not self.store.shard_is_down(index):
                    durability.log_tick(index, now)
                    durability.flush_shard(index)
        return self.store.tick(now)

    # -- crash / recovery -----------------------------------------------------
    def crash_shard(self, index: int) -> int:
        """Kill shard *index* deterministically; returns queued records lost.

        Drops the shard's in-memory state, its queued-but-unflushed
        window, and any WAL entries not yet flushed — exactly what a
        process crash between flush windows loses.  Requires durability:
        a crash with no disk behind it could never satisfy the recovery
        gate, so it is a configuration error.
        """
        if self.durability is None:
            raise ValueError(
                "crash_shard requires a durability manager — an in-memory "
                "shard with no WAL cannot be recovered"
            )
        queue = self._queues[index]
        dropped = self._depths[index]
        affected: set[str] = set()
        for batch, rows, _ in queue:
            affected.update(_node_ids(batch, rows))
        queue.clear()
        self._depths[index] = 0
        self.durability.on_crash(index)
        affected.update(self.store.crash_shard(index))
        self._crash_affected[index] = affected
        self._crash_dropped[index] = dropped
        self._crash_shed[index] = 0
        stats = self.stats
        stats.crashes += 1
        stats.crash_dropped_queued += dropped
        return dropped

    def restart_shard(self, index: int) -> RecoveryStats:
        """Recover shard *index* from snapshot + WAL tail replay.

        Rebuilds the shard from disk, conditionally restores store
        gates, then snapshots the recovered state (compacting the WAL)
        so a repeat crash replays a short tail.  Returns the recovery's
        stats, also appended to :attr:`recoveries`.
        """
        if self.durability is None:
            raise ValueError("restart_shard requires a durability manager")
        clock = self._recovery_clock
        started = clock() if clock is not None else 0.0
        recovered = self.durability.recover_shard(index)
        replayed = self.store.restore_shard(
            index, image=recovered.image, tail=recovered.tail
        )
        self.durability.snapshot_now(index, self.store.shard_image(index))
        wall_s = (clock() - started) if clock is not None else 0.0
        stats = RecoveryStats(
            shard=index,
            at=self._sim.now,
            snapshot_lsn=recovered.snapshot_lsn,
            replayed=replayed,
            dropped_queued=self._crash_dropped.pop(index, 0),
            shed_while_down=self._crash_shed.pop(index, 0),
            affected_nodes=tuple(sorted(self._crash_affected.pop(index, set()))),
            wall_s=wall_s,
        )
        self.recoveries.append(stats)
        self.stats.recoveries += 1
        return stats

    def affected_nodes(self) -> set[str]:
        """Every node in any crash's explicitly-accounted loss window.

        The union over completed recoveries and still-down shards — the
        set the convergence gate excludes from the byte-compare.
        """
        affected: set[str] = set()
        for recovery in self.recoveries:
            affected.update(recovery.affected_nodes)
        for pending in self._crash_affected.values():
            affected.update(pending)
        return affected

    @property
    def backlog(self) -> int:
        """Records currently queued across all shards."""
        return sum(self._depths)


def _node_ids(batch: TraceBatch, rows: NDArray[Any]) -> list[str]:
    """The distinct node ids of *batch*'s *rows*."""
    node_ids = batch.node_ids
    return [node_ids[code] for code in np.unique(batch.node[rows]).tolist()]
