"""Staging study: location traffic vs task data on a shared uplink.

The full-circle version of the paper's motivation.  A mobile grid does two
things with its constrained wireless links: keep the broker's location view
fresh (LUs) and move the actual work (task inputs/outputs).  Both share
the same bandwidth, so every filtered LU is bandwidth handed back to the
workload.

The study replays each lane's recorded LU stream *and* a bag-of-tasks data
staging workload through one FIFO uplink and measures the job's data
completion time and the LU delay.  Under the ideal (unfiltered) policy the
link saturates and staging crawls; under the ADF the same job finishes in
a fraction of the time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentConfig
from repro.experiments.congestion import replay_lane_counts
from repro.experiments.harness import run_experiment
from repro.experiments.results import ExperimentResult
from repro.network.messages import DataTransfer, LocationUpdate
from repro.network.queueing import QueueingChannel
from repro.simkernel import Simulator
from repro.util.validation import check_positive

__all__ = ["StagingPoint", "staging_study"]


@dataclass(frozen=True)
class StagingPoint:
    """Shared-uplink outcome for one lane."""

    lane: str
    bandwidth_bps: float
    n_tasks: int
    task_bytes: int
    #: When the last task's input finished staging (inf if never).
    staging_completed_at: float
    mean_lu_delay: float
    lu_drop_rate: float

    @property
    def staging_finished(self) -> bool:
        """True when every task's data made it through."""
        return self.staging_completed_at != float("inf")


def _replay(
    result: ExperimentResult,
    lane_name: str,
    *,
    bandwidth_bps: float,
    n_tasks: int,
    task_bytes: int,
    job_start: float,
) -> StagingPoint:
    sim = Simulator()
    channel = QueueingChannel(
        sim, bandwidth_bps=bandwidth_bps, queue_limit=10_000, name=lane_name
    )
    lu_delays: list[float] = []
    lu_dropped = 0
    staged: list[float] = []

    def offer(update: LocationUpdate) -> None:
        nonlocal lu_dropped
        enqueued = sim.now
        if not channel.send(update, lambda _m: lu_delays.append(sim.now - enqueued)):
            lu_dropped += 1

    # Location traffic: the lane's recorded per-second LU counts.
    lu_offered = replay_lane_counts(sim, result, lane_name, offer)

    # Task data: staged sequentially — chunk k+1 is offered when chunk k
    # completes (a stop-and-wait transfer loop, as a real staging client
    # over a shared FIFO link behaves).  Sequential submission is what
    # makes the link's *residual* capacity visible: between two chunks the
    # ongoing LU stream reclaims its share of the queue.
    def stage(task: int) -> None:
        if task >= n_tasks:
            return
        transfer = DataTransfer(
            sender="broker",
            timestamp=sim.now,
            task_id=task,
            payload_bytes=task_bytes,
        )

        def done(_message) -> None:
            staged.append(sim.now)
            stage(task + 1)

        if not channel.send(transfer, done):
            # Queue full: retry shortly rather than losing the task.
            sim.schedule_in(1.0, lambda: stage(task))

    sim.schedule_at(job_start, lambda: stage(0))

    sim.run()
    completed = max(staged) if len(staged) == n_tasks else float("inf")
    mean_delay = sum(lu_delays) / len(lu_delays) if lu_delays else 0.0
    return StagingPoint(
        lane=lane_name,
        bandwidth_bps=bandwidth_bps,
        n_tasks=n_tasks,
        task_bytes=task_bytes,
        staging_completed_at=completed,
        mean_lu_delay=mean_delay,
        lu_drop_rate=lu_dropped / lu_offered if lu_offered else 0.0,
    )


def staging_study(
    config: ExperimentConfig | None = None,
    *,
    bandwidth_bps: float = 120_000.0,
    n_tasks: int = 20,
    task_bytes: int = 30_000,
    job_start: float = 10.0,
) -> list[StagingPoint]:
    """Run the experiment, then replay each lane + the staging workload.

    Defaults: a 120 kbit/s uplink, comfortably above the ideal LU load
    (~107 kbit/s) alone — but the moment the job's 20 x 30 kB inputs
    arrive, the unfiltered lane has almost no headroom to move them.
    """
    check_positive(bandwidth_bps, "bandwidth_bps")
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    check_positive(task_bytes, "task_bytes")
    config = config or ExperimentConfig(duration=120.0)
    if job_start >= config.duration:
        raise ValueError("job_start must fall inside the run")
    result = run_experiment(config)
    return [
        _replay(
            result,
            lane_name,
            bandwidth_bps=bandwidth_bps,
            n_tasks=n_tasks,
            task_bytes=task_bytes,
            job_start=job_start,
        )
        for lane_name in result.lanes
    ]
