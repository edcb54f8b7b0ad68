"""Congestion study: LU traffic through a bandwidth-limited uplink.

The paper's motivation made quantitative: all of a region's LUs share one
constrained uplink (e.g. a base station backhaul).  The study plays the
per-second LU streams of the ideal lane and the ADF lanes through
identical :class:`~repro.network.queueing.QueueingChannel` instances and
measures queueing delay and overflow drops.  Where the ideal stream
saturates the link, the ADF's reduced stream stays fast — that delta *is*
the paper's "system load" argument.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_experiment
from repro.experiments.results import ExperimentResult
from repro.network.messages import LocationUpdate
from repro.network.queueing import QueueingChannel
from repro.simkernel import Simulator
from repro.util.validation import check_positive

__all__ = ["CongestionPoint", "congestion_study", "replay_lane_counts"]

#: Over-the-air size of one LU (header + payload), from the message model.
_LU_BYTES = LocationUpdate(sender="x", timestamp=0.0).size_bytes


@dataclass(frozen=True)
class CongestionPoint:
    """Uplink behaviour for one lane at one bandwidth."""

    lane: str
    bandwidth_bps: float
    offered: int
    delivered: int
    mean_delay: float
    max_delay: float
    drop_rate: float
    utilisation: float


def replay_lane_counts(
    sim: Simulator,
    result: ExperimentResult,
    lane_name: str,
    offer: Callable[[LocationUpdate], object],
) -> int:
    """Schedule a lane's recorded per-second LU counts on *sim*.

    Each second's LUs are spread uniformly across the interval; *offer*
    is called with each LU at its time.  Returns how many were scheduled.
    """
    offered = 0
    for second, count in result.lanes[lane_name].meter.per_second(result.duration):
        for k in range(int(count)):
            at = second + (k + 0.5) / max(count, 1.0)
            message = LocationUpdate(sender=lane_name, timestamp=at, node_id=f"{k}")
            sim.schedule_at(max(at, sim.now), functools.partial(offer, message))
            offered += 1
    return offered


def _replay_lane(
    result: ExperimentResult, lane_name: str, bandwidth_bps: float
) -> CongestionPoint:
    """Play a lane's recorded per-second LU counts through one uplink."""
    sim = Simulator()
    channel = QueueingChannel(
        sim, bandwidth_bps=bandwidth_bps, name=lane_name
    )
    offered = replay_lane_counts(
        sim, result, lane_name, lambda m: channel.send(m, lambda _m: None)
    )
    sim.run()
    busy_time = channel.stats.delivered * (_LU_BYTES * 8.0 / bandwidth_bps)
    return CongestionPoint(
        lane=lane_name,
        bandwidth_bps=bandwidth_bps,
        offered=offered,
        delivered=channel.stats.delivered,
        mean_delay=channel.stats.mean_delay,
        max_delay=channel.stats.max_delay,
        drop_rate=channel.stats.drop_rate,
        utilisation=min(busy_time / result.duration, 1.0),
    )


def congestion_study(
    config: ExperimentConfig | None = None,
    *,
    bandwidth_bps: float = 60_000.0,
) -> list[CongestionPoint]:
    """Run the experiment, then replay every lane through the same uplink.

    The default bandwidth (60 kbit/s — a GPRS-class uplink, period-correct
    for 2007) sits just *below* the ideal lane's offered load of
    ``140 LU/s x 96 B = ~107 kbit/s``, so the unfiltered stream saturates
    while the ADF lanes fit.
    """
    check_positive(bandwidth_bps, "bandwidth_bps")
    config = config or ExperimentConfig(duration=120.0)
    result = run_experiment(config)
    return [
        _replay_lane(result, lane_name, bandwidth_bps)
        for lane_name in result.lanes
    ]
