"""Chaos study: the ADF pipeline under injected faults.

The paper's evaluation runs on an ideal wireless substrate; this study
measures what the same pipeline does on a hostile one, and what the
recovery machinery buys back.  One run simulates the Table 1 population,
filters every LU through a single ADF (so all transports see *identical*
offered traffic), and delivers the surviving LUs over three paired lanes:

* ``baseline`` — a fault-free transparent transport (the control);
* ``plain``    — fire-and-forget through a wireless gateway whose uplink
  the fault schedule degrades (Gilbert–Elliott burst loss, latency) and
  whose gateway the schedule takes down;
* ``arq``      — the same faulty substrate, but through
  :class:`~repro.network.reliable.ReliableLink` (ack-by-seq, exponential
  backoff, bounded retries); arrivals during a gateway outage are not
  acked, so the retry budget rides out short outages.

Each lane feeds a :class:`~repro.broker.broker.GridBroker` running the
graceful-degradation policy (bounded extrapolation + quarantine), and the
study reports LU overhead, delivery, RMSE inflation versus baseline, and
post-fault recovery time.  Everything — the fault timeline included — is a
deterministic function of the seed and the fault intensity, so a chaos
report is byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from repro.broker.broker import BrokerConfig, GridBroker
from repro.campus import Region, RegionKind, default_campus
from repro.campus.region import NetworkAccess
from repro.core.adf import AdaptiveDistanceFilter
from repro.core.distance_filter import FilterDecision
from repro.estimation.metrics import rmse
from repro.experiments.config import ExperimentConfig
from repro.faults import (
    ChannelDegradation,
    ChurnTracker,
    FaultInjector,
    FaultSchedule,
    GatewayOutage,
    Presence,
    RegionBlackout,
)
from repro.geometry import Rect, Vec2
from repro.mobility.population import build_population
from repro.network.channel import WirelessChannel
from repro.network.gateway import WirelessGateway
from repro.network.messages import LocationUpdate, SequenceSource
from repro.network.reliable import ReliableLink
from repro.simkernel import Simulator
from repro.util.rng import RngRegistry
from repro.util.validation import check_in_range, check_positive

__all__ = [
    "ChaosConfig",
    "ChaosLaneStats",
    "ChaosResult",
    "ResilienceReport",
    "chaos_study",
    "chaos_sweep",
]

#: The synthetic region id the aggregate uplink gateway covers; fault
#: schedules target it by name.
UPLINK_REGION_ID = "uplink"


def _uplink_region() -> Region:
    """The synthetic region the chaos gateway nominally covers."""
    return Region(
        region_id=UPLINK_REGION_ID,
        name="chaos uplink",
        kind=RegionKind.BUILDING,
        bounds=Rect(-1e9, -1e9, 1e9, 1e9),
        access=NetworkAccess.CELLULAR,
        entrance=Vec2(0.0, 0.0),
    )


@dataclass(frozen=True)
class ChaosConfig:
    """Chaos-study tunables (on top of an :class:`ExperimentConfig`)."""

    dth_factor: float = 1.0
    #: ARQ parameters.  The default budget's cumulative backoff span
    #: (0.6 * (2^7 - 1) ≈ 76 s) deliberately exceeds the outage windows
    #: `FaultSchedule.from_intensity` generates, so the reliable lane can
    #: ride out a dead gateway, not just burst loss.
    ack_timeout: float = 0.6
    backoff_factor: float = 2.0
    max_retries: int = 6
    #: Broker graceful-degradation policy (reporting-interval multiples).
    max_extrapolation_intervals: float = 10.0
    quarantine_intervals: float = 30.0
    #: Include a gateway-outage window in intensity-derived schedules.
    outages: bool = True
    #: Include node churn in intensity-derived schedules.
    churn: bool = False
    #: Recovery detector: a lane has recovered from a fault window once its
    #: step RMSE returns within ``factor * baseline + slack`` metres.
    recovery_factor: float = 1.5
    recovery_slack: float = 0.75

    def __post_init__(self) -> None:
        check_positive(self.dth_factor, "dth_factor")
        check_positive(self.ack_timeout, "ack_timeout")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        check_positive(self.max_extrapolation_intervals, "max_extrapolation_intervals")
        check_positive(self.quarantine_intervals, "quarantine_intervals")
        check_positive(self.recovery_factor, "recovery_factor")
        if self.recovery_slack < 0:
            raise ValueError(
                f"recovery_slack must be >= 0, got {self.recovery_slack}"
            )


@dataclass(frozen=True)
class ChaosLaneStats:
    """One transport lane's outcome."""

    name: str
    delivered: int
    lost: int
    transmissions: int
    retransmits: int
    duplicates: int
    gave_up: int
    acks_sent: int
    bytes_sent: int
    mean_rmse: float
    rmse_inflation: float
    recovery_time: float
    quarantines: int
    resyncs: int
    stale_lus_dropped: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ChaosResult:
    """Outcome of one chaos run at one fault intensity."""

    intensity: float
    seed: int
    duration: float
    node_count: int
    offered: int
    baseline_rmse: float
    plain: ChaosLaneStats
    arq: ChaosLaneStats
    #: Of the LUs the plain lane lost, the fraction the ARQ lane delivered.
    recovered_fraction: float
    #: ARQ data transmissions per offered LU (1.0 = no retransmits).
    lu_overhead: float
    schedule: tuple[dict, ...]
    timeline: tuple[dict, ...]
    disconnections: int

    def to_json_dict(self) -> dict:
        return asdict(self)


class _Lane:
    """One transport lane's live plumbing during a run."""

    __slots__ = ("name", "broker", "delivered", "step_rmse")

    def __init__(self, name: str, broker: GridBroker) -> None:
        self.name = name
        self.broker = broker
        self.delivered = 0
        self.step_rmse: list[float] = []

    def ingest(self, update: LocationUpdate) -> None:
        self.delivered += 1
        self.broker.receive_update(update)


def chaos_study(
    config: ExperimentConfig | None = None,
    *,
    chaos: ChaosConfig | None = None,
    intensity: float = 0.5,
    schedule: FaultSchedule | None = None,
) -> ChaosResult:
    """Run the Table 1 population through faulted transports.

    *schedule* overrides the intensity-derived fault schedule (the
    intensity is still recorded in the result for labelling).
    """
    check_in_range(intensity, "intensity", 0.0, 1.0)
    config = config or ExperimentConfig(duration=120.0)
    chaos = chaos or ChaosConfig()
    duration = config.duration
    dt = config.report_interval
    if schedule is None:
        schedule = FaultSchedule.from_intensity(
            intensity,
            duration,
            regions=(UPLINK_REGION_ID,) if chaos.outages else (),
            churn=chaos.churn,
        )

    sim = Simulator()
    registry = RngRegistry(config.seed)
    campus = default_campus()
    nodes = build_population(campus, config.population, registry)
    seq = SequenceSource()
    adf = AdaptiveDistanceFilter(config.adf_config(chaos.dth_factor))

    broker_config = BrokerConfig(
        use_location_estimator=True,
        smoothing_alpha=config.smoothing_alpha,
        report_interval=dt,
        max_extrapolation_age=chaos.max_extrapolation_intervals * dt,
        quarantine_age=chaos.quarantine_intervals * dt,
    )
    baseline = _Lane("baseline", GridBroker(broker_config, name="chaos/baseline"))
    plain = _Lane("plain", GridBroker(broker_config, name="chaos/plain"))
    arq = _Lane("arq", GridBroker(broker_config, name="chaos/arq"))

    # The physical substrate: one aggregate gateway for the whole campus
    # (its region id is what outage faults target) whose uplink carries the
    # plain lane; the ARQ lane runs over its own data/ack channels but
    # shares the *same* gateway state — a dead gateway acks nothing.
    region = _uplink_region()
    channel_plain = WirelessChannel(
        sim, registry.stream("chaos/channel/plain"), name="chaos/plain"
    )
    gateway = WirelessGateway(region, channel_plain, sink=plain.ingest)
    channel_data = WirelessChannel(
        sim, registry.stream("chaos/channel/arq-data"), name="chaos/arq-data"
    )
    channel_ack = WirelessChannel(
        sim, registry.stream("chaos/channel/arq-ack"), name="chaos/arq-ack"
    )
    link = ReliableLink(
        sim,
        channel_data,
        sink=arq.ingest,
        ack_channel=channel_ack,
        accept=lambda message: gateway.operational,
        ack_timeout=chaos.ack_timeout,
        backoff_factor=chaos.backoff_factor,
        max_retries=chaos.max_retries,
        seq_source=seq,
        name="chaos/arq",
    )

    injector = FaultInjector(schedule)
    injector.attach(sim, gateways=[gateway], channels=[channel_data, channel_ack])
    # The injector schedules no churn; the step loop below honours it.
    churn = ChurnTracker(schedule, registry.stream("faults/churn"), dt)
    offered = 0

    lanes = (baseline, plain, arq)

    def step() -> None:
        nonlocal offered
        now = sim.now
        churn.begin_step(now)
        truths: list[tuple[str, Vec2]] = []
        for node in nodes:
            sample = node.advance(dt)
            node_id = node.node_id
            presence = churn.poll(node_id)
            if presence is Presence.OFFLINE:
                continue
            if presence is Presence.RETURNED:
                adf.forget(node_id)
            truths.append((node_id, sample.position))
            update = LocationUpdate(
                sender=node_id,
                timestamp=now,
                seq=seq.take(),
                node_id=node_id,
                position=sample.position,
                velocity=sample.velocity,
                region_id=node.home_region,
            )
            decision = adf.process(update)
            if decision is not FilterDecision.TRANSMIT:
                continue
            dth = adf.dth_of(node_id)
            if dth > 0:
                update = replace(update, dth=dth)
            offered += 1
            baseline.ingest(update)
            gateway.receive(update)
            link.send(update)
        adf.tick(now)
        for lane in lanes:
            lane.broker.tick(now)
            errors: list[float] = []
            for node_id, truth in truths:
                believed = lane.broker.believed_position(node_id, now)
                if believed is not None:
                    errors.append(truth.distance_to(believed))
            lane.step_rmse.append(rmse(errors) if errors else 0.0)

    sim.schedule_every(dt, step, start=dt, end=duration, label="chaos:step")
    sim.run_until(duration)
    # Drain in-flight ARQ retries/acks; the retry budget bounds this.
    sim.run()

    # -- aggregation ---------------------------------------------------------
    step_times = [(i + 1) * dt for i in range(len(baseline.step_rmse))]
    windows = [
        fault.end
        for fault in schedule.faults
        if isinstance(fault, (GatewayOutage, RegionBlackout, ChannelDegradation))
    ]

    def recovery_time(lane: _Lane) -> float:
        worst = 0.0
        for end in windows:
            recovered_at = None
            for t, lane_rmse, base_rmse in zip(
                step_times, lane.step_rmse, baseline.step_rmse
            ):
                if t < end:
                    continue
                if lane_rmse <= base_rmse * chaos.recovery_factor + chaos.recovery_slack:
                    recovered_at = t
                    break
            took = (recovered_at - end) if recovered_at is not None else duration - end
            worst = max(worst, max(took, 0.0))
        return worst

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    base_mean = mean(baseline.step_rmse)

    def lane_stats(lane: _Lane, **transport: int) -> ChaosLaneStats:
        lane_mean = mean(lane.step_rmse)
        return ChaosLaneStats(
            name=lane.name,
            delivered=lane.delivered,
            lost=offered - lane.delivered,
            mean_rmse=lane_mean,
            rmse_inflation=lane_mean / base_mean if base_mean > 0 else 1.0,
            recovery_time=recovery_time(lane),
            quarantines=lane.broker.quarantines,
            resyncs=lane.broker.resyncs,
            stale_lus_dropped=lane.broker.stale_lus_dropped,
            **transport,
        )

    plain_stats = lane_stats(
        plain,
        transmissions=channel_plain.stats.sent,
        retransmits=0,
        duplicates=0,
        gave_up=0,
        acks_sent=0,
        bytes_sent=channel_plain.stats.bytes_sent,
    )
    arq_stats = lane_stats(
        arq,
        transmissions=link.stats.transmissions,
        retransmits=link.stats.retransmits,
        duplicates=link.stats.duplicates,
        gave_up=link.stats.gave_up,
        acks_sent=link.stats.acks_sent,
        bytes_sent=channel_data.stats.bytes_sent + channel_ack.stats.bytes_sent,
    )
    plain_lost = plain_stats.lost
    recovered = (
        (plain_lost - arq_stats.lost) / plain_lost if plain_lost > 0 else 1.0
    )
    return ChaosResult(
        intensity=intensity,
        seed=config.seed,
        duration=duration,
        node_count=len(nodes),
        offered=offered,
        baseline_rmse=base_mean,
        plain=plain_stats,
        arq=arq_stats,
        recovered_fraction=recovered,
        lu_overhead=link.stats.transmissions / offered if offered else 0.0,
        schedule=tuple(schedule.to_json_dict()),
        timeline=tuple(injector.timeline_json()),
        disconnections=churn.disconnections,
    )


@dataclass(frozen=True)
class ResilienceReport:
    """A fault-intensity sweep's outcomes, renderable and serialisable."""

    results: tuple[ChaosResult, ...]

    def render(self) -> str:
        """ASCII resilience table (one row per intensity per lane)."""
        lines = [
            "Resilience report "
            f"(seed {self.results[0].seed}, {self.results[0].duration:g}s, "
            f"{self.results[0].node_count} nodes)"
            if self.results
            else "Resilience report (empty)",
            f"{'intensity':>9}  {'lane':<6} {'delivered':>9} {'lost':>6} "
            f"{'retx':>6} {'overhead':>8} {'rmse':>7} {'inflation':>9} "
            f"{'recovery':>8}",
        ]
        for result in self.results:
            for lane in (result.plain, result.arq):
                overhead = (
                    lane.transmissions / result.offered if result.offered else 0.0
                )
                lines.append(
                    f"{result.intensity:>9.2f}  {lane.name:<6} "
                    f"{lane.delivered:>9} {lane.lost:>6} "
                    f"{lane.retransmits:>6} {overhead:>8.3f} "
                    f"{lane.mean_rmse:>7.2f} {lane.rmse_inflation:>9.2f} "
                    f"{lane.recovery_time:>8.1f}s"
                )
            lines.append(
                f"{'':>9}  arq recovered {result.recovered_fraction:.1%} of "
                f"plain-lane losses; baseline rmse {result.baseline_rmse:.2f} m"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {"results": [result.to_json_dict() for result in self.results]}

    def to_json(self) -> str:
        """Canonical JSON (sorted keys) — byte-stable for a given seed."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def chaos_sweep(
    intensities: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    config: ExperimentConfig | None = None,
    *,
    chaos: ChaosConfig | None = None,
) -> ResilienceReport:
    """Sweep fault intensity and collect a resilience report."""
    if not intensities:
        raise ValueError("need at least one intensity")
    results = tuple(
        chaos_study(config, chaos=chaos, intensity=intensity)
        for intensity in intensities
    )
    return ResilienceReport(results)
