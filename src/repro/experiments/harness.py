"""The full mobile-grid evaluation harness.

One run simulates the Table 1 population on the default campus and pushes
every node's per-second LU through several filtering "lanes" in parallel:

* ``ideal`` — no filtering (the paper's reference);
* ``adf-<f>`` — the Adaptive Distance Filter at DTH factor ``f``;
* ``gdf-<f>`` — the general DF baseline (optional, for ablation A1).

All lanes see the *same* mobility, so comparisons are paired exactly as in
the paper.  Each lane feeds two grid brokers — one with the Location
Estimator, one without — and per-second RMSE is measured against ground
truth for both, yielding every data series of Figs. 4-9 from a single run.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.broker.broker import BrokerConfig, GridBroker
from repro.broker.location_db import LocationRecord, RecordSource
from repro.campus import Campus, default_campus
from repro.core.adf import AdaptiveDistanceFilter
from repro.core.baselines import (
    FilterPolicy,
    GeneralDistanceFilterPolicy,
    IdealLUPolicy,
)
from repro.core.distance_filter import FilterDecision
from repro.estimation.metrics import rmse
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult, LaneResult, RegionErrors
from repro.faults.churn import ChurnTracker, Presence
from repro.faults.injector import FaultInjector
from repro.mobility.node import MobileNode
from repro.mobility.population import build_population
from repro.network.association import AssociationManager
from repro.network.channel import WirelessChannel
from repro.network.gateway import WirelessGateway
from repro.network.messages import LocationUpdate, SequenceSource
from repro.network.traffic import TrafficMeter
from repro.simkernel import Simulator
from repro.telemetry import Telemetry
from repro.util.rng import RngRegistry
from repro.util.timeseries import TimeSeries

__all__ = ["Lane", "MobileGridExperiment", "policy_kind", "run_experiment"]


def policy_kind(policy: FilterPolicy) -> str:
    """The lane-kind tag ("ideal" / "adf" / "gdf") for a filter policy."""
    if isinstance(policy, AdaptiveDistanceFilter):
        return "adf"
    if isinstance(policy, GeneralDistanceFilterPolicy):
        return "gdf"
    return "ideal"


@dataclass
class Lane:
    """One filtering policy plus its measurement apparatus."""

    name: str
    dth_factor: float | None
    policy: FilterPolicy
    meter: TrafficMeter
    broker_with_le: GridBroker
    broker_without_le: GridBroker
    gateways: dict[str, WirelessGateway] = field(default_factory=dict)
    rmse_with_le: TimeSeries = field(default_factory=TimeSeries)
    rmse_without_le: TimeSeries = field(default_factory=TimeSeries)
    region_errors_with_le: RegionErrors = field(default_factory=RegionErrors)
    region_errors_without_le: RegionErrors = field(default_factory=RegionErrors)
    cluster_series: TimeSeries = field(default_factory=TimeSeries)


class MobileGridExperiment:
    """Builds and runs the paper's evaluation."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        campus: Campus | None = None,
        nodes: Sequence[MobileNode] | None = None,
    ) -> None:
        """*nodes* replaces the Table 1 population built on *campus*."""
        self.config = config or ExperimentConfig()
        self.campus = campus or default_campus()
        self.rng = RngRegistry(self.config.seed)
        self.telemetry = Telemetry.from_config(self.config.telemetry)
        self.sim = Simulator(telemetry=self.telemetry)
        if self.telemetry.enabled:
            self.telemetry.bind(self.sim, end=self.config.duration)
        if nodes is None:
            nodes = build_population(self.campus, self.config.population, self.rng)
        self.nodes: list[MobileNode] = list(nodes)
        self._home_region_by_node: dict[str, str] = {
            node.node_id: node.home_region for node in self.nodes
        }
        self._road_region_ids: set[str] = {
            region.region_id for region in self.campus.roads()
        }
        # Per-run sequence source: every LU the harness emits takes its seq
        # from here, so seq values depend only on this run's own traffic —
        # not on whatever else the process built before (which made them
        # scheduling-dependent under the process-parallel sweep runner).
        self._seq = SequenceSource()
        self.lanes: list[Lane] = []
        self._build_lanes()
        # One association view for the whole experiment: which gateway
        # serves each node is a property of mobility, not of the filter
        # policy, so the ideal lane's gateways stand in for all lanes.
        self.associations = AssociationManager(self.lanes[0].gateways)
        self.fault_injector: FaultInjector | None = None
        self._churn: ChurnTracker | None = None
        faults = self.config.faults
        if faults is not None and faults:
            self.fault_injector = FaultInjector(faults, telemetry=self.telemetry)
            self.fault_injector.attach(
                self.sim,
                gateways=[
                    gateway
                    for lane in self.lanes
                    for gateway in lane.gateways.values()
                ],
            )
            if faults.has_churn:
                self._churn = ChurnTracker(
                    faults,
                    self.rng.stream("faults/churn"),
                    self.config.report_interval,
                )
        self._speed_sum = 0.0
        self._speed_count = 0
        self._classified_right = 0
        self._classified_total = 0

    # -- construction -----------------------------------------------------------
    def _build_lanes(self) -> None:
        self._add_lane("ideal", None, IdealLUPolicy())
        for factor in self.config.dth_factors:
            adf = AdaptiveDistanceFilter(
                self.config.adf_config(factor), telemetry=self.telemetry
            )
            self._add_lane(f"adf-{factor:g}", factor, adf)
        if self.config.include_general_df:
            for factor in self.config.dth_factors:
                gdf = GeneralDistanceFilterPolicy(
                    factor, report_interval=self.config.report_interval
                )
                self._add_lane(f"gdf-{factor:g}", factor, gdf)

    def _add_lane(self, name: str, factor: float | None, policy: FilterPolicy) -> None:
        broker_cfg_on = BrokerConfig(
            use_location_estimator=True,
            smoothing_alpha=self.config.smoothing_alpha,
            report_interval=self.config.report_interval,
        )
        broker_cfg_off = BrokerConfig(
            use_location_estimator=False,
            report_interval=self.config.report_interval,
        )
        lane = Lane(
            name=name,
            dth_factor=factor,
            policy=policy,
            meter=TrafficMeter(
                name, bin_width=min(1.0, self.config.report_interval)
            ),
            broker_with_le=GridBroker(
                broker_cfg_on, telemetry=self.telemetry, name=f"{name}/le-on"
            ),
            broker_without_le=GridBroker(
                broker_cfg_off, telemetry=self.telemetry, name=f"{name}/le-off"
            ),
        )
        channel_rng = self.rng.stream(f"channel/{name}")
        for region in self.campus.regions.values():
            channel = WirelessChannel(
                self.sim,
                channel_rng,
                base_latency=self.config.channel_latency,
                loss_probability=self.config.channel_loss,
                name=f"{name}/{region.region_id}",
                telemetry=self.telemetry,
            )
            lane.gateways[region.region_id] = WirelessGateway(
                region,
                channel,
                sink=functools.partial(self._filter_and_forward, lane),
                telemetry=self.telemetry,
            )
        self.lanes.append(lane)

    def lane(self, name: str) -> Lane:
        """Look up a lane by name (e.g. ``"ideal"``, ``"adf-1"``).

        Lane order is a construction detail; scripts that poke at a
        specific lane should address it by name, not index.
        """
        for lane in self.lanes:
            if lane.name == name:
                return lane
        raise KeyError(
            f"no lane named {name!r}; have {[lane.name for lane in self.lanes]}"
        )

    # -- per-LU path ---------------------------------------------------------------
    def _filter_and_forward(self, lane: Lane, update: LocationUpdate) -> None:
        policy = lane.policy
        if policy.process(update) is not FilterDecision.TRANSMIT:
            return
        dth = policy.last_dth
        if dth > 0:
            # Direct construction beats dataclasses.replace on the hot
            # path; seq is carried over, matching replace's semantics.
            update = LocationUpdate(
                sender=update.sender,
                timestamp=update.timestamp,
                seq=update.seq,
                node_id=update.node_id,
                position=update.position,
                velocity=update.velocity,
                region_id=update.region_id,
                dth=dth,
            )
        node_id = update.node_id
        timestamp = update.timestamp
        lane.meter.count(
            timestamp, update.region_id, size_bytes=update.size_bytes, node_id=node_id
        )
        # Both brokers store an identical RECEIVED record; build it once.
        record = LocationRecord(
            node_id=node_id,
            time=timestamp,
            position=update.position,
            source=RecordSource.RECEIVED,
        )
        lane.broker_with_le.receive_update(update, record)
        lane.broker_without_le.receive_update(update, record)

    # -- one reporting interval ------------------------------------------------------
    def _step(self) -> None:
        """Advance mobility one interval and push the results through every lane.

        Each node's region is resolved exactly *once* per step (via the
        campus spatial index) and threaded through to measurement — the
        seed code paid a second full region scan per node in
        ``_measure``'s road classification.

        Under churn, every node still advances; an offline node then
        sends no LU, gets no association and gives no truth sample.  A
        node back from an outage is forgotten by each lane's policy just
        before its first LU reaches that lane.
        """
        now = self.sim.now
        dt = self.config.report_interval
        updates: list[LocationUpdate] = []
        positions: list[tuple[float, float]] = []
        on_road: list[bool] = []
        region_at = self.campus.region_at
        road_ids = self._road_region_ids
        take_seq = self._seq.take
        observe = self.associations.observe
        # Read-only view of the serving map: observe() is a no-op when
        # the node's serving region is unchanged (the overwhelmingly common
        # case — handoffs are rare), so only region changes pay the call.
        serving = self.associations.serving_view
        speed_sum = self._speed_sum
        speed_count = self._speed_count
        churn = self._churn
        returned: set[str] = set()
        # Without churn every node is online; with it the loop collects them.
        online: list[MobileNode] = self.nodes if churn is None else []
        if churn is not None:
            churn.begin_step(now)
        for node in self.nodes:
            sample = node.advance(dt)
            node_id = node.node_id
            if churn is not None:
                presence = churn.poll(node_id)
                if presence is Presence.OFFLINE:
                    continue
                if presence is Presence.RETURNED:
                    returned.add(node_id)
                online.append(node)
            velocity = sample.velocity
            # math.hypot == Vec2.norm == MotionSample.speed, sans two hops.
            speed_sum += math.hypot(velocity.x, velocity.y)
            speed_count += 1
            position = sample.position
            region = region_at(position)
            region_id = region.region_id if region else node.home_region
            positions.append((position.x, position.y))
            on_road.append(region_id in road_ids)
            update = LocationUpdate(
                sender=node_id,
                timestamp=now,
                seq=take_seq(),
                node_id=node_id,
                position=position,
                velocity=velocity,
                region_id=region_id,
            )
            if serving.get(node_id) != region_id:
                observe(update)
            updates.append(update)
        self._speed_sum = speed_sum
        self._speed_count = speed_count
        for lane in self.lanes:
            gateways = lane.gateways
            fallback = self._gateway_for
            for update in updates:
                if returned and update.node_id in returned:
                    lane.policy.forget(update.node_id)
                gateway = gateways.get(update.region_id)
                if gateway is None:
                    gateway = fallback(lane, update)
                gateway.receive(update)
            if isinstance(lane.policy, AdaptiveDistanceFilter):
                lane.policy.tick(now)
                lane.cluster_series.append(
                    now,
                    float(lane.policy.cluster_manager.clusterer.cluster_count()),
                )
            lane.broker_with_le.tick(now)
            lane.broker_without_le.tick(now)
        self._measure(now, [node.node_id for node in online], positions, on_road)
        self._score_classifier(online)

    def _gateway_for(self, lane: Lane, update: LocationUpdate) -> WirelessGateway:
        """The gateway serving *update*'s region.

        When the update's region has no gateway (e.g. a node wandered off
        every mapped region), fall back to the gateway of *that node's*
        home region — not an arbitrary node's.  An update from an unknown
        node with an unmapped region falls back to the lexicographically
        first gateway region, so a malformed update lands on a gateway
        chosen by the campus, not by dict insertion history, and stays
        deterministic instead of crashing the run.
        """
        gateway = lane.gateways.get(update.region_id)
        if gateway is None:
            home = self._home_region_by_node.get(update.node_id, "")
            gateway = lane.gateways.get(home)
        if gateway is None:
            gateway = lane.gateways[min(lane.gateways)]
        return gateway

    def _measure(
        self,
        now: float,
        node_ids: list[str],
        positions: list[tuple[float, float]],
        on_road: list[bool],
    ) -> None:
        """Per-lane location error against the *positions* ground truth.

        *node_ids* are the nodes online this step, in node order.  Road
        membership (*on_road*) and the truth positions were resolved
        once in ``_step`` — a property of mobility, not of the lane — and
        are shared by every lane and both brokers.  Per-node distances use
        scalar ``math.hypot`` (bit-identical with the seed's
        ``Vec2.distance_to``); the RMSE reduction over each error vector
        is batched through numpy.
        """
        hypot = math.hypot
        for lane in self.lanes:
            for location_db, series, region_errors in (
                (
                    lane.broker_with_le.location_db,
                    lane.rmse_with_le,
                    lane.region_errors_with_le,
                ),
                (
                    lane.broker_without_le.location_db,
                    lane.rmse_without_le,
                    lane.region_errors_without_le,
                ),
            ):
                latest = location_db.latest_map
                errors: list[float] = []
                append = errors.append
                # Fold the per-kind squared sums locally in the same
                # per-sample order RegionErrors.add would, then write back
                # once — identical floating-point results, no method call
                # per sample.
                road_sq = region_errors.road_sq_sum
                road_n = region_errors.road_count
                bld_sq = region_errors.building_sq_sum
                bld_n = region_errors.building_count
                for (tx, ty), node_id, is_road in zip(positions, node_ids, on_road):
                    record = latest.get(node_id)
                    if record is None:
                        continue
                    believed = record.position
                    err = hypot(tx - believed.x, ty - believed.y)
                    append(err)
                    if is_road:
                        road_sq += err * err
                        road_n += 1
                    else:
                        bld_sq += err * err
                        bld_n += 1
                region_errors.road_sq_sum = road_sq
                region_errors.road_count = road_n
                region_errors.building_sq_sum = bld_sq
                region_errors.building_count = bld_n
                if errors:
                    series.append(now, rmse(np.asarray(errors)))

    def _score_classifier(self, nodes: list[MobileNode]) -> None:
        """Score the ADF classifier's labels of *nodes*, those online this step."""
        adf = next(
            (
                lane.policy
                for lane in self.lanes
                if isinstance(lane.policy, AdaptiveDistanceFilter)
            ),
            None,
        )
        if adf is None:
            return
        labels = adf.classifier.labels_view
        right = 0
        total = 0
        for node in nodes:
            true_state = node.true_state
            if true_state is None:
                continue
            label = labels.get(node.node_id)
            if label is None:
                continue
            total += 1
            if label is true_state:
                right += 1
        self._classified_total += total
        self._classified_right += right

    # -- the run ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Execute the configured duration and collect all measurements."""
        interval = self.config.report_interval
        self.sim.schedule_every(
            interval,
            self._step,
            start=interval,
            end=self.config.duration,
            label="experiment:step",
        )
        self.sim.run_until(self.config.duration)
        # Drain in-flight channel deliveries (non-zero latency puts the
        # final interval's LUs slightly past the nominal end time).  The
        # periodic step schedule is bounded by `end`, so this terminates.
        self.sim.run()
        return self._collect()

    def _collect(self) -> ExperimentResult:
        lanes: dict[str, LaneResult] = {}
        for lane in self.lanes:
            summary: dict[str, float] = {}
            if isinstance(lane.policy, AdaptiveDistanceFilter):
                summary = lane.policy.summary()
            lanes[lane.name] = LaneResult(
                name=lane.name,
                dth_factor=lane.dth_factor,
                meter=lane.meter,
                rmse_with_le=lane.rmse_with_le,
                rmse_without_le=lane.rmse_without_le,
                region_errors_with_le=lane.region_errors_with_le,
                region_errors_without_le=lane.region_errors_without_le,
                filter_summary=summary,
                cluster_series=lane.cluster_series,
                kind=policy_kind(lane.policy),
            )
        accuracy = (
            self._classified_right / self._classified_total
            if self._classified_total
            else 0.0
        )
        mean_speed = self._speed_sum / self._speed_count if self._speed_count else 0.0
        return ExperimentResult(
            duration=self.config.duration,
            report_interval=self.config.report_interval,
            node_count=len(self.nodes),
            lanes=lanes,
            road_region_ids=[r.region_id for r in self.campus.roads()],
            building_region_ids=[r.region_id for r in self.campus.buildings()],
            classification_accuracy=accuracy,
            average_fleet_speed=mean_speed,
            handoffs=self.associations.stats.handoffs,
            disconnections=self._churn.disconnections if self._churn else 0,
            reconnections=self._churn.reconnections if self._churn else 0,
            telemetry=self.telemetry.snapshot(),
        )


def run_experiment(
    config: ExperimentConfig | None = None,
    *,
    campus: Campus | None = None,
    nodes: Sequence[MobileNode] | None = None,
) -> ExperimentResult:
    """Build, run and collect in one call, on the faster engine that fits.

    A config the columnar engine supports (``unsupported_reason`` is
    None) runs there in exact kernel mode, which gives the object
    harness's result bit for bit; any other config runs on
    :class:`MobileGridExperiment`.  *campus* and *nodes* are as in
    :class:`MobileGridExperiment`.
    """
    # The engine imports this package's config and results modules.
    from repro.core.columnar.engine import ColumnarExperiment, unsupported_reason
    from repro.core.columnar.mobility import ObjectMobilitySource

    config = config or ExperimentConfig()
    if unsupported_reason(config) is not None:
        return MobileGridExperiment(config, campus=campus, nodes=nodes).run()
    source = None if nodes is None else ObjectMobilitySource(nodes)
    return ColumnarExperiment(config, campus=campus, source=source).run()
