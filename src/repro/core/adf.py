"""The Adaptive Distance Filter pipeline (paper §3.2 and §3.4).

Per incoming LU the ADF executes the six-step process of §3.4:

1. recognise the MN's mobility pattern and velocity (classifier);
2. construct MN clusters (cluster manager, initial placement);
3. acquire the MN's location (the LU itself);
4. filter by the DF using the cluster-derived DTH;
5. transmit surviving LUs to the grid broker;
6. periodically reconstruct the clusters (mobility patterns drift).

Steps 1-2 run once per node at first contact; 3-5 run on every LU; 6 runs
on a configurable period driven by :meth:`AdaptiveDistanceFilter.tick`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.core.baselines import FilterPolicy
from repro.core.classifier import ClassifierConfig, MobilityClassifier
from repro.core.cluster_manager import ClusterManager
from repro.core.clustering import SequentialClusterer
from repro.core.distance_filter import DistanceFilter, FilterDecision
from repro.core.dth import ClusterAverageDth
from repro.mobility.states import MobilityState
from repro.network.messages import LocationUpdate
from repro.telemetry import NULL_TELEMETRY
from repro.util.validation import check_positive

__all__ = ["AdfConfig", "AdfStats", "AdaptiveDistanceFilter"]

#: Bucket bounds of ``adf.suppressed_cluster_size`` (cluster member counts).
_CLUSTER_SIZE_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass(frozen=True)
class AdfConfig:
    """Tunables of the ADF.

    ``dth_factor`` is the paper's DTH multiplier (0.75 / 1.0 / 1.25 "av");
    ``alpha`` the sequential-clustering similarity bound in m/s;
    ``recluster_interval`` how often (seconds) clusters are reconstructed;
    ``report_interval`` the LU reporting period that converts a velocity
    into a distance threshold.
    """

    dth_factor: float = 1.0
    alpha: float = 0.75
    direction_weight: float = 0.0
    recluster_interval: float = 30.0
    report_interval: float = 1.0
    max_clusters: int | None = 64
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self) -> None:
        check_positive(self.dth_factor, "dth_factor")
        check_positive(self.alpha, "alpha")
        check_positive(self.recluster_interval, "recluster_interval")
        check_positive(self.report_interval, "report_interval")


@dataclass
class AdfStats:
    """Counters exposed by the ADF."""

    received: int = 0
    transmitted: int = 0
    suppressed: int = 0

    @property
    def suppression_rate(self) -> float:
        """Fraction of received LUs that were filtered out."""
        return self.suppressed / self.received if self.received else 0.0

    @property
    def transmission_rate(self) -> float:
        """Fraction of received LUs forwarded to the broker."""
        return self.transmitted / self.received if self.received else 0.0


class AdaptiveDistanceFilter(FilterPolicy):
    """The complete ADF: classify -> cluster -> threshold -> filter."""

    def __init__(
        self,
        config: AdfConfig | None = None,
        *,
        forward: Callable[[LocationUpdate], None] | None = None,
        telemetry: Any = None,
    ) -> None:
        self.config = config or AdfConfig()
        self.classifier = MobilityClassifier(self.config.classifier)
        clusterer = SequentialClusterer(
            self.config.alpha,
            direction_weight=self.config.direction_weight,
            max_clusters=self.config.max_clusters,
        )
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._telemetry = tm
        self._instrumented = tm.enabled
        name = f"adf({self.config.dth_factor:g}av)"
        self._t_received = tm.counter("adf.lu_received", filter=name)
        self._t_transmitted = tm.counter("adf.lu_transmitted", filter=name)
        self._t_suppressed = tm.counter("adf.lu_suppressed", filter=name)
        self._t_reclusters = tm.counter("adf.reclusters", filter=name)
        self._t_suppressed_cluster_size = tm.histogram(
            "adf.suppressed_cluster_size",
            buckets=_CLUSTER_SIZE_BUCKETS,
            filter=name,
        )
        self.cluster_manager = ClusterManager(
            self.classifier, clusterer, telemetry=telemetry, name=name
        )
        self.dth_policy = ClusterAverageDth(
            self.config.dth_factor,
            self.cluster_manager,
            report_interval=self.config.report_interval,
        )
        self.distance_filter = DistanceFilter()
        self._forward = forward
        self.stats = AdfStats()
        self._last_recluster = 0.0

    @property
    def name(self) -> str:
        return f"adf({self.config.dth_factor:g}av)"

    # -- the per-LU pipeline ------------------------------------------------
    def process(self, update: LocationUpdate) -> FilterDecision:
        """Run one LU through the full ADF pipeline."""
        instrumented = self._instrumented
        node_id = update.node_id
        before = self.classifier.label(node_id) if instrumented else None
        # (1) classify from the update's velocity observation.  Speed and
        # heading are inlined from the LocationUpdate.speed / .direction
        # properties (math.hypot == Vec2.norm, atan2 + zero-vector
        # convention == Vec2.angle).
        velocity = update.velocity
        vx, vy = velocity.x, velocity.y
        speed = math.hypot(vx, vy)
        direction = 0.0 if vx == 0.0 and vy == 0.0 else math.atan2(vy, vx)
        # observe() rejects a non-finite velocity before any state
        # changes, so a rejected LU is not counted as received either.
        label = self.classifier.observe(node_id, speed, direction)
        self.stats.received += 1
        if instrumented:
            self._t_received.inc()
            after = self.classifier.label(node_id)
            if after is not before:
                self._telemetry.counter(
                    "adf.state_transitions",
                    filter=self.name,
                    from_state=before.name if before else "none",
                    to_state=after.name if after else "none",
                ).inc()
        # (2) place into a cluster (SS nodes are kept out).
        cluster = self.cluster_manager.place(node_id, label)
        # (4) distance filter with the cluster-derived DTH.
        dth = self.last_dth = self.dth_policy.dth_for(node_id)
        decision = self.distance_filter.decide(
            node_id, update.position, update.timestamp, dth
        )
        if decision is FilterDecision.TRANSMIT:
            self.stats.transmitted += 1
            if instrumented:
                self._t_transmitted.inc()
            # (5) forward to the grid broker.
            if self._forward is not None:
                self._forward(update)
        else:
            self.stats.suppressed += 1
            if instrumented:
                self._t_suppressed.inc()
                self._t_suppressed_cluster_size.observe(
                    len(cluster) if cluster is not None else 0
                )
        return decision

    # -- periodic maintenance ---------------------------------------------------
    def tick(self, now: float) -> bool:
        """Reconstruct clusters when the recluster interval has elapsed.

        Returns ``True`` when a reconstruction happened.  Call this
        periodically (the experiment harness wires it to the simulator).
        """
        if now - self._last_recluster < self.config.recluster_interval:
            return False
        self.cluster_manager.reconstruct()
        if self._instrumented:
            self._t_reclusters.inc()
        self._last_recluster = now
        return True

    def forget(self, node_id: str) -> None:
        """Drop all per-node state (churn: the MN left the grid).

        The paper's mobile grid lives with "frequent disconnectivity"; a
        departed node's observation window, cluster membership and filter
        reference must not leak.  When the node returns, it is treated as
        brand new — its first LU transmits unconditionally.
        """
        self.classifier.forget(node_id)
        self.cluster_manager.clusterer.unassign(node_id)
        self.distance_filter.forget(node_id)

    # -- introspection ---------------------------------------------------------
    def label_of(self, node_id: str) -> MobilityState | None:
        """The classifier's current label for a node."""
        return self.classifier.label(node_id)

    def dth_of(self, node_id: str) -> float:
        """The node's current distance threshold in metres."""
        return self.dth_policy.dth_for(node_id)

    def summary(self) -> dict[str, float]:
        """Filter + cluster statistics for reports."""
        out = {
            "received": float(self.stats.received),
            "transmitted": float(self.stats.transmitted),
            "suppressed": float(self.stats.suppressed),
            "suppression_rate": self.stats.suppression_rate,
        }
        out.update(self.cluster_manager.summary())
        return out
