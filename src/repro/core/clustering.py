"""Sequential clustering of moving MNs (paper §3.2.1).

The ADF uses *sequential clustering* (BSAS — Basic Sequential Algorithmic
Scheme, Theodoridis & Koutroumbas) over each moving MN's velocity/direction:
compute the similarity difference ``d(MN, C)`` to every existing cluster;
if the minimum is below the similarity bound ``alpha`` the MN joins that
cluster (whose representative is updated incrementally), otherwise a new
cluster is born.  SS nodes are excluded — the paper clusters "every MN
except MN in the SS".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.geometry import angle_difference
from repro.util.validation import check_non_negative, check_positive

__all__ = ["MotionFeature", "Cluster", "SequentialClusterer"]


@dataclass(frozen=True, slots=True)
class MotionFeature:
    """The clustering feature of one MN: mean speed and mean heading."""

    speed: float
    direction: float

    def __post_init__(self) -> None:
        # Fast accept for the common case; the chained comparison is False
        # for negatives, NaN and +inf, all of which check_non_negative
        # rejects with the usual message.  Features are constructed per
        # placement and per centroid rebuild, so this runs constantly.
        if not 0.0 <= self.speed < math.inf:
            check_non_negative(self.speed, "speed")

    @classmethod
    def unchecked(cls, speed: float, direction: float) -> "MotionFeature":
        """Build a feature from already-validated values, skipping the check.

        For internal producers whose inputs are provably in range — the
        centroid rebuild (means of validated member speeds) and the
        cluster manager's window-derived features (means of validated
        observations).  User-facing construction stays on ``__init__``.
        """
        feature = object.__new__(cls)
        object.__setattr__(feature, "speed", speed)
        object.__setattr__(feature, "direction", direction)
        return feature

    def distance_to(self, other: "MotionFeature", direction_weight: float) -> float:
        """Similarity difference between two features.

        Dominated by the velocity difference (the paper's alpha is a
        "minimum difference in velocity"); optionally augmented with the
        angular distance scaled by *direction_weight* (m/s per radian).
        """
        d_speed = abs(self.speed - other.speed)
        if direction_weight <= 0.0:
            return d_speed
        d_dir = abs(angle_difference(self.direction, other.direction))
        return d_speed + direction_weight * d_dir


class Cluster:
    """A group of MNs with similar motion; keeps an incremental centroid."""

    def __init__(self, cluster_id: int, first_member: str, feature: MotionFeature):
        self.cluster_id = cluster_id
        self._members: dict[str, MotionFeature] = {first_member: feature}
        cx = math.cos(feature.direction)
        sy = math.sin(feature.direction)
        # Each member's heading trig, computed once at insertion; removal
        # subtracts the exact stored values instead of recomputing them.
        self._trig: dict[str, tuple[float, float]] = {first_member: (cx, sy)}
        self._speed_sum = feature.speed
        self._dir_x_sum = cx
        self._dir_y_sum = sy
        # Centroid cache, invalidated on membership change.  BSAS assignment
        # asks every cluster for its centroid on every placement; without the
        # cache that is an atan2 + MotionFeature construction per cluster per
        # node per step — the clustering hot spot of the whole simulator.
        self._centroid: MotionFeature | None = None

    # -- membership ---------------------------------------------------------
    @property
    def members(self) -> frozenset[str]:
        """Ids of member MNs."""
        return frozenset(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._members

    # -- representative -----------------------------------------------------
    @property
    def centroid(self) -> MotionFeature:
        """Mean speed + circular-mean direction of the members (cached)."""
        centroid = self._centroid
        if centroid is None:
            n = len(self._members)
            if n == 0:
                return MotionFeature(0.0, 0.0)
            centroid = self._centroid = MotionFeature.unchecked(
                max(self._speed_sum / n, 0.0),
                math.atan2(self._dir_y_sum / n, self._dir_x_sum / n),
            )
        return centroid

    @property
    def average_speed(self) -> float:
        """Mean member speed — the quantity that sizes the cluster's DTH."""
        n = len(self._members)
        return max(self._speed_sum / n, 0.0) if n else 0.0

    def __repr__(self) -> str:
        c = self.centroid
        return (
            f"Cluster(id={self.cluster_id}, n={len(self)}, "
            f"v={c.speed:.2f}m/s)"
        )


class SequentialClusterer:
    """BSAS over a stream of (node, feature) assignments.

    ``assign`` is idempotent per node: reassigning moves the node between
    clusters as its motion changes.  Empty clusters are garbage-collected.
    ``max_clusters`` bounds growth (the standard BSAS "q" parameter): when
    the bound is hit, an out-of-range node joins its nearest cluster anyway.
    """

    def __init__(
        self,
        alpha: float,
        *,
        direction_weight: float = 0.0,
        max_clusters: int | None = None,
    ) -> None:
        check_positive(alpha, "alpha")
        check_non_negative(direction_weight, "direction_weight")
        if max_clusters is not None and max_clusters < 1:
            raise ValueError(f"max_clusters must be >= 1, got {max_clusters}")
        self.alpha = alpha
        self.direction_weight = direction_weight
        self.max_clusters = max_clusters
        self._clusters: dict[int, Cluster] = {}
        self._assignment: dict[str, int] = {}
        self._ids = itertools.count(1)

    # -- queries ---------------------------------------------------------------
    @property
    def clusters(self) -> list[Cluster]:
        """Live clusters (insertion order)."""
        return list(self._clusters.values())

    def cluster_count(self) -> int:
        """Number of live clusters."""
        return len(self._clusters)

    def cluster_of(self, node_id: str) -> Cluster | None:
        """The cluster a node currently belongs to, if any."""
        cid = self._assignment.get(node_id)
        return self._clusters.get(cid) if cid is not None else None

    def assigned_nodes(self) -> list[str]:
        """Ids of all currently clustered nodes."""
        return list(self._assignment)

    # -- the BSAS step -----------------------------------------------------------
    def nearest(self, feature: MotionFeature) -> tuple[Cluster | None, float]:
        """The nearest cluster and its distance (``(None, inf)`` when empty)."""
        best: Cluster | None = None
        best_d = math.inf
        weight = self.direction_weight
        f_speed = feature.speed
        f_dir = feature.direction
        # Inlined MotionFeature.distance_to: this loop visits every cluster
        # for every placed node every step, so the per-candidate method and
        # property calls were the clustering bottleneck.  The arithmetic is
        # identical to distance_to.
        if weight <= 0.0:
            for cluster in self._clusters.values():
                c = cluster._centroid
                if c is None:
                    c = cluster.centroid
                d = abs(f_speed - c.speed)
                if d < best_d:
                    best, best_d = cluster, d
        else:
            for cluster in self._clusters.values():
                c = cluster._centroid
                if c is None:
                    c = cluster.centroid
                d = abs(f_speed - c.speed) + weight * abs(
                    angle_difference(f_dir, c.direction)
                )
                if d < best_d:
                    best, best_d = cluster, d
        return best, best_d

    def assign(self, node_id: str, feature: MotionFeature) -> tuple[Cluster, bool]:
        """Place *node_id* per BSAS; returns ``(cluster, moved)``.

        ``moved`` is true when the node was already clustered and landed
        in a *different* cluster — so callers tracking reassignments no
        longer need a ``cluster_of`` pre-lookup before every placement.
        """
        clusters = self._clusters
        cid = self._detach(node_id)
        cluster, distance = self.nearest(feature)
        if cluster is not None and (
            distance < self.alpha
            or (
                self.max_clusters is not None
                and len(clusters) >= self.max_clusters
            )
        ):
            # The node was just detached, so it is never a member here.
            cluster._members[node_id] = feature
            cx = math.cos(feature.direction)
            sy = math.sin(feature.direction)
            cluster._trig[node_id] = (cx, sy)
            cluster._speed_sum += feature.speed
            cluster._dir_x_sum += cx
            cluster._dir_y_sum += sy
            cluster._centroid = None
        else:
            cluster = Cluster(next(self._ids), node_id, feature)
            clusters[cluster.cluster_id] = cluster
        self._assignment[node_id] = cluster.cluster_id
        return cluster, cid is not None and cid != cluster.cluster_id

    def unassign(self, node_id: str) -> None:
        """Remove a node from its cluster (no-op when unassigned)."""
        self._detach(node_id)

    def _detach(self, node_id: str) -> int | None:
        """Take *node_id* out of its cluster; returns that cluster's id.

        Subtracts the member's stored speed and heading trig from the
        cluster's sums and drops the cluster once empty.  ``None`` when
        the node was not clustered.
        """
        cid = self._assignment.pop(node_id, None)
        if cid is not None:
            cluster = self._clusters[cid]
            feature = cluster._members.pop(node_id)
            cx, sy = cluster._trig.pop(node_id)
            cluster._speed_sum -= feature.speed
            cluster._dir_x_sum -= cx
            cluster._dir_y_sum -= sy
            cluster._centroid = None
            if not cluster._members:
                del self._clusters[cid]
        return cid

    def clear(self) -> None:
        """Drop every cluster and assignment (used on reconstruction)."""
        self._clusters.clear()
        self._assignment.clear()
