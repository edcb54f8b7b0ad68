"""Cluster lifecycle management (paper §3.4, ADF steps (2) and (6)).

The ADF "constructs, manages, and adjusts the MN clusters": nodes drift
between patterns, so clusters must be reconstructed periodically.  The
manager feeds the :class:`SequentialClusterer` the classifier's window
features and tracks reconstruction statistics.
"""

from __future__ import annotations

from typing import Any

from repro.core.classifier import MobilityClassifier
from repro.core.clustering import Cluster, SequentialClusterer
from repro.mobility.states import MobilityState
from repro.telemetry import NULL_TELEMETRY

__all__ = ["ClusterManager"]


class ClusterManager:
    """Keeps the cluster structure in sync with observed mobility."""

    def __init__(
        self,
        classifier: MobilityClassifier,
        clusterer: SequentialClusterer,
        *,
        telemetry: Any = None,
        name: str = "adf",
    ) -> None:
        self._classifier = classifier
        self._clusterer = clusterer
        self.reconstructions = 0
        self.reassignments = 0
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._instrumented = tm.enabled
        self._t_reconstructions = tm.counter(
            "adf.cluster_reconstructions", filter=name
        )
        self._t_reassignments = tm.counter("adf.cluster_reassignments", filter=name)
        self._t_live = tm.gauge("adf.clusters_live", filter=name)

    @property
    def clusterer(self) -> SequentialClusterer:
        """The underlying sequential clusterer."""
        return self._clusterer

    def place(
        self, node_id: str, label: MobilityState | None = None
    ) -> Cluster | None:
        """(Re)place one node according to its current label and feature.

        SS nodes are kept out of clusters (the paper clusters every MN
        *except* those in SS); they are unassigned if previously clustered.
        Returns the node's cluster, or ``None`` for SS/unknown nodes.
        *label*, when given, is the node's already-known classification
        (the ADF just classified it); otherwise it is looked up.
        """
        if label is None:
            label = self._classifier.label(node_id)
        if label is None or label is MobilityState.STOP:
            self._clusterer.unassign(node_id)
            return None
        feature = self._classifier.feature(node_id)
        if feature is None:
            return None
        cluster, moved = self._clusterer.assign(node_id, feature)
        if moved:
            self.reassignments += 1
            if self._instrumented:
                self._t_reassignments.inc()
        return cluster

    def reconstruct(self) -> int:
        """Tear down and rebuild all clusters from current features.

        This is the ADF's step (6).  Returns the number of clusters after
        reconstruction.
        """
        node_ids = self._classifier.node_ids()
        self._clusterer.clear()
        for node_id in node_ids:
            self.place(node_id)
        self.reconstructions += 1
        if self._instrumented:
            self._t_reconstructions.inc()
            self._t_live.set(self._clusterer.cluster_count())
        return self._clusterer.cluster_count()

    def cluster_of(self, node_id: str) -> Cluster | None:
        """The node's current cluster, if any."""
        return self._clusterer.cluster_of(node_id)

    def summary(self) -> dict[str, float]:
        """Cluster-structure statistics (for reports and tests)."""
        clusters = self._clusterer.clusters
        sizes = [len(c) for c in clusters]
        return {
            "clusters": float(len(clusters)),
            "clustered_nodes": float(sum(sizes)),
            "mean_size": float(sum(sizes) / len(sizes)) if sizes else 0.0,
            "reconstructions": float(self.reconstructions),
            "reassignments": float(self.reassignments),
        }
