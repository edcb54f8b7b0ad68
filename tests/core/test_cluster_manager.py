"""Tests for cluster lifecycle management."""

import pytest

from repro.core import ClassifierConfig, MobilityClassifier, SequentialClusterer
from repro.core.cluster_manager import ClusterManager


@pytest.fixture
def setup():
    classifier = MobilityClassifier(ClassifierConfig(min_observations=1))
    manager = ClusterManager(classifier, SequentialClusterer(alpha=1.0))
    return manager, classifier


def teach(classifier, node, speed, direction=0.0, n=5):
    for _ in range(n):
        classifier.observe(node, speed, direction)


class TestPlacement:
    def test_unobserved_node_not_placed(self, setup):
        manager, _ = setup
        assert manager.place("ghost") is None

    def test_moving_node_placed(self, setup):
        manager, classifier = setup
        teach(classifier, "n", 3.0)
        cluster = manager.place("n")
        assert cluster is not None and "n" in cluster

    def test_stopped_node_excluded(self, setup):
        """The paper clusters every MN *except* those in SS."""
        manager, classifier = setup
        teach(classifier, "sitter", 0.0)
        assert manager.place("sitter") is None
        assert manager.clusterer.cluster_count() == 0

    def test_node_that_stops_is_evicted(self, setup):
        manager, classifier = setup
        teach(classifier, "n", 3.0)
        manager.place("n")
        teach(classifier, "n", 0.0, n=10)
        assert manager.place("n") is None
        assert manager.cluster_of("n") is None

    def test_reassignment_counted(self, setup):
        manager, classifier = setup
        teach(classifier, "anchor-slow", 2.0)
        manager.place("anchor-slow")
        teach(classifier, "anchor-fast", 8.0)
        manager.place("anchor-fast")
        teach(classifier, "n", 2.0)
        manager.place("n")
        teach(classifier, "n", 8.0, n=15)
        manager.place("n")
        assert manager.reassignments == 1

    def test_feature_of(self, setup):
        """A placed node's cluster is built from the classifier's feature."""
        manager, classifier = setup
        teach(classifier, "n", 3.0, direction=0.5)
        feature = classifier.feature("n")
        assert feature.speed == pytest.approx(3.0)
        assert feature.direction == pytest.approx(0.5)
        centroid = manager.place("n").centroid
        assert (centroid.speed, centroid.direction) == (
            feature.speed,
            feature.direction,
        )


class TestReconstruction:
    def test_reconstruct_rebuilds(self, setup):
        manager, classifier = setup
        for node, speed in (("a", 2.0), ("b", 2.1), ("c", 8.0)):
            teach(classifier, node, speed)
            manager.place(node)
        count = manager.reconstruct()
        assert count == 2
        assert manager.reconstructions == 1

    def test_reconstruct_drops_stopped_nodes(self, setup):
        manager, classifier = setup
        teach(classifier, "n", 3.0)
        manager.place("n")
        teach(classifier, "n", 0.0, n=10)
        manager.reconstruct()
        assert manager.cluster_of("n") is None

    def test_summary(self, setup):
        manager, classifier = setup
        teach(classifier, "a", 2.0)
        manager.place("a")
        summary = manager.summary()
        assert summary["clusters"] == 1.0
        assert summary["clustered_nodes"] == 1.0
        assert summary["mean_size"] == 1.0
