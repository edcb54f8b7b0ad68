"""Tests for sequential (BSAS) clustering."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core import MotionFeature, SequentialClusterer
from repro.geometry.vec import angle_difference

speeds = st.floats(min_value=0.0, max_value=12.0)
angles = st.floats(min_value=-math.pi, max_value=math.pi)


class TestMotionFeature:
    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            MotionFeature(-1.0, 0.0)

    def test_speed_distance(self):
        a, b = MotionFeature(2.0, 0.0), MotionFeature(5.0, 1.0)
        assert a.distance_to(b, direction_weight=0.0) == 3.0

    def test_direction_weight(self):
        a, b = MotionFeature(2.0, 0.0), MotionFeature(2.0, 1.0)
        assert a.distance_to(b, direction_weight=2.0) == pytest.approx(2.0)

    def test_direction_distance_wraps(self):
        a = MotionFeature(1.0, math.pi - 0.05)
        b = MotionFeature(1.0, -math.pi + 0.05)
        assert a.distance_to(b, direction_weight=1.0) == pytest.approx(0.1, abs=1e-6)


class TestBsasBasics:
    def test_first_node_creates_cluster(self):
        c = SequentialClusterer(alpha=0.5)
        cluster, moved = c.assign("a", MotionFeature(2.0, 0.0))
        assert c.cluster_count() == 1
        assert "a" in cluster
        assert not moved

    def test_similar_nodes_share_cluster(self):
        c = SequentialClusterer(alpha=0.5)
        c.assign("a", MotionFeature(2.0, 0.0))
        cluster, _ = c.assign("b", MotionFeature(2.2, 0.0))
        assert c.cluster_count() == 1
        assert len(cluster) == 2

    def test_distant_nodes_split(self):
        c = SequentialClusterer(alpha=0.5)
        c.assign("walker", MotionFeature(1.5, 0.0))
        c.assign("vehicle", MotionFeature(8.0, 0.0))
        assert c.cluster_count() == 2

    def test_centroid_updates_with_members(self):
        c = SequentialClusterer(alpha=1.0)
        c.assign("a", MotionFeature(2.0, 0.0))
        c.assign("b", MotionFeature(2.8, 0.0))
        cluster = c.cluster_of("a")
        assert cluster.average_speed == pytest.approx(2.4)

    def test_reassign_moves_node(self):
        c = SequentialClusterer(alpha=0.5)
        c.assign("a", MotionFeature(2.0, 0.0))
        c.assign("b", MotionFeature(2.0, 0.0))
        c.assign("a", MotionFeature(9.0, 0.0))
        assert c.cluster_of("a") is not c.cluster_of("b")
        assert len(c.cluster_of("b")) == 1

    def test_empty_clusters_garbage_collected(self):
        c = SequentialClusterer(alpha=0.5)
        c.assign("a", MotionFeature(2.0, 0.0))
        c.assign("a", MotionFeature(9.0, 0.0))
        assert c.cluster_count() == 1

    def test_unassign(self):
        c = SequentialClusterer(alpha=0.5)
        c.assign("a", MotionFeature(2.0, 0.0))
        c.unassign("a")
        assert c.cluster_of("a") is None
        assert c.cluster_count() == 0

    def test_unassign_unknown_is_noop(self):
        SequentialClusterer(alpha=0.5).unassign("ghost")

    def test_clear(self):
        c = SequentialClusterer(alpha=0.5)
        c.assign("a", MotionFeature(2.0, 0.0))
        c.clear()
        assert c.cluster_count() == 0
        assert c.assigned_nodes() == []


class TestMaxClusters:
    def test_cap_respected(self):
        c = SequentialClusterer(alpha=0.1, max_clusters=2)
        for i, speed in enumerate((1.0, 5.0, 9.0, 13.0)):
            c.assign(f"n{i}", MotionFeature(speed, 0.0))
        assert c.cluster_count() == 2

    def test_overflow_joins_nearest(self):
        c = SequentialClusterer(alpha=0.1, max_clusters=2)
        c.assign("slow", MotionFeature(1.0, 0.0))
        c.assign("fast", MotionFeature(9.0, 0.0))
        c.assign("medium-fast", MotionFeature(8.0, 0.0))
        assert c.cluster_of("medium-fast") is c.cluster_of("fast")

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            SequentialClusterer(alpha=0.5, max_clusters=0)


class TestValidation:
    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            SequentialClusterer(alpha=0.0)

    def test_direction_weight_non_negative(self):
        with pytest.raises(ValueError):
            SequentialClusterer(alpha=0.5, direction_weight=-1.0)


class TestInvariants:
    @given(
        st.lists(st.tuples(speeds, angles), min_size=1, max_size=40),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_insertion_within_alpha_of_centroid(self, samples, alpha):
        """BSAS invariant: at insertion, a joined node was within alpha of
        the cluster it joined (or it founded a new one)."""
        c = SequentialClusterer(alpha=alpha)
        for i, (speed, theta) in enumerate(samples):
            feature = MotionFeature(speed, theta)
            before = {cl.cluster_id: cl.centroid for cl in c.clusters}
            cluster, _ = c.assign(f"n{i}", feature)
            if cluster.cluster_id in before and len(cluster) > 1:
                d = feature.distance_to(before[cluster.cluster_id], 0.0)
                assert d < alpha

    @given(st.lists(st.tuples(speeds, angles), min_size=1, max_size=40))
    def test_every_node_in_exactly_one_cluster(self, samples):
        c = SequentialClusterer(alpha=1.0)
        for i, (speed, theta) in enumerate(samples):
            c.assign(f"n{i % 7}", MotionFeature(speed, theta))
        memberships = [m for cl in c.clusters for m in cl.members]
        assert sorted(memberships) == sorted(set(memberships))
        assert set(memberships) == set(c.assigned_nodes())

    @given(
        st.lists(st.tuples(speeds, angles), min_size=1, max_size=40),
        st.floats(min_value=0.2, max_value=3.0),
    )
    def test_cluster_count_bounded_by_speed_range(self, samples, alpha):
        """Clusters partition speed space into intervals no finer than
        roughly alpha, so their count is bounded."""
        c = SequentialClusterer(alpha=alpha)
        for i, (speed, theta) in enumerate(samples):
            c.assign(f"n{i}", MotionFeature(speed, theta))
        speed_span = 12.0
        assert c.cluster_count() <= speed_span / alpha + 2

    @given(st.lists(st.tuples(speeds, angles), min_size=2, max_size=30))
    def test_average_speed_non_negative(self, samples):
        c = SequentialClusterer(alpha=0.7)
        for i, (speed, theta) in enumerate(samples):
            c.assign(f"n{i}", MotionFeature(speed, theta))
        for cluster in c.clusters:
            assert cluster.average_speed >= 0.0


class TestCentroidCache:
    """The cached centroid must always equal a fresh recomputation."""

    def _fresh_centroid(self, cluster):
        n = len(cluster)
        speed = sum(f.speed for f in cluster._members.values()) / n
        x = sum(math.cos(f.direction) for f in cluster._members.values()) / n
        y = sum(math.sin(f.direction) for f in cluster._members.values()) / n
        return max(speed, 0.0), math.atan2(y, x)

    def test_cache_hit_returns_same_object(self):
        c = SequentialClusterer(alpha=1.0)
        cluster, _ = c.assign("a", MotionFeature(1.0, 0.1))
        first = cluster.centroid
        assert cluster.centroid is first

    def test_add_invalidates(self):
        c = SequentialClusterer(alpha=1.0)
        cluster, _ = c.assign("a", MotionFeature(1.0, 0.1))
        before = cluster.centroid
        joined, _ = c.assign("b", MotionFeature(1.5, 0.3))
        assert joined is cluster
        after = cluster.centroid
        assert after is not before
        speed, direction = self._fresh_centroid(cluster)
        assert after.speed == speed
        assert after.direction == direction

    def test_remove_invalidates(self):
        c = SequentialClusterer(alpha=1.0)
        cluster, _ = c.assign("a", MotionFeature(1.0, 0.1))
        c.assign("b", MotionFeature(1.5, 0.3))
        cluster.centroid  # prime the cache
        c.unassign("b")
        speed, direction = self._fresh_centroid(cluster)
        assert cluster.centroid.speed == speed
        assert cluster.centroid.direction == direction
        nearest, distance = c.nearest(MotionFeature(1.0, 0.1))
        assert nearest is cluster and distance == 0.0

    def test_assign_reassignment_invalidates_both_clusters(self):
        c = SequentialClusterer(alpha=0.5)
        first, _ = c.assign("a", MotionFeature(1.0, 0.0))
        c.assign("b", MotionFeature(1.1, 0.0))
        first.centroid  # prime
        second, moved = c.assign("b", MotionFeature(5.0, 0.0))  # moves far away
        assert second is not first
        assert moved
        assert first.centroid.speed == 1.0

    @given(st.lists(st.tuples(speeds, angles), min_size=1, max_size=40))
    def test_cached_centroid_matches_recomputation(self, samples):
        c = SequentialClusterer(alpha=0.8)
        for i, (speed, theta) in enumerate(samples):
            c.assign(f"n{i % 5}", MotionFeature(speed, theta))
        for cluster in c.clusters:
            centroid = cluster.centroid
            speed, direction = self._fresh_centroid(cluster)
            assert centroid.speed == pytest.approx(speed, abs=1e-12)
            # atan2 of a near-cancelled mean heading vector is ill-conditioned:
            # the cluster's incremental sums accumulate in add/remove order while
            # _fresh_centroid sums in dict order, and float addition is not
            # associative.  Only compare directions when the resultant is large
            # enough that both summation orders agree to ~1e-12 in angle.
            n = len(cluster)
            rx = sum(math.cos(f.direction) for f in cluster._members.values()) / n
            ry = sum(math.sin(f.direction) for f in cluster._members.values()) / n
            if math.hypot(rx, ry) > 1e-9:
                delta = angle_difference(centroid.direction, direction)
                assert delta == pytest.approx(0.0, abs=1e-9)
