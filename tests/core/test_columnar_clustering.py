"""Parity and quality tests for the struct-of-arrays BSAS clusterer.

The :class:`ColumnarClusterer` in *exact* mode must be bit-identical to
:class:`SequentialClusterer` — same cluster ids, same creation order,
same membership and bit-equal centroids — on any op stream.  The
hypothesis suites here drive both side by side through random assign /
unassign / clear cycles, with and without direction weighting, with many
slots and through ``max_clusters`` saturation, and compare the full
observable state after every operation.

*Batched* mode is not bit-identical by design; its quality gate bounds
the LU-reduction and RMSE drift against exact mode at 10k nodes by the
declared tolerances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MotionFeature, SequentialClusterer
from repro.core.columnar.clustering import (
    BATCHED_REDUCTION_TOLERANCE,
    BATCHED_RMSE_TOLERANCE,
    ColumnarClusterer,
)

speeds = st.floats(min_value=0.0, max_value=12.0)
angles = st.floats(min_value=-math.pi, max_value=math.pi)

#: Clusterer configs: the speed-only distance, saturation, the
#: direction-weighted distance, a tight alpha that makes dozens of
#: slots, and a tight alpha that saturates at 6 clusters, so creations
#: and forced joins mix.
CONFIGS = [
    pytest.param({"alpha": 0.75}, id="scan"),
    pytest.param({"alpha": 0.3, "max_clusters": 3}, id="saturated"),
    pytest.param({"alpha": 0.75, "direction_weight": 0.5}, id="weighted-scan"),
    pytest.param({"alpha": 0.05}, id="many-slots"),
    pytest.param({"alpha": 0.05, "max_clusters": 6}, id="mixed-regime"),
]


def make_pair(config, capacity=32):
    """A (scalar, columnar) clusterer pair from one config dict."""
    scalar_kwargs = {
        k: v
        for k, v in config.items()
        if k in ("direction_weight", "max_clusters")
    }
    seq = SequentialClusterer(config["alpha"], **scalar_kwargs)
    col = ColumnarClusterer(config["alpha"], capacity=capacity, **config_extras(config))
    return seq, col


def config_extras(config):
    return {k: v for k, v in config.items() if k != "alpha"}


def assert_parity(seq, col, capacity):
    """Full observable-state equality, centroids compared bit-for-bit."""
    clusters = seq.clusters
    assert col.cluster_count() == len(clusters)
    assert col.cluster_ids() == [c.cluster_id for c in clusters]
    assert col.cluster_sizes() == [len(c) for c in clusters]
    assert col.assigned_count() == len(seq.assigned_nodes())
    for cluster in clusters:
        # Bit-equality, not approx: the whole point of exact mode.
        assert col.centroid_speed(cluster.cluster_id) == cluster.average_speed
        if col.track_directions:
            assert (
                col.centroid_direction(cluster.cluster_id)
                == cluster.centroid.direction
            )
    for node in range(capacity):
        expected = seq.cluster_of(f"n{node}")
        if expected is None:
            assert col.cluster_of(node) is None
        else:
            assert col.cluster_of(node) == expected.cluster_id


class TestConstruction:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            ColumnarClusterer(0.0, capacity=4)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ColumnarClusterer(0.5, capacity=0)

    def test_bad_max_clusters(self):
        with pytest.raises(ValueError):
            ColumnarClusterer(0.5, capacity=4, max_clusters=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ColumnarClusterer(0.5, capacity=4, mode="bulk")

    def test_directions_tracked_iff_weighted_by_default(self):
        assert not ColumnarClusterer(0.5, capacity=4).track_directions
        assert ColumnarClusterer(
            0.5, capacity=4, direction_weight=0.1
        ).track_directions

    def test_place_all_requires_directions_when_tracked(self):
        col = ColumnarClusterer(0.5, capacity=4, direction_weight=0.1)
        with pytest.raises(ValueError):
            col.place_all(np.zeros(4, bool), np.ones(4), None)


class TestMovedFlag:
    def test_first_assignment_is_not_a_move(self):
        col = ColumnarClusterer(0.5, capacity=4)
        cid, moved = col.assign(0, 2.0, 0.0)
        assert cid == 1
        assert not moved

    def test_reassign_to_same_cluster_is_not_a_move(self):
        col = ColumnarClusterer(0.5, capacity=4)
        col.assign(0, 2.0, 0.0)
        col.assign(1, 2.1, 0.0)
        cid, moved = col.assign(0, 2.2, 0.0)
        assert cid == 1
        assert not moved

    def test_landing_in_a_different_cluster_is_a_move(self):
        col = ColumnarClusterer(0.5, capacity=4)
        col.assign(0, 2.0, 0.0)
        col.assign(1, 8.0, 0.0)
        cid, moved = col.assign(0, 8.1, 0.0)
        assert cid == 2
        assert moved

    def test_unassigned_node_never_moves(self):
        col = ColumnarClusterer(0.5, capacity=4)
        col.assign(0, 2.0, 0.0)
        col.unassign(0)
        _, moved = col.assign(0, 8.0, 0.0)
        assert not moved

    def test_matches_scalar_moved_semantics(self):
        seq = SequentialClusterer(0.5)
        col = ColumnarClusterer(0.5, capacity=4)
        stream = [(0, 2.0), (1, 8.0), (0, 8.1), (0, 2.0), (1, 8.2)]
        for node, speed in stream:
            cluster, seq_moved = seq.assign(f"n{node}", MotionFeature(speed, 0.0))
            cid, col_moved = col.assign(node, speed, 0.0)
            assert cid == cluster.cluster_id
            assert col_moved == seq_moved


class TestAssignParity:
    @pytest.mark.parametrize("config", CONFIGS)
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(min_value=0, max_value=15), speeds, angles),
            max_size=60,
        )
    )
    def test_random_streams(self, config, ops):
        seq, col = make_pair(config, capacity=16)
        for node, speed, angle in ops:
            cluster, seq_moved = seq.assign(
                f"n{node}", MotionFeature(speed, angle)
            )
            cid, col_moved = col.assign(node, speed, angle)
            assert cid == cluster.cluster_id
            assert col_moved == seq_moved
        assert_parity(seq, col, 16)

    @pytest.mark.parametrize("config", CONFIGS)
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["assign", "unassign", "clear"]),
                st.integers(min_value=0, max_value=11),
                speeds,
                angles,
            ),
            max_size=80,
        )
    )
    def test_unassign_clear_recluster_cycles(self, config, ops):
        seq, col = make_pair(config, capacity=12)
        for op, node, speed, angle in ops:
            if op == "assign":
                cluster, _ = seq.assign(f"n{node}", MotionFeature(speed, angle))
                cid, _ = col.assign(node, speed, angle)
                assert cid == cluster.cluster_id
            elif op == "unassign":
                seq.unassign(f"n{node}")
                col.unassign(node)
            else:
                seq.clear()
                col.clear()
            assert_parity(seq, col, 12)

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
            ),
            max_size=60,
        )
    )
    def test_tie_heavy_duplicate_speeds(self, ops):
        """Equal distances must break to the earliest-created cluster."""
        seq = SequentialClusterer(0.5)
        col = ColumnarClusterer(0.5, capacity=16)
        for node, speed in ops:
            cluster, _ = seq.assign(f"n{node}", MotionFeature(speed, 0.0))
            cid, _ = col.assign(node, speed, 0.0)
            assert cid == cluster.cluster_id
        assert_parity(seq, col, 16)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rounds=st.integers(min_value=1, max_value=6),
    )
    def test_max_clusters_saturation_forces_joins(self, seed, rounds):
        """At the cap, out-of-range nodes join their nearest cluster."""
        rng = np.random.default_rng(seed)
        seq = SequentialClusterer(0.2, max_clusters=4)
        col = ColumnarClusterer(0.2, capacity=24, max_clusters=4)
        for _ in range(rounds):
            for node in range(24):
                speed = float(rng.uniform(0.0, 12.0))
                cluster, _ = seq.assign(f"n{node}", MotionFeature(speed, 0.0))
                cid, _ = col.assign(node, speed, 0.0)
                assert cid == cluster.cluster_id
            assert col.cluster_count() <= 4
            assert_parity(seq, col, 24)


class TestCompaction:
    @pytest.mark.parametrize("weight", [0.0, 0.5])
    def test_tombstone_churn_compacts_and_preserves_parity(self, weight):
        """Kill clusters until compaction fires; parity must survive it,
        heading columns included when they are tracked."""
        seq = SequentialClusterer(0.1, direction_weight=weight)
        col = ColumnarClusterer(0.1, capacity=8, direction_weight=weight)
        # Each round parks every node in its own far-apart cluster, then
        # moves them all, tombstoning the previous generation of slots.
        for generation in range(40):
            base = 20.0 * generation
            for node in range(8):
                speed = base + 2.0 * node
                angle = math.remainder(0.7 * node + 0.3 * generation, 2 * math.pi)
                cluster, _ = seq.assign(f"n{node}", MotionFeature(speed, angle))
                cid, _ = col.assign(node, speed, angle)
                assert cid == cluster.cluster_id
            assert_parity(seq, col, 8)
        # Far fewer slots than the ~320 clusters ever created.
        assert len(col._count) < 60

    @pytest.mark.parametrize("weight", [0.0, 0.5])
    def test_compaction_inside_an_exact_sweep(self, weight):
        """A fleet of singleton clusters that stops en masse tombstones
        far more than _COMPACT_SLACK slots inside one place_all, so
        compaction runs while the sweep holds the per-node slot column as
        a list; the rows swept after it must still leave the right
        clusters."""
        n = 200
        seq = SequentialClusterer(0.1, direction_weight=weight)
        col = ColumnarClusterer(0.1, capacity=n, direction_weight=weight)
        speed = 0.5 * np.arange(n)
        direction = np.linspace(-3.0, 3.0, n)

        def sweep(stop):
            for i in range(n):
                if stop[i]:
                    seq.unassign(f"n{i}")
                else:
                    feature = MotionFeature(float(speed[i]), float(direction[i]))
                    seq.assign(f"n{i}", feature)
            directions = direction if col.track_directions else None
            col.place_all(stop, speed, directions)

        sweep(np.zeros(n, bool))
        assert col.cluster_count() == n
        # Four nodes in five stop; the fifth leaves its singleton and
        # founds a new one, so every row tombstones a slot.
        sweep(np.arange(n) % 5 != 0)
        assert col.cluster_count() == n // 5
        assert len(col._count) < n
        assert_parity(seq, col, n)


class TestPlaceAllParity:
    @pytest.mark.parametrize("config", CONFIGS)
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        steps=st.integers(min_value=1, max_value=8),
    )
    def test_bulk_sweep_matches_scalar_loop(self, config, seed, steps):
        """place_all == the object engine's per-node loop, bit-for-bit."""
        n = 40
        rng = np.random.default_rng(seed)
        seq, col = make_pair(config, capacity=n)
        for step in range(steps):
            stop = rng.random(n) < 0.25
            speed = rng.uniform(0.0, 12.0, n)
            direction = rng.uniform(-math.pi, math.pi, n)
            avg = np.zeros(n)
            want_avg = np.zeros(n)
            want_moves = 0
            for i in range(n):
                if stop[i]:
                    seq.unassign(f"n{i}")
                    continue
                feature = MotionFeature(float(speed[i]), float(direction[i]))
                cluster, moved = seq.assign(f"n{i}", feature)
                if moved:
                    want_moves += 1
                want_avg[i] = cluster.average_speed
            directions = direction if col.track_directions else None
            moves = col.place_all(stop, speed, directions, avg)
            assert moves == want_moves
            assert np.array_equal(avg, want_avg)
            assert_parity(seq, col, n)

    def test_clear_then_bulk_resweep(self):
        """Reconstruction: clear() then place_all reports zero moves."""
        n = 30
        rng = np.random.default_rng(7)
        col = ColumnarClusterer(0.75, capacity=n)
        stop = np.zeros(n, bool)
        speed = rng.uniform(0.0, 12.0, n)
        col.place_all(stop, speed, None)
        before = col.cluster_sizes()
        col.clear()
        assert col.cluster_count() == 0
        assert col.place_all(stop, speed, None) == 0
        assert col.cluster_sizes() == before


class TestBatchedMode:
    def test_batched_bulk_sweep_reasonable(self):
        """Batched placement lands every moving node, none of the stopped."""
        n = 5_000
        rng = np.random.default_rng(11)
        col = ColumnarClusterer(0.75, capacity=n, mode="batched")
        for _ in range(5):
            stop = rng.random(n) < 0.2
            speed = rng.uniform(0.0, 12.0, n)
            avg = np.zeros(n)
            col.place_all(stop, speed, None, avg)
            assert col.assigned_count() == int(np.count_nonzero(~stop))
            assert np.all(avg[stop] == 0.0)
            assert np.all(avg[~stop] >= 0.0)

    @pytest.mark.parametrize("weight", [0.0, 0.5])
    def test_seed_chunk_matches_exact_mode(self, weight):
        """From empty, a batched sweep of at most one seed chunk puts
        every row through the sequential step, so it must land every node
        where exact mode does — with the weighted distance too."""
        n = 300
        for seed in range(20):
            rng = np.random.default_rng(seed)
            stop = rng.random(n) < 0.2
            speed = rng.uniform(0.0, 12.0, n)
            direction = rng.uniform(-math.pi, math.pi, n)
            exact, batched = (
                ColumnarClusterer(0.75, capacity=n, direction_weight=weight, mode=mode)
                for mode in ("exact", "batched")
            )
            exact.place_all(stop, speed, direction)
            batched.place_all(stop, speed, direction)
            assert batched.cluster_ids() == exact.cluster_ids()
            assert batched.cluster_sizes() == exact.cluster_sizes()
            assert [batched.cluster_of(i) for i in range(n)] == [
                exact.cluster_of(i) for i in range(n)
            ]

    def test_single_assign_stays_exact_in_batched_mode(self):
        seq = SequentialClusterer(0.5)
        col = ColumnarClusterer(0.5, capacity=8, mode="batched")
        for node, speed in [(0, 2.0), (1, 8.0), (2, 2.1), (0, 8.2)]:
            cluster, _ = seq.assign(f"n{node}", MotionFeature(speed, 0.0))
            cid, _ = col.assign(node, speed, 0.0)
            assert cid == cluster.cluster_id
        assert_parity(seq, col, 8)

    def test_quality_vs_exact_at_10k_nodes(self):
        """The declared tolerances: batched mode must stay within
        BATCHED_REDUCTION_TOLERANCE (absolute LU-reduction drift) and
        BATCHED_RMSE_TOLERANCE (relative with-LE RMSE drift) of exact
        mode on a real 10k-node sweep."""
        from repro.campus import default_campus
        from repro.core.columnar import (
            ColumnarMobilitySource,
            run_columnar_experiment,
        )
        from repro.core.columnar.kernels import FAST_KERNEL
        from repro.experiments.config import ExperimentConfig
        from repro.mobility.population import table1_spec

        campus = default_campus()
        spec = table1_spec()
        base = spec.total_for(len(campus.roads()), len(campus.buildings()))
        factor = max(1, round(10_000 / base))
        config = ExperimentConfig(duration=8.0, dth_factors=(1.0,), seed=42)
        results = {}
        for mode in ("exact", "batched"):
            source = ColumnarMobilitySource(campus, spec.scaled(factor), seed=42)
            results[mode] = run_columnar_experiment(
                config,
                campus=campus,
                source=source,
                kernel=FAST_KERNEL,
                cluster_mode=mode,
            )
        exact, batched = results["exact"], results["batched"]
        assert batched.node_count == exact.node_count >= 9_000
        red_e = exact.reduction_vs_ideal("adf-1")
        red_b = batched.reduction_vs_ideal("adf-1")
        assert abs(red_b - red_e) <= BATCHED_REDUCTION_TOLERANCE
        rmse_e = exact.lanes["adf-1"].mean_rmse(with_le=True)
        rmse_b = batched.lanes["adf-1"].mean_rmse(with_le=True)
        assert abs(rmse_b - rmse_e) <= BATCHED_RMSE_TOLERANCE * rmse_e


@pytest.mark.parametrize("weight", [0.0, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nearest_slot_matches_the_distance_matrix_argmin(weight, seed):
    """Batched mode's per-slot scan picks what ``np.argmin`` over the
    rows x slots distance matrix picks (the first of tied slots), at the
    same distance, through duplicate centroids and tombstones."""
    rng = np.random.default_rng(seed)
    col = ColumnarClusterer(0.75, capacity=1, direction_weight=weight)
    speed = rng.integers(0, 8, 500) * 0.5  # many exact ties
    centroids = rng.integers(0, 8, 12) * 0.5
    centroids[[3, 7]] = math.inf  # tombstones
    heading = rng.uniform(-math.pi, math.pi, 500) if weight else None
    cdir = rng.uniform(-math.pi, math.pi, 12) if weight else None
    d = np.abs(speed[:, None] - centroids[None, :])
    if weight:
        theta = np.fmod(heading[:, None] - cdir[None, :], 2.0 * math.pi)
        theta = np.where(theta <= -math.pi, theta + 2.0 * math.pi, theta)
        theta = np.where(theta > math.pi, theta - 2.0 * math.pi, theta)
        d = d + weight * np.abs(theta)
    best, best_d = col._nearest(speed, centroids, heading, cdir)
    want = np.argmin(d, axis=1)
    np.testing.assert_array_equal(best, want)
    np.testing.assert_array_equal(best_d, d[np.arange(len(want)), want])
