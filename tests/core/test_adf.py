"""Tests for the full ADF pipeline."""

import math

import pytest

from repro.core import AdaptiveDistanceFilter, AdfConfig, FilterDecision
from repro.core.dth import FixedDth
from repro.geometry import Vec2
from repro.mobility.states import MobilityState
from repro.network.messages import LocationUpdate
from repro.telemetry import Telemetry


def lu(node, t, x, y=0.0, vx=0.0, vy=0.0):
    return LocationUpdate(
        sender=node,
        timestamp=t,
        node_id=node,
        position=Vec2(x, y),
        velocity=Vec2(vx, vy),
        region_id="R1",
    )


@pytest.fixture
def adf():
    return AdaptiveDistanceFilter(
        AdfConfig(dth_factor=1.0, alpha=0.75, recluster_interval=10.0)
    )


class TestConfig:
    def test_defaults(self):
        cfg = AdfConfig()
        assert cfg.dth_factor == 1.0
        assert cfg.report_interval == 1.0

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            AdfConfig(dth_factor=0.0)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            AdfConfig(alpha=-1.0)

    def test_name_includes_factor(self):
        adf = AdaptiveDistanceFilter(AdfConfig(dth_factor=1.25))
        assert adf.name == "adf(1.25av)"


class TestPipeline:
    def test_first_update_transmits(self, adf):
        assert adf.process(lu("n", 0.0, 0.0, vx=2.0)) is FilterDecision.TRANSMIT

    def test_stationary_node_suppressed_after_first(self, adf):
        adf.process(lu("sitter", 0.0, 5.0))
        for t in range(1, 8):
            decision = adf.process(lu("sitter", float(t), 5.0))
            assert decision is FilterDecision.SUPPRESS
        assert adf.label_of("sitter") is MobilityState.STOP

    def test_constant_speed_node_filtered_at_own_pace(self, adf):
        """At factor 1.0 a node clustered with itself transmits roughly
        every other step (displacement == DTH is suppressed, 2x is not)."""
        decisions = []
        for t in range(20):
            decisions.append(
                adf.process(lu("w", float(t), x=2.0 * t, vx=2.0))
            )
        transmitted = sum(1 for d in decisions if d is FilterDecision.TRANSMIT)
        assert 8 <= transmitted <= 12

    def test_fast_node_gets_larger_dth(self, adf):
        for t in range(6):
            adf.process(lu("fast", float(t), x=8.0 * t, vx=8.0))
            adf.process(lu("slow", float(t), x=1.0 * t, vx=1.0))
        assert adf.dth_of("fast") > adf.dth_of("slow") > 0.0

    def test_forward_callback_on_transmit_only(self):
        forwarded = []
        adf = AdaptiveDistanceFilter(
            AdfConfig(dth_factor=1.0), forward=forwarded.append
        )
        adf.process(lu("sitter", 0.0, 5.0))
        adf.process(lu("sitter", 1.0, 5.0))
        assert len(forwarded) == 1

    def test_stats_accumulate(self, adf):
        adf.process(lu("sitter", 0.0, 5.0))
        adf.process(lu("sitter", 1.0, 5.0))
        assert adf.stats.received == 2
        assert adf.stats.transmitted == 1
        assert adf.stats.suppressed == 1
        assert adf.stats.suppression_rate == 0.5
        assert adf.stats.transmission_rate == 0.5

    @pytest.mark.parametrize(
        "vx, vy", [(math.nan, 0.0), (math.inf, 0.0), (1.0, -math.inf)]
    )
    def test_non_finite_lu_rejected_and_node_keeps_working(self, vx, vy):
        """A rejected LU changes nothing: the node's next valid LUs are
        processed exactly as if it had never arrived."""
        config = AdfConfig(dth_factor=1.0, alpha=0.75, recluster_interval=10.0)
        hit, clean = AdaptiveDistanceFilter(config), AdaptiveDistanceFilter(config)
        for t in range(4):
            for f in (hit, clean):
                f.process(lu("w", float(t), x=2.0 * t, vx=2.0))
        with pytest.raises(ValueError):
            hit.process(lu("w", 4.0, x=8.0, vx=vx, vy=vy))
        for t in range(4, 10):
            update = lu("w", float(t), x=2.0 * t, vx=2.0)
            assert hit.process(update) is clean.process(update)
            assert hit.dth_of("w") == clean.dth_of("w")
        assert hit.summary() == clean.summary()

    def test_label_of_unknown(self, adf):
        assert adf.label_of("ghost") is None

    def test_dth_of_unknown_is_zero(self, adf):
        assert adf.dth_of("ghost") == 0.0


class TestDthPolicySwap:
    """``process`` takes its DTH from ``dth_policy`` — whatever policy is
    plugged in — and records it in ``last_dth``."""

    @pytest.mark.parametrize("d", [0.0, 2.5, 7.0])
    def test_fixed_dth_suppresses_exactly_at_d(self, adf, d):
        adf.dth_policy = FixedDth(d)
        # The displacement from the reference fix is exactly d, then just
        # past it.
        assert adf.process(lu("n", 0.0, 0.0, vx=1.0)) is FilterDecision.TRANSMIT
        assert adf.last_dth == d
        at_d = adf.process(lu("n", 1.0, d, vx=1.0))
        assert at_d is FilterDecision.SUPPRESS
        assert adf.last_dth == d
        past_d = adf.process(lu("n", 2.0, d + 1e-6, vx=1.0))
        assert past_d is FilterDecision.TRANSMIT
        assert adf.last_dth == d

    def test_last_dth_is_the_cluster_dth(self, adf):
        for t in range(6):
            adf.process(lu("w", float(t), x=2.0 * t, vx=2.0))
            assert adf.last_dth == adf.dth_of("w")
        assert adf.last_dth > 0.0


class TestSuppressedClusterSize:
    def test_histogram_samples_member_counts(self):
        tm = Telemetry()
        adf = AdaptiveDistanceFilter(AdfConfig(dth_factor=1.0), telemetry=tm)
        adf.process(lu("sitter", 0.0, 5.0))
        adf.process(lu("sitter", 1.0, 5.0))  # unclustered (SS): sample 0
        for t in range(8):
            adf.process(lu("a", float(t), x=2.0 * t, vx=2.0))
            adf.process(lu("b", float(t), x=2.0 * t, y=50.0, vx=2.0))
        hist = tm.histogram("adf.suppressed_cluster_size", filter=adf.name)
        assert hist.count == adf.stats.suppressed
        assert hist.count >= 2
        assert hist.min == 0.0
        assert hist.max == 2.0


class TestRecluster:
    def test_tick_respects_interval(self, adf):
        for t in range(3):
            adf.process(lu("w", float(t), x=2.0 * t, vx=2.0))
        assert not adf.tick(5.0)
        assert adf.tick(10.0)
        assert not adf.tick(15.0)
        assert adf.tick(20.0)

    def test_reconstruction_counted(self, adf):
        adf.process(lu("w", 0.0, 0.0, vx=2.0))
        adf.tick(100.0)
        assert adf.cluster_manager.reconstructions == 1

    def test_summary_merges_filter_and_clusters(self, adf):
        adf.process(lu("w", 0.0, 0.0, vx=2.0))
        summary = adf.summary()
        assert "received" in summary
        assert "clusters" in summary


class TestPaperScenario:
    def test_mixed_population_reduction(self):
        """A toy fleet: 2 sitters, 2 walkers, 2 vehicles; the ADF must cut
        traffic substantially while keeping every displacement bounded."""
        adf = AdaptiveDistanceFilter(AdfConfig(dth_factor=1.0))
        for t in range(40):
            for i in range(2):
                adf.process(lu(f"sit{i}", t, x=float(i) * 50))
                adf.process(lu(f"walk{i}", t, x=1.5 * t + i * 100, vx=1.5))
                adf.process(lu(f"veh{i}", t, x=7.0 * t + i * 200, vx=7.0))
        assert 0.3 <= adf.stats.suppression_rate <= 0.8
        # Sitters almost silent, vehicles filtered at their own scale.
        assert adf.dth_of("veh0") > adf.dth_of("walk0")


class TestConfigPropagation:
    def test_direction_weight_reaches_clusterer(self):
        adf = AdaptiveDistanceFilter(AdfConfig(direction_weight=1.5))
        assert adf.cluster_manager.clusterer.direction_weight == 1.5

    def test_max_clusters_bounds_growth(self):
        adf = AdaptiveDistanceFilter(
            AdfConfig(alpha=0.01, max_clusters=4)
        )
        # 30 nodes with 30 distinct speeds would want 30 singleton
        # clusters; the cap must hold.
        for i in range(30):
            speed = 0.5 + 0.3 * i
            for t in range(4):
                adf.process(
                    lu(f"n{i}", float(t), x=speed * t, vx=speed)
                )
        assert adf.cluster_manager.clusterer.cluster_count() <= 4

    def test_report_interval_scales_dth(self):
        fast_report = AdaptiveDistanceFilter(AdfConfig(report_interval=1.0))
        slow_report = AdaptiveDistanceFilter(AdfConfig(report_interval=5.0))
        for adf in (fast_report, slow_report):
            for t in range(6):
                adf.process(lu("n", float(t), x=2.0 * t, vx=2.0))
        assert slow_report.dth_of("n") == pytest.approx(
            5.0 * fast_report.dth_of("n"), rel=0.01
        )
