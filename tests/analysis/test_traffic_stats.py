"""Tests for traffic distribution analysis."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from repro.analysis import gini, lorenz_curve, traffic_shape
from repro.experiments import ExperimentConfig, run_experiment

counts = st.lists(
    st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=60
)


class TestGini:
    def test_equal_values_zero(self):
        assert gini([5.0, 5.0, 5.0]) == pytest.approx(0.0, abs=1e-9)

    def test_total_concentration(self):
        # One node carries everything: Gini -> (n-1)/n.
        assert gini([0.0, 0.0, 0.0, 100.0]) == pytest.approx(0.75)

    def test_known_value(self):
        assert gini([1.0, 3.0]) == pytest.approx(0.25)

    def test_all_zero(self):
        assert gini([0.0, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([-1.0, 2.0])

    @given(counts)
    def test_bounded(self, values):
        g = gini(values)
        assert -1e-9 <= g < 1.0

    @given(counts, st.floats(min_value=0.1, max_value=10.0))
    def test_scale_invariant(self, values, k):
        # A product that lands in the subnormal range keeps only a few
        # significant bits (or underflows to 0.0), which changes the
        # distribution rather than testing scale invariance.
        tiny = np.finfo(float).tiny
        assume(all(v == 0.0 or v * k >= tiny for v in values))
        assert gini([v * k for v in values]) == pytest.approx(
            gini(values), abs=1e-9
        )


class TestLorenz:
    def test_endpoints(self):
        curve = lorenz_curve([1.0, 2.0, 3.0])
        assert curve[0] == 0.0
        assert curve[-1] == pytest.approx(1.0)

    def test_monotone_and_convex_under_diagonal(self):
        curve = lorenz_curve([1.0, 2.0, 7.0])
        assert np.all(np.diff(curve) >= 0)
        shares = np.linspace(0, 1, curve.size)
        assert np.all(curve <= shares + 1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lorenz_curve([])


class TestTrafficShape:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(ExperimentConfig(duration=30.0, dth_factors=(1.0,)))

    def test_ideal_lane_is_uniform(self, result):
        shape = traffic_shape(result.ideal, result.duration)
        assert shape.active_nodes == 140
        assert shape.gini == pytest.approx(0.0, abs=1e-9)
        assert shape.top_decile_share == pytest.approx(0.1, abs=0.01)

    def test_adf_lane_is_skewed(self, result):
        """Filtering concentrates traffic on the fast nodes."""
        ideal = traffic_shape(result.ideal, result.duration)
        adf = traffic_shape(result.lanes["adf-1"], result.duration)
        assert adf.gini > ideal.gini + 0.1
        assert adf.top_decile_share > 0.12

    def test_dispersion_computed(self, result):
        shape = traffic_shape(result.lanes["adf-1"], result.duration)
        assert shape.dispersion >= 0.0

    def test_missing_per_node_counts_rejected(self):
        from repro.experiments.results import LaneResult
        from repro.network.traffic import TrafficMeter

        lane = LaneResult(name="x", dth_factor=None, meter=TrafficMeter())
        with pytest.raises(ValueError, match="per-node"):
            traffic_shape(lane, 10.0)
