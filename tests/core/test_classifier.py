"""Tests for the Fig. 2 mobility pattern classifier."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import ClassifierConfig, MobilityClassifier
from repro.geometry import angle_difference
from repro.mobility.states import MobilityState


@pytest.fixture
def classifier():
    return MobilityClassifier()


def observe_many(classifier, node, samples):
    label = None
    for speed, direction in samples:
        label = classifier.observe(node, speed, direction)
    return label


class TestConfig:
    def test_defaults_valid(self):
        ClassifierConfig()

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            ClassifierConfig(window=1)

    def test_min_observations_bounds(self):
        with pytest.raises(ValueError):
            ClassifierConfig(window=5, min_observations=6)

    def test_negative_stop_speed(self):
        with pytest.raises(ValueError):
            ClassifierConfig(stop_speed=-0.1)


class TestFig2Rules:
    def test_zero_velocity_is_stop(self, classifier):
        label = observe_many(classifier, "n", [(0.0, 0.0)] * 6)
        assert label is MobilityState.STOP

    def test_above_walking_speed_is_linear(self, classifier):
        """V_mn > V_walk: running or vehicle => LMS regardless of wiggle."""
        samples = [(7.0, 0.1 * i) for i in range(8)]
        assert observe_many(classifier, "n", samples) is MobilityState.LINEAR

    def test_slow_constant_velocity_is_linear(self, classifier):
        """0 < V <= V_walk with steady velocity and direction => LMS."""
        samples = [(1.2, 0.5)] * 8
        assert observe_many(classifier, "n", samples) is MobilityState.LINEAR

    def test_slow_erratic_direction_is_random(self, classifier):
        headings = [0.0, 2.5, 5.0, 1.2, 3.9, 0.3, 4.4, 2.0]
        samples = [(0.8, h) for h in headings]
        assert observe_many(classifier, "n", samples) is MobilityState.RANDOM

    def test_slow_erratic_speed_is_random(self, classifier):
        speeds = [0.2, 1.8, 0.1, 1.5, 0.3, 1.9, 0.2, 1.6]
        samples = [(s, 0.5) for s in speeds]
        assert observe_many(classifier, "n", samples) is MobilityState.RANDOM

    def test_noise_below_stop_speed_still_stop(self, classifier):
        samples = [(0.02, 1.0)] * 8
        assert observe_many(classifier, "n", samples) is MobilityState.STOP


class TestWarmup:
    def test_instantaneous_rule_before_window_fills(self, classifier):
        assert classifier.observe("n", 0.0, 0.0) is MobilityState.STOP
        assert classifier.observe("n2", 9.0, 0.0) is MobilityState.LINEAR
        assert classifier.observe("n3", 1.0, 0.0) is MobilityState.RANDOM

    def test_transition_stop_to_linear(self, classifier):
        observe_many(classifier, "n", [(0.0, 0.0)] * 8)
        label = observe_many(classifier, "n", [(3.0, 0.2)] * 10)
        assert label is MobilityState.LINEAR

    def test_transition_linear_to_stop(self, classifier):
        observe_many(classifier, "n", [(3.0, 0.2)] * 10)
        label = observe_many(classifier, "n", [(0.0, 0.0)] * 10)
        assert label is MobilityState.STOP


class TestBookkeeping:
    def test_label_lookup(self, classifier):
        assert classifier.label("ghost") is None
        classifier.observe("n", 5.0, 0.0)
        assert classifier.label("n") is MobilityState.LINEAR

    def test_labels_snapshot(self, classifier):
        classifier.observe("a", 0.0, 0.0)
        classifier.observe("b", 9.0, 0.0)
        labels = classifier.labels()
        assert labels == {
            "a": MobilityState.STOP,
            "b": MobilityState.LINEAR,
        }

    def test_forget(self, classifier):
        classifier.observe("n", 1.0, 0.0)
        classifier.forget("n")
        assert classifier.label("n") is None
        assert "n" not in classifier.node_ids()

    def test_negative_speed_rejected(self, classifier):
        with pytest.raises(ValueError):
            classifier.observe("n", -1.0, 0.0)

    def test_window_access(self, classifier):
        assert classifier.feature("n") is None
        classifier.observe("n", 2.0, 0.5)
        feature = classifier.feature("n")
        assert feature.speed == 2.0
        assert feature.direction == pytest.approx(0.5)
        classifier.forget("n")
        assert classifier.feature("n") is None


class TestObservationWindow:
    def test_direction_std_wrap_safe(self, classifier):
        """Headings straddling +/-pi have small circular spread: LMS."""
        samples = [
            (1.0, math.pi - 0.05),
            (1.0, -math.pi + 0.05),
        ] * 4
        assert observe_many(classifier, "n", samples) is MobilityState.LINEAR

    def test_mean_direction_wraps(self, classifier):
        samples = [(1.0, math.pi - 0.1), (1.0, -math.pi + 0.1)] * 3
        observe_many(classifier, "n", samples)
        feature = classifier.feature("n")
        assert abs(abs(feature.direction) - math.pi) < 0.05
        assert feature.speed == 1.0

    def test_speed_std(self, classifier):
        """Speeds 1, 3, 1, 3: mean 2 = V_walk, std 1 > 0.35 => RMS."""
        label = observe_many(classifier, "n", [(1.0, 0.0), (3.0, 0.0)] * 2)
        assert label is MobilityState.RANDOM
        assert classifier.feature("n").speed == 2.0
        # The same mean with a spread under the threshold is LMS.
        label = observe_many(classifier, "m", [(1.8, 0.0), (2.2, 0.0)] * 2)
        assert label is MobilityState.LINEAR

    def test_stationary_samples_have_no_direction(self, classifier):
        label = observe_many(classifier, "n", [(0.0, 1.0)] * 5)
        assert label is MobilityState.STOP
        feature = classifier.feature("n")
        assert feature.speed == 0.0
        assert feature.direction == 0.0


class TestNonFiniteObservations:
    @pytest.mark.parametrize(
        "speed, direction",
        [
            (math.nan, 0.0),
            (math.inf, 0.0),
            (-math.inf, 0.0),
            (1.0, math.nan),
            (1.0, math.inf),
            (1.0, -math.inf),
            (0.0, math.nan),
        ],
    )
    def test_rejected_before_state_changes(self, classifier, speed, direction):
        observe_many(classifier, "n", [(1.0, 0.5)] * 4)
        before = classifier.feature("n")
        with pytest.raises(ValueError):
            classifier.observe("n", speed, direction)
        with pytest.raises(ValueError):
            classifier.observe("fresh", speed, direction)
        assert classifier.feature("n") == before
        assert classifier.label("n") is MobilityState.LINEAR
        assert classifier.feature("fresh") is None
        assert "fresh" not in classifier.node_ids()


def _reference(cfg, samples):
    """Feature and Fig. 2 label after *samples*, written out longhand.

    Returns ``(mean speed, mean heading, heading resultant, label)`` over
    the last ``window`` samples (the last ``window`` moving ones for the
    heading).
    """
    speeds = [s for s, _ in samples[-cfg.window:]]
    moving = [d for s, d in samples if s > 1e-9][-cfg.window:]
    mean = sum(speeds) / len(speeds)
    mx = sum(math.cos(d) for d in moving) / len(moving) if moving else 0.0
    my = sum(math.sin(d) for d in moving) / len(moving) if moving else 0.0
    resultant = math.hypot(mx, my)
    feature = (mean, math.atan2(my, mx), resultant)
    if len(samples) < cfg.min_observations:
        speed = samples[-1][0]
    else:
        speed = mean
    if speed <= cfg.stop_speed:
        return (*feature, MobilityState.STOP)
    if speed > cfg.v_walk:
        return (*feature, MobilityState.LINEAR)
    if len(samples) < cfg.min_observations:
        return (*feature, MobilityState.RANDOM)
    speed_std = math.sqrt(sum((s - mean) ** 2 for s in speeds) / len(speeds))
    if len(moving) < 2:
        direction_std = 0.0
    elif resultant <= 1e-12:
        direction_std = math.inf
    else:
        direction_std = math.sqrt(-2.0 * math.log(min(resultant, 1.0)))
    constant = (
        speed_std <= cfg.speed_std_threshold
        and direction_std <= cfg.direction_std_threshold
    )
    label = MobilityState.LINEAR if constant else MobilityState.RANDOM
    return (*feature, label)


# Speeds on and around the Fig. 2 thresholds (stop 0.05, V_walk 2.0) and
# headings that either wander or hold a course, so windows land on both
# sides of the speed and direction spread thresholds.
observations = st.tuples(
    st.one_of(
        st.sampled_from([0.0, 1e-10, 0.05, 0.5, 1.0, 1.5, 2.0, 2.5]),
        st.floats(min_value=0.0, max_value=4.0),
    ),
    st.one_of(
        st.floats(min_value=-0.8, max_value=0.8),
        st.floats(min_value=-math.pi, max_value=math.pi),
    ),
)


class TestAgainstReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(observations, min_size=1, max_size=30))
    @example([(0.05, 0.3)] * 5)  # mean exactly on the stop threshold
    @example([(2.0, 0.3)] * 5)  # mean exactly on V_walk
    def test_feature_and_label_match_the_reference(self, samples):
        cfg = ClassifierConfig(window=4, min_observations=2)
        classifier = MobilityClassifier(cfg)
        for i, (speed, direction) in enumerate(samples, start=1):
            label = classifier.observe("n", speed, direction)
            mean, heading, resultant, want = _reference(cfg, samples[:i])
            feature = classifier.feature("n")
            assert feature.speed == pytest.approx(mean, abs=1e-12)
            # atan2 of a near-cancelled mean heading is ill-conditioned.
            if resultant > 1e-9:
                delta = angle_difference(feature.direction, heading)
                assert delta == pytest.approx(0.0, abs=1e-9)
            assert label is want
