"""Input checks of the columnar classifier, matched to the object one."""

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, MobilityClassifier
from repro.core.columnar.classifier import ColumnarClassifier
from repro.core.columnar.kernels import EXACT_KERNEL
from repro.core.columnar.state import PATTERN_CODES


def _state(classifier):
    return [
        classifier.labels.copy(),
        classifier.mean_speed.copy(),
        classifier.dir_mean_x.copy(),
        classifier.dir_mean_y.copy(),
        classifier.dir_count.copy(),
        classifier.observations,
    ]


@pytest.mark.parametrize(
    "speeds, directions, message",
    [
        ([np.nan, 1.0], [0.0, 0.0], "speed must be finite and >= 0, got nan"),
        ([1.0, np.inf], [0.0, 0.0], "speed must be finite and >= 0, got inf"),
        ([1.0, -0.5], [0.0, 0.0], "speed must be finite and >= 0, got -0.5"),
        ([1.0, 1.0], [0.0, np.nan], "direction must be finite, got nan"),
        ([1.0, 1.0], [-np.inf, 0.0], "direction must be finite, got -inf"),
    ],
)
def test_bad_observation_rejected_and_state_unchanged(speeds, directions, message):
    config = ClassifierConfig()
    columnar = ColumnarClassifier(config, 2, EXACT_KERNEL)
    columnar.observe(np.array([1.0, 2.0]), np.array([0.5, 1.0]))
    before = _state(columnar)
    with pytest.raises(ValueError, match=message):
        columnar.observe(np.array(speeds), np.array(directions))
    after = _state(columnar)
    for old, new in zip(before, after):
        np.testing.assert_array_equal(old, new)
    # The object classifier refuses the same value with the same words.
    node = MobilityClassifier(config)
    bad = next(i for i in range(2) if not (0.0 <= speeds[i] < np.inf)
               or not np.isfinite(directions[i]))
    with pytest.raises(ValueError, match=message):
        node.observe("n", float(speeds[bad]), float(directions[bad]))


def test_valid_rows_keep_classifying_after_a_rejection():
    columnar = ColumnarClassifier(ClassifierConfig(), 2, EXACT_KERNEL)
    with pytest.raises(ValueError):
        columnar.observe(np.array([np.nan, 1.0]), np.zeros(2))
    assert columnar.observations == 0
    for _ in range(3):
        columnar.observe(np.array([1.0, 1.0]), np.zeros(2))
    assert columnar.labels[0] == columnar.labels[1]
    assert np.all(np.isfinite(columnar.mean_speed))


def test_matches_the_object_classifier_through_window_wraps():
    """Every node's label, window means and heading match
    ``MobilityClassifier`` bit for bit over three windows' worth of
    steps, with pauses, so each heading deque wraps at its own row."""
    rng = np.random.default_rng(3)
    config = ClassifierConfig()
    n, steps = 40, 3 * config.window
    columnar = ColumnarClassifier(config, n, EXACT_KERNEL)
    scalar = MobilityClassifier(config)
    for _ in range(steps):
        speeds = rng.uniform(0.0, 3.0, n)
        speeds[rng.random(n) < 0.3] = 0.0
        directions = rng.uniform(-np.pi, np.pi, n)
        labels = columnar.observe(speeds, directions)
        headings = columnar.mean_directions()
        for i in range(n):
            node = f"n{i}"
            scalar.observe(node, float(speeds[i]), float(directions[i]))
            window = scalar._windows[node]
            assert PATTERN_CODES[scalar.label(node)] == labels[i]
            assert window._mean_speed == columnar.mean_speed[i]
            assert window._dir_means == (
                columnar.dir_mean_x[i],
                columnar.dir_mean_y[i],
            )
            assert scalar.feature(node).direction == headings[i]
