"""The mobility pattern classifier (paper Fig. 2).

The algorithm, verbatim from the paper:

* ``V_mn == 0``  ->  **Stop** (SS);
* ``V_mn > V_walk`` (running / vehicle)  ->  **Linear Movement** (LMS);
* ``0 < V_mn <= V_walk``:
  - velocity *and* direction constant  ->  **LMS**;
  - velocity *or* direction change frequently  ->  **RMS**.

"Constant" is operationalised over a sliding window of observations: the
speed's standard deviation and the direction's circular standard deviation
must both fall under configurable thresholds.
"""

from __future__ import annotations

import math
import types
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.clustering import MotionFeature
from repro.mobility.states import MobilityState
from repro.util.validation import check_non_negative, check_positive

__all__ = ["ClassifierConfig", "ObservationWindow", "MobilityClassifier"]


@dataclass(frozen=True)
class ClassifierConfig:
    """Thresholds for the Fig. 2 algorithm.

    ``v_walk`` is the paper's "maximum of walking velocity"; observations
    faster than it are unambiguously LMS (running or vehicle).  ``stop_speed``
    relaxes the paper's exact ``V_mn == 0`` to tolerate GPS/encoder noise.
    """

    v_walk: float = 2.0
    stop_speed: float = 0.05
    window: int = 10
    min_observations: int = 3
    speed_std_threshold: float = 0.35
    direction_std_threshold: float = 0.6

    def __post_init__(self) -> None:
        check_positive(self.v_walk, "v_walk")
        check_non_negative(self.stop_speed, "stop_speed")
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if not (1 <= self.min_observations <= self.window):
            raise ValueError(
                "min_observations must be in [1, window], got "
                f"{self.min_observations}"
            )
        check_positive(self.speed_std_threshold, "speed_std_threshold")
        check_positive(self.direction_std_threshold, "direction_std_threshold")


class ObservationWindow:
    """A sliding window of (speed, direction) observations for one MN.

    Plain state owned by :class:`MobilityClassifier`: ``observe`` appends
    to it and refreshes the window means, which classification and the
    clustering feature then read.  Headings are kept as unit vectors and
    only for moving observations.
    """

    def __init__(self, size: int) -> None:
        self._speeds: deque[float] = deque(maxlen=size)
        self._dir_x: deque[float] = deque(maxlen=size)
        self._dir_y: deque[float] = deque(maxlen=size)
        # Window means, kept current by observe(): every LU is classified
        # and almost every one is then placed, so both means are read per
        # LU; (0, 0) heading components stand for "no moving observation".
        self._mean_speed = 0.0
        self._dir_means = (0.0, 0.0)

    def __len__(self) -> int:
        return len(self._speeds)


class MobilityClassifier:
    """Classifies MNs into SS / RMS / LMS from streamed observations."""

    def __init__(self, config: ClassifierConfig | None = None) -> None:
        self.config = config or ClassifierConfig()
        self._windows: dict[str, ObservationWindow] = {}
        self._labels: dict[str, MobilityState] = {}
        self._labels_view = types.MappingProxyType(self._labels)

    def observe(self, node_id: str, speed: float, direction: float) -> MobilityState:
        """Absorb one observation and return the node's current label.

        The observation is validated before any state changes, so a
        rejected one leaves the node's window and label as they were.
        """
        # Chained comparisons are False for NaN, so these also reject it.
        if not 0.0 <= speed < math.inf:
            raise ValueError(f"speed must be finite and >= 0, got {speed}")
        if not -math.inf < direction < math.inf:
            raise ValueError(f"direction must be finite, got {direction}")
        window = self._windows.get(node_id)
        if window is None:
            window = ObservationWindow(self.config.window)
            self._windows[node_id] = window
        speeds = window._speeds
        speeds.append(speed)
        window._mean_speed = sum(speeds) / len(speeds)
        # A ~zero speed carries no heading.
        if speed > 1e-9:
            dir_x = window._dir_x
            dir_y = window._dir_y
            dir_x.append(math.cos(direction))
            dir_y.append(math.sin(direction))
            nd = len(dir_x)
            window._dir_means = (sum(dir_x) / nd, sum(dir_y) / nd)
        label = self._classify(window, speed)
        self._labels[node_id] = label
        return label

    def _classify(self, window: ObservationWindow, speed: float) -> MobilityState:
        cfg = self.config
        speeds = window._speeds
        n = len(speeds)
        # Until the window warms up, fall back to the instantaneous rule.
        if n < cfg.min_observations:
            if speed <= cfg.stop_speed:
                return MobilityState.STOP
            return (
                MobilityState.LINEAR
                if speed > cfg.v_walk
                else MobilityState.RANDOM
            )
        mean_speed = window._mean_speed
        if mean_speed <= cfg.stop_speed:
            return MobilityState.STOP
        if mean_speed > cfg.v_walk:
            return MobilityState.LINEAR
        # Population standard deviation of the speeds.
        var = sum([(s - mean_speed) ** 2 for s in speeds]) / n
        constant_speed = math.sqrt(var) <= cfg.speed_std_threshold
        # Circular standard deviation of the headings, sqrt(-2 ln R) from
        # the mean resultant length R; fewer than two moving observations
        # show no variation.
        if len(window._dir_x) < 2:
            direction_std = 0.0
        else:
            resultant = math.hypot(*window._dir_means)
            if resultant <= 1e-12:
                direction_std = math.inf
            elif resultant >= 1.0:
                direction_std = 0.0
            else:
                direction_std = math.sqrt(-2.0 * math.log(resultant))
        constant_direction = direction_std <= cfg.direction_std_threshold
        if constant_speed and constant_direction:
            return MobilityState.LINEAR
        return MobilityState.RANDOM

    def feature(self, node_id: str) -> MotionFeature | None:
        """The node's clustering feature, or ``None`` if never observed.

        Mean speed and circular-mean heading of the window; the heading is
        0.0 while the window holds no moving observation.
        """
        window = self._windows.get(node_id)
        if window is None:
            return None
        mean_x, mean_y = window._dir_means
        # Means of validated observations: in range by construction.
        return MotionFeature.unchecked(
            window._mean_speed, math.atan2(mean_y, mean_x)
        )

    def label(self, node_id: str) -> MobilityState | None:
        """The node's latest label, or ``None`` if never observed."""
        return self._labels.get(node_id)

    def labels(self) -> dict[str, MobilityState]:
        """A snapshot of every node's latest label."""
        return dict(self._labels)

    @property
    def labels_view(self) -> Mapping[str, MobilityState]:
        """Live read-only view of every node's latest label (no copy)."""
        return self._labels_view

    def forget(self, node_id: str) -> None:
        """Drop all state about a node (e.g. after it leaves the grid)."""
        self._windows.pop(node_id, None)
        self._labels.pop(node_id, None)

    def node_ids(self) -> list[str]:
        """Ids of every node that has been observed."""
        return list(self._windows)
