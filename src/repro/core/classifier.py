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
    """A sliding window of (speed, direction) observations for one MN."""

    def __init__(self, size: int) -> None:
        self._speeds: deque[float] = deque(maxlen=size)
        self._dir_x: deque[float] = deque(maxlen=size)
        self._dir_y: deque[float] = deque(maxlen=size)
        # Memoized window statistics, invalidated on add.  Classification
        # and feature extraction both read them for every LU, so without
        # the cache each window is re-summed several times per step.
        self._mean_speed: float | None = None
        self._dir_means: tuple[float, float] | None = None

    def add(self, speed: float, direction: float) -> None:
        """Record one observation (direction ignored for ~zero speed)."""
        self._speeds.append(speed)
        self._mean_speed = None
        if speed > 1e-9:
            self._dir_x.append(math.cos(direction))
            self._dir_y.append(math.sin(direction))
            self._dir_means = None

    def __len__(self) -> int:
        return len(self._speeds)

    def mean_speed(self) -> float:
        """Average observed speed in the window."""
        mean = self._mean_speed
        if mean is None:
            if not self._speeds:
                return 0.0
            mean = self._mean_speed = sum(self._speeds) / len(self._speeds)
        return mean

    def _dir_mean_components(self) -> tuple[float, float]:
        """Cached mean of the unit heading vectors (empty window: zeros)."""
        means = self._dir_means
        if means is None:
            n = len(self._dir_x)
            if n == 0:
                return (0.0, 0.0)
            means = self._dir_means = (
                sum(self._dir_x) / n,
                sum(self._dir_y) / n,
            )
        return means

    def speed_std(self, mean: float | None = None) -> float:
        """Standard deviation of the windowed speeds.

        *mean* may be passed in when the caller already computed
        :meth:`mean_speed`, sparing a second pass over the window.
        """
        n = len(self._speeds)
        if n < 2:
            return 0.0
        if mean is None:
            mean = self.mean_speed()
        var = sum((s - mean) ** 2 for s in self._speeds) / n
        return math.sqrt(var)

    def direction_std(self) -> float:
        """Circular standard deviation of the windowed headings.

        Computed from the mean resultant length R of the unit heading
        vectors: ``sqrt(-2 ln R)``.  Returns 0 for fewer than two moving
        observations (no evidence of variation).
        """
        n = len(self._dir_x)
        if n < 2:
            return 0.0
        mean_x, mean_y = self._dir_mean_components()
        resultant = math.hypot(mean_x, mean_y)
        if resultant <= 1e-12:
            return math.inf
        if resultant >= 1.0:
            return 0.0
        return math.sqrt(-2.0 * math.log(resultant))

    def mean_direction(self) -> float:
        """Circular mean heading of the window (radians)."""
        if not self._dir_x:
            return 0.0
        mean_x, mean_y = self._dir_mean_components()
        return math.atan2(mean_y, mean_x)


class MobilityClassifier:
    """Classifies MNs into SS / RMS / LMS from streamed observations."""

    def __init__(self, config: ClassifierConfig | None = None) -> None:
        self.config = config or ClassifierConfig()
        self._windows: dict[str, ObservationWindow] = {}
        self._labels: dict[str, MobilityState] = {}
        self._labels_view = types.MappingProxyType(self._labels)

    def observe(self, node_id: str, speed: float, direction: float) -> MobilityState:
        """Absorb one observation and return the node's current label."""
        if speed < 0:
            raise ValueError(f"speed must be >= 0, got {speed}")
        window = self._windows.get(node_id)
        if window is None:
            window = ObservationWindow(self.config.window)
            self._windows[node_id] = window
        # Inlined ObservationWindow.add — one call per LU per filter.
        window._speeds.append(speed)
        window._mean_speed = None
        if speed > 1e-9:
            window._dir_x.append(math.cos(direction))
            window._dir_y.append(math.sin(direction))
            window._dir_means = None
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
        # Window statistics inlined from mean_speed / speed_std /
        # direction_std (identical arithmetic, shared memoized sums):
        # classification runs once per LU per filter.
        mean_speed = window._mean_speed
        if mean_speed is None:
            mean_speed = window._mean_speed = sum(speeds) / n
        if mean_speed <= cfg.stop_speed:
            return MobilityState.STOP
        if mean_speed > cfg.v_walk:
            return MobilityState.LINEAR
        if n < 2:
            speed_std = 0.0
        else:
            var = sum([(s - mean_speed) ** 2 for s in speeds]) / n
            speed_std = math.sqrt(var)
        constant_speed = speed_std <= cfg.speed_std_threshold
        dir_x = window._dir_x
        nd = len(dir_x)
        if nd < 2:
            direction_std = 0.0
        else:
            means = window._dir_means
            if means is None:
                means = window._dir_means = (
                    sum(dir_x) / nd,
                    sum(window._dir_y) / nd,
                )
            resultant = math.hypot(means[0], means[1])
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

    def window(self, node_id: str) -> ObservationWindow | None:
        """The node's observation window (for feature extraction)."""
        return self._windows.get(node_id)

    def forget(self, node_id: str) -> None:
        """Drop all state about a node (e.g. after it leaves the grid)."""
        self._windows.pop(node_id, None)
        self._labels.pop(node_id, None)

    def node_ids(self) -> list[str]:
        """Ids of every node that has been observed."""
        return list(self._windows)
