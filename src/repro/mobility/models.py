"""Stochastic mobility models for the three movement patterns.

Each model owns the node's kinematic state and exposes one operation:
``step(dt)`` advances the model by *dt* seconds and returns the new position.
Models are deterministic given their RNG stream.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.geometry import Path, Rect, Vec2
from repro.mobility.states import VelocityBand
from repro.util.validation import check_positive

__all__ = [
    "MobilityModel",
    "StopModel",
    "RandomWalkModel",
    "LinearPathModel",
    "RoutePlanner",
    "ShuttlePlanner",
    "RandomTripPlanner",
]


class MobilityModel(abc.ABC):
    """Base class: a positional process stepped in fixed increments."""

    def __init__(self, position: Vec2) -> None:
        self._position = position

    @property
    def position(self) -> Vec2:
        """Current position."""
        return self._position

    @abc.abstractmethod
    def step(self, dt: float) -> Vec2:
        """Advance *dt* seconds; return (and store) the new position."""

    def _require_dt(self, dt: float) -> float:
        return check_positive(dt, "dt")


class StopModel(MobilityModel):
    """Stop State (SS): the node does not move."""

    def step(self, dt: float) -> Vec2:
        self._require_dt(dt)
        return self._position


class RandomWalkModel(MobilityModel):
    """Random Movement State (RMS): slow wandering inside an area.

    The node repeatedly picks a random waypoint within *leg_radius* of its
    current position (clamped into *area*) and a random speed from *band*
    and walks there; occasionally it pauses.  Short legs are what make RMS
    what the paper describes — "changes its velocity or direction
    frequently" — a node crossing the whole building in one leg would look
    LMS to any observer, including the ADF's classifier.
    """

    def __init__(
        self,
        position: Vec2,
        area: Rect,
        band: VelocityBand,
        rng: np.random.Generator,
        *,
        pause_probability: float = 0.15,
        max_pause: float = 20.0,
        margin: float = 2.0,
        leg_radius: float = 6.0,
    ) -> None:
        super().__init__(area.clamp(position))
        if not (0.0 <= pause_probability <= 1.0):
            raise ValueError(
                f"pause_probability must be in [0, 1], got {pause_probability}"
            )
        if leg_radius <= 0:
            raise ValueError(f"leg_radius must be > 0, got {leg_radius}")
        self._area = area.expanded(-margin) if _can_shrink(area, margin) else area
        self._band = band
        self._rng = rng
        self._pause_probability = pause_probability
        self._max_pause = max_pause
        self._leg_radius = leg_radius
        self._target: Vec2 | None = None
        self._speed = 0.0
        self._pause_left = 0.0

    def _pick_leg(self) -> None:
        if self._rng.random() < self._pause_probability:
            self._target = None
            self._pause_left = float(self._rng.uniform(1.0, self._max_pause))
            return
        angle = float(self._rng.uniform(-np.pi, np.pi))
        radius = float(self._rng.uniform(0.5, self._leg_radius))
        self._target = self._area.clamp(
            self._position + Vec2.from_polar(radius, angle)
        )
        # Avoid zero speed so "random movement" actually moves.
        low = max(self._band.low, 0.1 * max(self._band.high, 0.1))
        self._speed = float(self._rng.uniform(low, max(self._band.high, low)))

    def step(self, dt: float) -> Vec2:
        self._require_dt(dt)
        remaining = dt
        while remaining > 1e-12:
            if self._pause_left > 0.0:
                used = min(self._pause_left, remaining)
                self._pause_left -= used
                remaining -= used
                continue
            if self._target is None:
                self._pick_leg()
                continue
            to_target = self._target - self._position
            dist = to_target.norm()
            if dist <= 1e-9:
                self._target = None
                continue
            travel = self._speed * remaining
            if travel >= dist:
                self._position = self._target
                remaining -= dist / self._speed if self._speed > 0 else remaining
                self._target = None
            else:
                self._position = self._position + to_target.unit() * travel
                remaining = 0.0
        return self._position


class RoutePlanner(abc.ABC):
    """Supplies the next path when an LMS node exhausts its current one."""

    @abc.abstractmethod
    def next_path(self, current: Vec2) -> Path:
        """Return the next path, starting at (or near) *current*."""


class ShuttlePlanner(RoutePlanner):
    """Traverses one fixed path back and forth (road patrol)."""

    def __init__(self, path: Path) -> None:
        if path.length <= 0:
            raise ValueError("shuttle path must have positive length")
        self._forward = path
        self._go_forward = True

    def next_path(self, current: Vec2) -> Path:
        path = self._forward if self._go_forward else self._forward.reversed()
        self._go_forward = not self._go_forward
        return path


class RandomTripPlanner(RoutePlanner):
    """Chooses random trips among a set of candidate paths.

    Used for LMS nodes inside buildings: candidates are the building's
    corridors, giving hallway-shaped direction changes (paper case 9).
    """

    def __init__(self, candidates: list[Path], rng: np.random.Generator) -> None:
        if not candidates:
            raise ValueError("need at least one candidate path")
        self._candidates = list(candidates)
        self._rng = rng

    def next_path(self, current: Vec2) -> Path:
        index = int(self._rng.integers(len(self._candidates)))
        chosen = self._candidates[index]
        if self._rng.random() < 0.5:
            chosen = chosen.reversed()
        # Walk from wherever we are to the chosen path's start, then along it.
        if current.distance_to(chosen.start) > 1e-9:
            return Path([current, *chosen.waypoints])
        return chosen


class LinearPathModel(MobilityModel):
    """Linear Movement State (LMS): near-constant speed along paths.

    The node follows paths supplied by a :class:`RoutePlanner` at a base
    speed drawn from *band* once per path, perturbed by per-step noise —
    the paper calls LMS velocity "relatively normal", not constant, and the
    jitter level calibrates how often the distance filter's threshold is
    crossed.  Direction changes only happen at path vertices —
    intersections and hallway corners — matching the paper's
    characterisation of LMS.
    """

    def __init__(
        self,
        position: Vec2,
        planner: RoutePlanner,
        band: VelocityBand,
        rng: np.random.Generator,
        *,
        speed_jitter: float = 0.25,
    ) -> None:
        super().__init__(position)
        if speed_jitter < 0:
            raise ValueError(f"speed_jitter must be >= 0, got {speed_jitter}")
        self._planner = planner
        self._band = band
        self._rng = rng
        self._speed_jitter = speed_jitter
        self._path: Path | None = None
        self._arc = 0.0
        self._base_speed = band.mean

    def _begin_path(self) -> None:
        path = self._planner.next_path(self._position)
        if self._position.distance_to(path.start) > 1e-9:
            # Never teleport: walk from wherever we are to the path's start.
            path = Path([self._position, *path.waypoints])
        self._path = path
        self._arc = 0.0
        self._base_speed = self._band.sample(self._rng)
        if self._base_speed <= 0.0:
            self._base_speed = max(self._band.high, 0.1)

    def step(self, dt: float) -> Vec2:
        self._require_dt(dt)
        remaining = dt
        while remaining > 1e-12:
            if self._path is None or self._arc >= self._path.length:
                self._begin_path()
                if self._path.length <= 1e-9:
                    # Degenerate path: nothing to walk; stay put this step.
                    self._path = None
                    break
            jitter = 1.0 + self._speed_jitter * float(self._rng.standard_normal())
            speed = self._band.clamp(self._base_speed * max(jitter, 0.1))
            if speed <= 0.0:
                break
            travel = speed * remaining
            left_on_path = self._path.remaining(self._arc)
            if travel >= left_on_path:
                self._arc = self._path.length
                self._position = self._path.end
                remaining -= left_on_path / speed
                self._path = None
            else:
                self._arc += travel
                self._position = self._path.point_at(self._arc)
                remaining = 0.0
        return self._position


def _can_shrink(area: Rect, margin: float) -> bool:
    return area.width > 2 * margin and area.height > 2 * margin
