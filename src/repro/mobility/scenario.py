"""Itinerary-driven mobility: schedules like Tom's day (paper §3.1).

An :class:`Itinerary` is a sequence of steps:

* :class:`MoveTo` — walk to a region's entrance along the road network (LMS);
* :class:`Stay` — remain in place for a duration (SS);
* :class:`Wander` — move randomly within the current region (RMS).

:class:`ItineraryModel` executes the steps as a mobility model, so an
itinerary node plugs into the exact same machinery as the Table 1 nodes.
:func:`tom_itinerary` encodes the paper's 11-case undergraduate scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campus import Campus
from repro.geometry import Path, Vec2
from repro.mobility.models import MobilityModel, RandomWalkModel
from repro.mobility.states import (
    BUILDING_RANDOM_BAND,
    ROAD_HUMAN_BAND,
    MobilityState,
    VelocityBand,
)
from repro.util.units import HOUR, MINUTE

__all__ = [
    "MoveTo",
    "Stay",
    "Wander",
    "Itinerary",
    "ItineraryModel",
    "tom_itinerary",
]


@dataclass(frozen=True, slots=True)
class MoveTo:
    """Walk to navigation node *destination* at speeds from *band*."""

    destination: str
    band: VelocityBand = ROAD_HUMAN_BAND


@dataclass(frozen=True, slots=True)
class Stay:
    """Remain stationary for *duration* seconds."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"stay duration must be > 0, got {self.duration}")


@dataclass(frozen=True, slots=True)
class Wander:
    """Move randomly within region *region_id* for *duration* seconds."""

    duration: float
    region_id: str
    band: VelocityBand = BUILDING_RANDOM_BAND

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"wander duration must be > 0, got {self.duration}")


Step = MoveTo | Stay | Wander


@dataclass(frozen=True)
class Itinerary:
    """A named, ordered schedule of mobility steps."""

    name: str
    start_node: str
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError(f"itinerary {self.name!r} has no steps")

    def total_stationary_time(self) -> float:
        """Seconds spent in Stay steps (for scenario sanity checks)."""
        return sum(s.duration for s in self.steps if isinstance(s, Stay))


class ItineraryModel(MobilityModel):
    """Executes an itinerary as a steppable mobility model.

    Also exposes :attr:`current_state`, the pattern the node is *actually* in
    right now — ground truth for classifier evaluation across transitions.
    When the itinerary finishes, the node stays put (SS) and
    :attr:`finished` is set.
    """

    def __init__(
        self,
        campus: Campus,
        itinerary: Itinerary,
        rng: np.random.Generator,
        *,
        speed_jitter: float = 0.05,
    ) -> None:
        super().__init__(campus.node_pos(itinerary.start_node))
        self._campus = campus
        self._itinerary = itinerary
        self._rng = rng
        self._speed_jitter = speed_jitter
        self._step_index = 0
        self._state = MobilityState.STOP
        self._time_left = 0.0
        self._path: Path | None = None
        self._arc = 0.0
        self._speed = 0.0
        self._wanderer: RandomWalkModel | None = None
        self.finished = False

    @property
    def current_state(self) -> MobilityState:
        """Ground-truth mobility pattern at this instant."""
        return self._state

    def _enter_next_step(self) -> None:
        if self._step_index >= len(self._itinerary.steps):
            self.finished = True
            self._state = MobilityState.STOP
            return
        step = self._itinerary.steps[self._step_index]
        self._step_index += 1
        if isinstance(step, Stay):
            self._state = MobilityState.STOP
            self._time_left = step.duration
            self._wanderer = None
            self._path = None
        elif isinstance(step, Wander):
            self._state = MobilityState.RANDOM
            self._time_left = step.duration
            region = self._campus.region(step.region_id)
            self._wanderer = RandomWalkModel(
                self._position, region.bounds, step.band, self._rng
            )
            self._path = None
        else:  # MoveTo
            self._state = MobilityState.LINEAR
            goal = self._campus.node_pos(step.destination)
            self._path = self._campus.route_between_points(self._position, goal)
            self._arc = 0.0
            self._speed = step.band.sample(self._rng)
            if self._speed <= 0.0:
                self._speed = max(step.band.high, 0.5)
            self._wanderer = None

    def step(self, dt: float) -> Vec2:
        self._require_dt(dt)
        remaining = dt
        while remaining > 1e-12 and not self.finished:
            if self._state is MobilityState.LINEAR and self._path is not None:
                remaining = self._advance_walk(remaining)
            elif self._time_left > 0.0:
                used = min(self._time_left, remaining)
                if self._wanderer is not None:
                    self._wanderer.step(used)
                    self._position = self._wanderer.position
                self._time_left -= used
                remaining -= used
            else:
                self._enter_next_step()
        return self._position

    def _advance_walk(self, remaining: float) -> float:
        assert self._path is not None
        jitter = 1.0 + self._speed_jitter * float(self._rng.standard_normal())
        speed = self._speed * max(jitter, 0.1)
        left = self._path.remaining(self._arc)
        travel = speed * remaining
        if travel >= left:
            self._position = self._path.end
            self._path = None
            used = left / speed if speed > 0 else remaining
            self._enter_next_step()
            return remaining - used
        self._arc += travel
        self._position = self._path.point_at(self._arc)
        return 0.0


def tom_itinerary(*, compressed: bool = False) -> Itinerary:
    """The paper's undergraduate scenario (Tom's 11 movement cases).

    With ``compressed=True`` every Stay/Wander duration is divided by 60 so
    the full day fits in a short simulation (useful in tests and examples).
    """
    scale = 1.0 / 60.0 if compressed else 1.0

    def minutes(m: float) -> float:
        return max(m * MINUTE * scale, 1.0)

    def hours(h: float) -> float:
        return max(h * HOUR * scale, 1.0)

    steps: tuple[Step, ...] = (
        MoveTo("B4.door"),                     # (1) gate B -> R2 -> library
        Stay(hours(1)),                        # (2) study 1 h
        MoveTo("B6.door"),                     # (3) R5 -> lecture hall
        Stay(hours(2)),                        # (4) class 2 h
        MoveTo("B4.door"),                     # (5) back to the library
        Stay(minutes(90)),                     # (6) study 90 min
        Wander(minutes(30), "B4"),             # (7) coffee break, random
        MoveTo("B3.door"),                     # (8) R2 -> R1 -> R3 -> chemistry
        MoveTo("J3"),                          # (9) hallway walk (modelled as
                                               #     a short LMS leg)
        Wander(hours(3), "B3"),                # (10) lab work, random moves
        MoveTo("gateA"),                       # (11) R4 -> gate A, leave
    )
    return Itinerary(name="tom", start_node="gateB", steps=steps)
