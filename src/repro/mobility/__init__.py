"""Mobility modelling for mobile-grid nodes.

The paper distils campus movement into three patterns (§3.1):

* **SS** — Stop State: no movement (studying, attending class);
* **RMS** — Random Movement State: slow, frequently changing velocity and
  direction (coffee breaks, lab work);
* **LMS** — Linear Movement State: purposeful movement towards a destination
  at near-constant velocity, with direction changes at intersections or
  along hallways.

This package provides stochastic models for each pattern, the
:class:`~repro.mobility.node.MobileNode` that hosts them, the Table 1
population builder and itinerary-driven scenarios (Tom's day).
"""

from repro.mobility.states import (
    DeviceType,
    MobilityState,
    NodeKind,
    VelocityBand,
)
from repro.mobility.models import (
    LinearPathModel,
    MobilityModel,
    RandomTripPlanner,
    RandomWalkModel,
    RoutePlanner,
    ShuttlePlanner,
    StopModel,
)
from repro.mobility.classic import (
    GaussMarkovModel,
    ManhattanGridModel,
    RandomWaypointModel,
)
from repro.mobility.node import MobileNode, MotionSample
from repro.mobility.population import PopulationSpec, build_population, table1_spec
from repro.mobility.scenario import (
    Itinerary,
    ItineraryModel,
    MoveTo,
    Stay,
    Wander,
    tom_itinerary,
)

__all__ = [
    "DeviceType",
    "MobilityState",
    "NodeKind",
    "VelocityBand",
    "MobilityModel",
    "StopModel",
    "RandomWalkModel",
    "LinearPathModel",
    "RandomWaypointModel",
    "GaussMarkovModel",
    "ManhattanGridModel",
    "RoutePlanner",
    "ShuttlePlanner",
    "RandomTripPlanner",
    "MobileNode",
    "MotionSample",
    "PopulationSpec",
    "build_population",
    "table1_spec",
    "Itinerary",
    "ItineraryModel",
    "MoveTo",
    "Stay",
    "Wander",
    "tom_itinerary",
]
