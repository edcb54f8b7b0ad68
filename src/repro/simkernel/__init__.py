"""A small discrete-event simulation kernel.

The mobile-grid experiments are time-stepped at their core (MNs move every
``dt``), but the network channel, gateways and broker react to events at
arbitrary times, so everything is driven by a classic event heap.

Components:

* :class:`~repro.simkernel.events.Event` / :class:`~repro.simkernel.events.EventQueue`
  — the ordered future event list;
* :class:`~repro.simkernel.engine.Simulator` — scheduling, `run_until`,
  periodic activities.
"""

from repro.simkernel.events import Event, EventQueue
from repro.simkernel.engine import Simulator, SimulationError

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "SimulationError",
]
