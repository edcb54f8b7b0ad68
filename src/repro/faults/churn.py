"""Offline-node bookkeeping for :class:`~repro.faults.schedule.NodeChurn`.

Churn is not bound to simulator events: a node's presence is decided once
per reporting interval by the step loop that drives the fleet.  This is
the one copy of that rule, shared by the evaluation harness and the chaos
study:

* an offline node stays dark until its outage ends;
* a node whose outage has ended comes back (:attr:`Presence.RETURNED`);
  the caller makes its filters forget the node just before its first LU,
  so that LU transmits unconditionally;
* every other node, while ``schedule.churn_window(now)`` is active, draws
  once from the churn stream and disconnects with the window's hazard for
  ``max(exponential(mean_outage), interval)`` seconds.

Nodes draw in the order they are polled (node order), and only inside a
churn window, so a schedule without churn never touches the stream.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.faults.schedule import FaultSchedule, NodeChurn

__all__ = ["ChurnTracker", "Presence"]


class Presence(enum.Enum):
    """A node's state for one step under churn."""

    ONLINE = "online"
    OFFLINE = "offline"
    #: Back this step after an outage: online, and new to every filter.
    RETURNED = "returned"


class ChurnTracker:
    """Which nodes are offline, step by step, under a schedule's churn."""

    def __init__(
        self, schedule: FaultSchedule, rng: np.random.Generator, interval: float
    ) -> None:
        self._schedule = schedule
        self._rng = rng
        self._interval = interval
        self._offline_until: dict[str, float] = {}
        self._now = 0.0
        self._window: NodeChurn | None = None
        self.disconnections = 0
        self.reconnections = 0

    def begin_step(self, now: float) -> None:
        """Start the step at *now*: look up the churn window in force."""
        self._now = now
        self._window = self._schedule.churn_window(now)

    def poll(self, node_id: str) -> Presence:
        """*node_id*'s presence this step; call once per node, in node order."""
        until = self._offline_until.get(node_id)
        if until is not None:
            if self._now < until:
                return Presence.OFFLINE
            del self._offline_until[node_id]
            self.reconnections += 1
            return Presence.RETURNED
        window = self._window
        if window is not None and self._rng.random() < window.hazard:
            self.disconnections += 1
            outage = float(self._rng.exponential(window.mean_outage))
            self._offline_until[node_id] = self._now + max(outage, self._interval)
            return Presence.OFFLINE
        return Presence.ONLINE
