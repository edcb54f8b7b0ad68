"""The grid broker (paper §3.4, "Grid Broker" component).

Behaviour, straight from the paper: "If the LUs of the MN are received, then
the grid broker stores this information to the location DB.  On the other
hand, if the LUs are filtered, the grid broker uses the location estimator
to predict the location of the MN and the grid broker stores an estimated
location of the MN to the location DB."

The broker is driven two ways:

* :meth:`receive_update` — an LU survived the ADF and arrived;
* :meth:`tick` — once per reporting interval the broker sweeps its known
  nodes; any node silent this interval gets an estimated record.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.broker.location_db import LocationDB, LocationRecord, RecordSource
from repro.estimation.arima_tracker import ArimaTracker
from repro.estimation.kalman import KalmanTracker
from repro.estimation.map_matched import MapMatchedTracker
from repro.estimation.tracker import (
    BrownTracker,
    HoltTracker,
    LastKnownTracker,
    LocationTracker,
    SimpleSmoothingTracker,
    VelocityComponentTracker,
    tracker_from_state,
)
from repro.geometry import Vec2
from repro.network.messages import LocationUpdate
from repro.telemetry import NULL_TELEMETRY, Severity
from repro.util.validation import check_positive

__all__ = ["BrokerConfig", "GridBroker"]

TrackerFactory = Callable[[], LocationTracker]

#: Named estimator families selectable via :class:`BrokerConfig`.
_ESTIMATORS: dict[str, Callable[[float], LocationTracker]] = {
    "brown": lambda alpha: BrownTracker(alpha),
    "simple": lambda alpha: SimpleSmoothingTracker(alpha),
    "holt": lambda alpha: HoltTracker(alpha),
    "velocity": lambda alpha: VelocityComponentTracker(alpha),
    "kalman": lambda alpha: KalmanTracker(),
    "arima": lambda alpha: ArimaTracker(),
}


@dataclass(frozen=True)
class BrokerConfig:
    """Broker tunables.

    ``use_location_estimator`` toggles the paper's LE on/off (the with/
    without-LE comparison of Figs. 7-9).  ``estimator`` names the tracker
    family used when the LE is on — ``"brown"`` (the paper's choice),
    ``"simple"``, ``"holt"``, ``"velocity"``, ``"kalman"`` or
    ``"arima"`` — see ablation A3 for the measured comparison.
    ``smoothing_alpha`` is the smoothing constant where applicable.
    """

    use_location_estimator: bool = True
    estimator: str = "brown"
    smoothing_alpha: float = 0.4
    report_interval: float = 1.0
    #: Graceful degradation under silence (both default off, preserving the
    #: paper's unbounded-extrapolation behaviour bit for bit):
    #: ``max_extrapolation_age`` — once a node's last *received* fix is
    #: older than this, estimates decay to the last-known position instead
    #: of extrapolating further (a stale velocity belief diverges without
    #: bound; a stale position is at least anchored to reality).
    max_extrapolation_age: float | None = None
    #: ``quarantine_age`` — nodes silent longer than this are quarantined:
    #: excluded from ``believed_position`` and the estimation sweep (with a
    #: WARNING event) until an LU resyncs them.
    quarantine_age: float | None = None

    def __post_init__(self) -> None:
        check_positive(self.report_interval, "report_interval")
        if self.estimator not in _ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; "
                f"choose from {sorted(_ESTIMATORS)}"
            )
        if self.max_extrapolation_age is not None:
            check_positive(self.max_extrapolation_age, "max_extrapolation_age")
        if self.quarantine_age is not None:
            check_positive(self.quarantine_age, "quarantine_age")
        if (
            self.max_extrapolation_age is not None
            and self.quarantine_age is not None
            and self.quarantine_age < self.max_extrapolation_age
        ):
            raise ValueError(
                "quarantine_age must be >= max_extrapolation_age "
                f"({self.quarantine_age} < {self.max_extrapolation_age})"
            )


class GridBroker:
    """Location consumer and estimator of the mobile grid."""

    def __init__(
        self,
        config: BrokerConfig | None = None,
        *,
        tracker_factory: TrackerFactory | None = None,
        telemetry: Any = None,
        name: str = "broker",
    ) -> None:
        self.config = config or BrokerConfig()
        # Only a caller-supplied factory can produce MapMatchedTrackers;
        # the named estimator families never do, so the per-LU isinstance
        # check is skipped entirely for standard brokers.
        self._maybe_map_matched = tracker_factory is not None
        if tracker_factory is not None:
            self._tracker_factory: TrackerFactory = tracker_factory
        elif self.config.use_location_estimator:
            alpha = self.config.smoothing_alpha
            make = _ESTIMATORS[self.config.estimator]
            self._tracker_factory = lambda: make(alpha)
        else:
            self._tracker_factory = LastKnownTracker
        self.name = name
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._telemetry = tm
        self._instrumented = tm.enabled
        self._t_received = tm.counter("broker.lu_received", broker=name)
        self._t_estimates = tm.counter("broker.estimates_made", broker=name)
        self._t_invocations = tm.counter("broker.estimator_invocations", broker=name)
        self._t_staleness = tm.gauge("broker.staleness_max", broker=name)
        self.location_db = LocationDB(telemetry=telemetry, name=name)
        self._trackers: dict[str, LocationTracker] = {}
        self._updated_since_tick: set[str] = set()
        self.updates_received = 0
        self.estimates_made = 0
        # Graceful-degradation state (all dormant — and the per-LU hot path
        # untouched — unless an age bound is configured).
        self._max_extrapolation_age = self.config.max_extrapolation_age
        self._quarantine_age = self.config.quarantine_age
        self._degraded_mode = (
            self._max_extrapolation_age is not None
            or self._quarantine_age is not None
        )
        self._quarantined: set[str] = set()
        self.quarantines = 0
        self.resyncs = 0
        self.stale_lus_dropped = 0
        self._t_quarantined = tm.counter("broker.quarantined", broker=name)
        self._t_resyncs = tm.counter("broker.resyncs", broker=name)
        self._t_stale_dropped = tm.counter("broker.stale_lus_dropped", broker=name)

    # -- LU ingestion --------------------------------------------------------
    def receive_update(
        self, update: LocationUpdate, record: LocationRecord | None = None
    ) -> None:
        """Store a received LU and feed the node's tracker.

        *record*, when given, is a prebuilt RECEIVED record for this LU —
        callers fanning one LU out to several brokers (the harness feeds
        each lane's with-LE and without-LE broker the same update) build
        it once and share it; records are frozen, so sharing is safe.
        """
        self.updates_received += 1
        if self._instrumented:
            self._t_received.inc()
        node_id = update.node_id
        timestamp = update.timestamp
        tracker = self._trackers.get(node_id)
        skip_db = False
        if self._degraded_mode:
            # Reconnect resync: a post-outage LU burst may arrive late,
            # reordered, or for a quarantined node.  Absorb it instead of
            # letting the strict monotonic-time checks blow up the broker.
            fix = tracker.last_fix if tracker is not None else None
            if fix is not None and timestamp < fix[0]:
                # Older than what we already know — a retransmit that lost
                # the race.  It carries no new information; drop it.
                self.stale_lus_dropped += 1
                if self._instrumented:
                    self._t_stale_dropped.inc()
                return
            if node_id in self._quarantined:
                self._quarantined.discard(node_id)
                self.resyncs += 1
                if self._instrumented:
                    self._t_resyncs.inc()
                self._telemetry.event(
                    Severity.INFO,
                    "node resynced",
                    source=self.name,
                    node=node_id,
                )
                # Fresh tracker: smoothing state from before a long outage
                # describes a trajectory the node abandoned long ago.
                tracker = None
            previous = self.location_db.latest(node_id)
            if previous is not None and timestamp < previous.time:
                # The DB already holds a newer (estimated) record; feed the
                # tracker — a real fix always beats an estimate — but keep
                # the DB's time ordering intact.
                skip_db = True
        if tracker is None:
            tracker = self._trackers[node_id] = self._tracker_factory()
        cap = update.dth if update.dth > 0 else None
        # Map-matched trackers additionally consume the LU's region tag.
        if self._maybe_map_matched and isinstance(tracker, MapMatchedTracker):
            tracker.update(
                timestamp,
                update.position,
                update.velocity,
                displacement_cap=cap,
                region_id=update.region_id or None,
            )
        else:
            tracker.update(
                timestamp, update.position, update.velocity, displacement_cap=cap
            )
        if not skip_db:
            if record is None:
                record = LocationRecord(
                    node_id=node_id,
                    time=timestamp,
                    position=update.position,
                    source=RecordSource.RECEIVED,
                )
            # Inlined LocationDB.store (same checks, counters and history
            # bookkeeping): this path runs once per LU per broker, and the
            # store frame was a measurable slice of the whole simulation.
            db = self.location_db
            latest = db._latest
            previous = latest.get(node_id)
            if previous is not None and timestamp < previous.time:
                raise ValueError(
                    f"record for {node_id} at {timestamp} is older than "
                    f"latest ({previous.time})"
                )
            latest[node_id] = record
            history = db._history.get(node_id)
            if history is None:
                history = db._history[node_id] = deque(maxlen=db._history_length)
            history.append(record)
            db.stored_received += 1
            if db._instrumented:
                db._t_received.inc()
                db._t_nodes.set(len(latest))
        self._updated_since_tick.add(node_id)

    # -- the estimation sweep ------------------------------------------------
    def tick(self, now: float) -> int:
        """Estimate positions for nodes silent since the last tick.

        Returns how many estimates were stored.  The paper's broker "waits
        for the LU from the ADF; ... if the grid broker does not receive
        the LU, then the grid broker estimates the location of the MN".
        """
        estimated = 0
        staleness_max = 0.0
        instrumented = self._instrumented
        updated = self._updated_since_tick
        if not instrumented and len(updated) == len(self._trackers):
            # Every known node reported this interval (the ideal lane's
            # steady state): nothing to estimate and no staleness gauge to
            # feed, so the sweep is a no-op.
            updated.clear()
            return 0
        store = self.location_db.store
        degraded = self._degraded_mode
        max_age = self._max_extrapolation_age
        quarantine_age = self._quarantine_age
        for node_id, tracker in self._trackers.items():
            if instrumented and tracker.last_fix is not None:
                t_fix, _ = tracker.last_fix
                age = now - t_fix
                if age > staleness_max:
                    staleness_max = age
            if node_id in updated:
                continue
            fix = tracker.last_fix
            if fix is None:
                continue
            if degraded:
                t_fix, fix_position = fix
                age = now - t_fix
                if quarantine_age is not None and age > quarantine_age:
                    if node_id not in self._quarantined:
                        self._quarantined.add(node_id)
                        self.quarantines += 1
                        if instrumented:
                            self._t_quarantined.inc()
                        self._telemetry.event(
                            Severity.WARNING,
                            "node quarantined",
                            source=self.name,
                            node=node_id,
                            age=age,
                        )
                    # A quarantined node gets no estimates: fabricating
                    # records for a node we have effectively lost would
                    # poison every consumer of the location DB.
                    continue
                if max_age is not None and age > max_age:
                    # Decay: past the extrapolation budget the velocity
                    # belief is stale; anchor to the last received fix.
                    position = fix_position
                else:
                    position = tracker.predict(now)
            else:
                position = tracker.predict(now)
            if instrumented:
                self._t_invocations.inc()
            store(
                LocationRecord(
                    node_id=node_id,
                    time=now,
                    position=position,
                    source=RecordSource.ESTIMATED,
                )
            )
            estimated += 1
        self.estimates_made += estimated
        if instrumented:
            self._t_estimates.inc(estimated)
            self._t_staleness.set(staleness_max)
        self._updated_since_tick.clear()
        return estimated

    # -- state snapshots -----------------------------------------------------
    def state_dict(self) -> dict:
        """Complete broker state as JSON-safe values.

        Covers the location DB (latest records + counters), every tracker's
        smoothing state, the quarantine/updated-since-tick sets and the
        broker counters.  :meth:`load_state` on a freshly-constructed broker
        with the same config reproduces ``receive_update``/``tick``/
        ``believed_position`` behaviour bit-exactly — the contract the
        serving layer's shard snapshots (``repro.serving.durability``) rely
        on.  Raises :class:`TypeError` when a tracker family has no state
        codec (kalman/arima/map-matched).
        """
        return {
            "db": self.location_db.state_dict(),
            "estimates_made": self.estimates_made,
            "quarantined": sorted(self._quarantined),
            "quarantines": self.quarantines,
            "resyncs": self.resyncs,
            "stale_lus_dropped": self.stale_lus_dropped,
            "trackers": {
                node_id: tracker.state_dict()
                for node_id, tracker in sorted(self._trackers.items())
            },
            "updated_since_tick": sorted(self._updated_since_tick),
            "updates_received": self.updates_received,
        }

    def load_state(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict` bit-exactly.

        The broker must have been constructed with the same config as the
        one that produced *state* (config itself is not serialized — it is
        the restoring owner's responsibility, mirroring how the serving
        store rebuilds shards from its own ``ServingConfig``).
        """
        self.location_db.load_state(state["db"])
        self._trackers.clear()
        for node_id, tracker_state in state["trackers"].items():
            self._trackers[node_id] = tracker_from_state(tracker_state)
        self._updated_since_tick.clear()
        self._updated_since_tick.update(state["updated_since_tick"])
        self._quarantined.clear()
        self._quarantined.update(state["quarantined"])
        self.estimates_made = int(state["estimates_made"])
        self.quarantines = int(state["quarantines"])
        self.resyncs = int(state["resyncs"])
        self.stale_lus_dropped = int(state["stale_lus_dropped"])
        self.updates_received = int(state["updates_received"])

    # -- queries ------------------------------------------------------------------
    def believed_position(self, node_id: str, now: float | None = None) -> Vec2 | None:
        """The broker's best current belief of a node's position.

        Prefers a live tracker prediction at *now* when available (fresher
        than the last stored record); otherwise the latest DB record.
        Under graceful degradation, quarantined (or quarantine-aged) nodes
        yield ``None`` and predictions past the extrapolation budget decay
        to the last received fix.
        """
        tracker = self._trackers.get(node_id)
        if self._degraded_mode:
            if node_id in self._quarantined:
                return None
            fix = tracker.last_fix if tracker is not None else None
            if fix is not None and now is not None:
                t_fix, fix_position = fix
                age = now - t_fix
                if self._quarantine_age is not None and age > self._quarantine_age:
                    return None
                if (
                    self._max_extrapolation_age is not None
                    and age > self._max_extrapolation_age
                ):
                    return fix_position
        if tracker is not None and tracker.has_fix and now is not None:
            return tracker.predict(now)
        return self.location_db.position_of(node_id)

    def known_nodes(self) -> list[str]:
        """Every node the broker has ever heard from."""
        return list(self._trackers)

    def fix_age(self, node_id: str, now: float) -> float | None:
        """Seconds since the node's last *received* LU (None if never).

        Estimated records do not refresh the age — staleness measures how
        long the broker has been extrapolating, which a scheduler may use
        to discount unreliable placements.
        """
        tracker = self._trackers.get(node_id)
        if tracker is None or tracker.last_fix is None:
            return None
        t_fix, _ = tracker.last_fix
        return max(now - t_fix, 0.0)

    def quarantined_nodes(self) -> list[str]:
        """Nodes currently quarantined (sorted; graceful degradation only)."""
        return sorted(self._quarantined)

    def is_quarantined(self, node_id: str) -> bool:
        """True while *node_id* is quarantined."""
        return node_id in self._quarantined

    def stale_nodes(self, now: float, *, max_age: float) -> list[str]:
        """Nodes whose last received LU is older than *max_age* seconds."""
        out = []
        for node_id in self._trackers:
            age = self.fix_age(node_id, now)
            if age is not None and age > max_age:
                out.append(node_id)
        return out

    def tracker(self, node_id: str) -> LocationTracker | None:
        """The node's tracker (tests and diagnostics)."""
        return self._trackers.get(node_id)
