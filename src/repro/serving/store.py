"""The serving layer's region-sharded location store.

Each shard owns one :class:`~repro.broker.broker.GridBroker` running the
PR 4 graceful-degradation policy (bounded extrapolation + quarantine +
reconnect resync), so the store inherits the broker's tolerant ingest
semantics instead of re-inventing them:

* an LU strictly older than the node's last applied fix is dropped as
  stale (the broker's ``stale_lus_dropped`` path);
* an LU older than a just-made *estimate* still feeds the tracker but
  skips the DB write (``skip_db``), keeping every shard's
  :class:`~repro.broker.location_db.LocationDB` time-monotonic;
* nodes silent past the quarantine age are excluded from estimates
  until an LU resyncs them.

On top of that the store adds what a transport-facing service needs:

* deterministic region sharding (CRC32 of the region id — stable across
  processes and ``PYTHONHASHSEED``);
* per-node duplicate suppression by sequence number (an ARQ retransmit
  whose ack was lost arrives twice; replay across shards can reorder) —
  a seq at or below the node's last applied one is never new
  information, because traces order each node's seqs by time;
* a store-level per-node latest pointer, because a moving node's records
  land in whichever shard serves the reporting region.

The store is single-threaded: ingest, sweeps, crashes and restores all
run on the replay loop's thread, so none of them takes a lock.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Any

from repro.broker.broker import BrokerConfig, GridBroker
from repro.broker.location_db import LocationRecord
from repro.geometry import Vec2
from repro.network.messages import LocationUpdate
from repro.telemetry import NULL_TELEMETRY
from repro.util.validation import check_positive

__all__ = ["IngestOutcome", "IngestTally", "ShardedLocationStore", "shard_for"]


def shard_for(region_id: str, shard_count: int) -> int:
    """The shard index serving *region_id* (CRC32 — seed/process stable)."""
    return zlib.crc32(region_id.encode("utf-8")) % shard_count


def _entry_to_update(entry: list[Any]) -> LocationUpdate:
    """Rebuild the LU a ``["lu", ...]`` WAL entry recorded (bit-exact)."""
    _, time, seq, node_id, x, y, vx, vy, region_id, dth = entry
    return LocationUpdate(
        sender=node_id,
        timestamp=float(time),
        seq=int(seq),
        node_id=node_id,
        position=Vec2(float(x), float(y)),
        velocity=Vec2(float(vx), float(vy)),
        region_id=region_id,
        dth=float(dth),
    )


class IngestOutcome(enum.Enum):
    """What became of one submitted LU."""

    APPLIED = "applied"
    DUPLICATE = "duplicate"
    STALE = "stale"
    #: The owning shard is crashed — the record was refused, not lost
    #: silently; callers shed it (and the recovery gate accounts for it).
    DOWN = "down"


@dataclass
class IngestTally:
    """Per-:class:`IngestOutcome` counts for one applied batch."""

    applied: int = 0
    duplicates: int = 0
    stale: int = 0
    down: int = 0

    @property
    def total(self) -> int:
        """Every record the batch offered, regardless of outcome."""
        return self.applied + self.duplicates + self.stale + self.down

    def add(self, outcome: IngestOutcome) -> None:
        """Count one outcome."""
        if outcome is IngestOutcome.APPLIED:
            self.applied += 1
        elif outcome is IngestOutcome.DUPLICATE:
            self.duplicates += 1
        elif outcome is IngestOutcome.STALE:
            self.stale += 1
        else:
            self.down += 1

    def as_dict(self) -> dict[str, int]:
        """Sorted-key-friendly plain dict (for reports)."""
        return {
            "applied": self.applied,
            "down": self.down,
            "duplicates": self.duplicates,
            "stale": self.stale,
        }


class ShardedLocationStore:
    """Region-sharded, reorder/duplicate-tolerant location store."""

    def __init__(
        self,
        shard_count: int = 4,
        *,
        report_interval: float = 1.0,
        max_extrapolation_intervals: float = 10.0,
        quarantine_intervals: float = 30.0,
        smoothing_alpha: float = 0.4,
        use_location_estimator: bool = True,
        telemetry: Any = None,
        name: str = "serving",
    ) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        check_positive(report_interval, "report_interval")
        check_positive(max_extrapolation_intervals, "max_extrapolation_intervals")
        check_positive(quarantine_intervals, "quarantine_intervals")
        self.shard_count = shard_count
        self.name = name
        broker_config = BrokerConfig(
            use_location_estimator=use_location_estimator,
            smoothing_alpha=smoothing_alpha,
            report_interval=report_interval,
            # Both ages set => the brokers run in degraded mode, which is
            # what makes receive_update absorb reordered/late LUs (stale
            # drop + skip_db) instead of raising on them.
            max_extrapolation_age=max_extrapolation_intervals * report_interval,
            quarantine_age=quarantine_intervals * report_interval,
        )
        self._broker_config = broker_config
        self._telemetry = telemetry
        self._shards: list[GridBroker] = [
            GridBroker(
                broker_config,
                telemetry=telemetry,
                name=f"{name}/shard-{index}",
            )
            for index in range(shard_count)
        ]
        #: node -> (seq, time, shard, x, y) of the last *applied* LU: the
        #: duplicate gate (seq), the reorder gate (time), the owning-shard
        #: pointer, and the latest received fix — one dict so the hot path
        #: pays a single lookup and a single write, and so crash recovery
        #: and the convergence export read one structure.
        self._gates: dict[str, tuple[int, float, int, float, float]] = {}
        #: region id -> shard index, written by the gate and read by the
        #: ingest service's routing, so a region's CRC32 is taken until
        #: its first LU is applied, not twice for every LU.
        self._routes: dict[str, int] = {}
        #: Shard indices currently crashed (refusing ingest, skipped by tick).
        self._down: set[int] = set()
        self.applied = 0
        self.duplicates = 0
        self.reordered = 0
        self.down_dropped = 0
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._instrumented = tm.enabled
        self._t_applied = tm.counter("serving.store.applied", store=name)
        self._t_duplicates = tm.counter("serving.store.duplicates", store=name)
        self._t_reordered = tm.counter("serving.store.reordered", store=name)
        self._t_nodes = tm.gauge("serving.store.nodes", store=name)

    # -- ingest ---------------------------------------------------------------
    def apply(self, update: LocationUpdate) -> IngestOutcome:
        """Ingest one LU; returns what the store did with it."""
        node_id = update.node_id
        gate = self._gates.get(node_id)
        if gate is not None and update.seq <= gate[0]:
            # Retransmit or cross-shard reorder of something already
            # applied: per node, trace seqs are issued in time order, so
            # a non-advancing seq cannot carry new information.
            self.duplicates += 1
            if self._instrumented:
                self._t_duplicates.inc()
            return IngestOutcome.DUPLICATE
        timestamp = update.timestamp
        if gate is not None and timestamp < gate[1]:
            # A fresher seq with an older timestamp: the stream was
            # re-stamped inconsistently (or clocks regressed).  Mirror
            # the broker's stale-drop rather than corrupting DB order.
            self.reordered += 1
            if self._instrumented:
                self._t_reordered.inc()
            return IngestOutcome.STALE
        region_id = update.region_id
        shard_index = self._routes.get(region_id)
        if shard_index is None:
            shard_index = shard_for(region_id, self.shard_count)
            self._routes[region_id] = shard_index
        if shard_index in self._down:
            self.down_dropped += 1
            return IngestOutcome.DOWN
        self._shards[shard_index].receive_update(update)
        position = update.position
        self._gates[node_id] = (
            update.seq,
            timestamp,
            shard_index,
            position.x,
            position.y,
        )
        self.applied += 1
        if self._instrumented:
            self._t_applied.inc()
            self._t_nodes.set(len(self._gates))
        return IngestOutcome.APPLIED

    def apply_batch(self, updates: list[LocationUpdate]) -> IngestTally:
        """Ingest a batch; returns per-outcome tallies.

        Recovery and shed accounting read the tally directly instead of
        re-deriving outcome counts from telemetry deltas.
        """
        tally = IngestTally()
        for update in updates:
            tally.add(self.apply(update))
        return tally

    # -- the estimation sweep -------------------------------------------------
    def tick(self, now: float) -> int:
        """Run every shard broker's estimation sweep; returns estimates made.

        This is the PR 4 machinery doing its serving-side job: silent
        nodes get extrapolated (decaying to the last fix past the
        extrapolation budget) and long-silent ones are quarantined.
        """
        if not self._down:
            return sum(shard.tick(now) for shard in self._shards)
        return sum(
            shard.tick(now)
            for index, shard in enumerate(self._shards)
            if index not in self._down
        )

    # -- queries --------------------------------------------------------------
    def latest(self, node_id: str) -> LocationRecord | None:
        """The node's freshest stored record across shards."""
        gate = self._gates.get(node_id)
        if gate is None:
            return None
        return self._shards[gate[2]].location_db.latest(node_id)

    def believed_position(
        self, node_id: str, now: float | None = None
    ) -> Vec2 | None:
        """The owning shard broker's belief (degradation rules included)."""
        gate = self._gates.get(node_id)
        if gate is None:
            return None
        return self._shards[gate[2]].believed_position(node_id, now)

    def shard(self, index: int) -> GridBroker:
        """Direct access to one shard's broker (tests and diagnostics)."""
        return self._shards[index]

    @property
    def node_count(self) -> int:
        """Distinct nodes with at least one applied LU."""
        return len(self._gates)

    # -- durability hooks -----------------------------------------------------
    def shard_gates(self, index: int) -> dict[str, list[Any]]:
        """Snapshot-ready gates of nodes owned by shard *index*.

        ``node -> [seq, time, x, y]`` for every node whose freshest
        applied LU landed in this shard, sorted by node id so snapshot
        bytes are deterministic.
        """
        return {
            node_id: [gate[0], gate[1], gate[3], gate[4]]
            for node_id, gate in sorted(self._gates.items())
            if gate[2] == index
        }

    def export_state(self) -> dict[str, list[Any]]:
        """Per-node latest *applied* fix — the convergence export.

        ``node -> [seq, time, x, y]`` over every node, sorted by id.
        Built from received LUs only (no estimates), so two stores that
        absorbed the same applied stream export byte-identical documents
        even when their estimation sweeps diverged during a down window.
        """
        return {
            node_id: [gate[0], gate[1], gate[3], gate[4]]
            for node_id, gate in sorted(self._gates.items())
        }

    def shard_is_down(self, index: int) -> bool:
        """Whether shard *index* is currently crashed."""
        return index in self._down

    def shard_for_update(self, update: LocationUpdate) -> int:
        """The shard index *update* routes to.

        Reads the route map :meth:`apply` fills, so a region already
        applied once routes without another CRC32.
        """
        region_id = update.region_id
        index = self._routes.get(region_id)
        return shard_for(region_id, self.shard_count) if index is None else index

    def crash_shard(self, index: int) -> list[str]:
        """Kill shard *index*: drop its broker and owned gates.

        Returns the (sorted) node ids whose gates were purged — their
        store-level knowledge now lives only on disk until
        :meth:`restore_shard` replays it back.
        """
        if not 0 <= index < self.shard_count:
            raise ValueError(f"no shard {index} in a {self.shard_count}-shard store")
        if index in self._down:
            raise ValueError(f"shard {index} is already down")
        self._down.add(index)
        self._shards[index] = GridBroker(
            self._broker_config,
            telemetry=self._telemetry,
            name=f"{self.name}/shard-{index}",
        )
        purged = sorted(
            node_id for node_id, gate in self._gates.items() if gate[2] == index
        )
        for node_id in purged:
            del self._gates[node_id]
        return purged

    def restore_shard(
        self,
        index: int,
        *,
        state: dict[str, Any] | None,
        gates: dict[str, Any],
        entries: list[Any],
    ) -> int:
        """Rebuild crashed shard *index* from snapshot + WAL tail.

        *state* (the broker ``state_dict`` at the snapshot point, or
        ``None`` for a cold start) is loaded first, then *entries* are
        replayed in append order — ``lu`` rows through
        ``receive_update`` exactly as originally applied (the WAL holds
        the post-dedup stream, so no gate logic runs) and ``tick``
        boundaries through the broker sweep.  Store-level gates are
        restored *conditionally*: a node that reported through another
        shard while this one was down already has a fresher gate, and
        recovery must not regress it.  Returns the replayed entry count.
        """
        if index not in self._down:
            raise ValueError(f"shard {index} is not down")
        broker = self._shards[index]
        if state is not None:
            broker.load_state(state)
        store_gates = self._gates
        for node_id, row in gates.items():
            seq, timestamp, x, y = row
            existing = store_gates.get(node_id)
            if existing is None or seq > existing[0]:
                store_gates[node_id] = (int(seq), float(timestamp), index, float(x), float(y))
        replayed = 0
        for entry in entries:
            kind = entry[0]
            if kind == "lu":
                update = _entry_to_update(entry)
                broker.receive_update(update)
                node_id = update.node_id
                existing = store_gates.get(node_id)
                if existing is None or update.seq > existing[0]:
                    position = update.position
                    store_gates[node_id] = (
                        update.seq,
                        update.timestamp,
                        index,
                        position.x,
                        position.y,
                    )
            elif kind == "tick":
                broker.tick(float(entry[1]))
            else:
                raise ValueError(f"unknown WAL entry kind {kind!r}")
            replayed += 1
        self._down.discard(index)
        return replayed

    @property
    def estimates_made(self) -> int:
        """Estimated records stored by all shard sweeps."""
        return sum(shard.estimates_made for shard in self._shards)

    @property
    def quarantines(self) -> int:
        """Quarantine transitions across shards."""
        return sum(shard.quarantines for shard in self._shards)

    @property
    def resyncs(self) -> int:
        """Quarantine exits (an LU resynced the node) across shards."""
        return sum(shard.resyncs for shard in self._shards)

    @property
    def broker_stale_dropped(self) -> int:
        """LUs the shard brokers themselves dropped as stale."""
        return sum(shard.stale_lus_dropped for shard in self._shards)

    def shard_sizes(self) -> list[int]:
        """Per-shard DB sizes (distinct nodes per shard), in shard order."""
        return [len(shard.location_db) for shard in self._shards]

    def shard_received(self) -> list[int]:
        """Per-shard RECEIVED record counts, in shard order."""
        return [shard.location_db.stored_received for shard in self._shards]
