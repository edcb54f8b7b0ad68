"""The broker's location database.

Stores one record per MN, its latest: every figure reads only that.
Every record is tagged with its provenance: ``RECEIVED`` (an actual LU
arrived) or ``ESTIMATED`` (the Location Estimator filled a gap while LUs
were being filtered) — the distinction the paper's Fig. 7 analysis
rests on.
"""

from __future__ import annotations

import enum
import types
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.geometry import Vec2
from repro.telemetry import NULL_TELEMETRY

__all__ = ["RecordSource", "LocationRecord", "LocationDB"]


class RecordSource(enum.Enum):
    """Where a location record came from."""

    RECEIVED = "received"
    ESTIMATED = "estimated"


@dataclass(frozen=True, slots=True)
class LocationRecord:
    """One entry of the location DB."""

    node_id: str
    time: float
    position: Vec2
    source: RecordSource

    @property
    def is_estimate(self) -> bool:
        """True when this record was produced by the Location Estimator."""
        return self.source is RecordSource.ESTIMATED


class LocationDB:
    """Latest-record store: one record per node."""

    def __init__(self, *, telemetry: Any = None, name: str = "db") -> None:
        self._latest: dict[str, LocationRecord] = {}
        self._latest_view = types.MappingProxyType(self._latest)
        self.stored_received = 0
        self.stored_estimated = 0
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._instrumented = tm.enabled
        self._t_received = tm.counter("broker.db.stored_received", db=name)
        self._t_estimated = tm.counter("broker.db.stored_estimated", db=name)
        self._t_nodes = tm.gauge("broker.db.nodes", db=name)

    def store(self, record: LocationRecord) -> None:
        """Insert a record; it becomes the node's latest."""
        node_id = record.node_id
        previous = self._latest.get(node_id)
        if previous is not None and record.time < previous.time:
            raise ValueError(
                f"record for {node_id} at {record.time} is older than "
                f"latest ({previous.time})"
            )
        self._latest[node_id] = record
        if record.source is RecordSource.RECEIVED:
            self.stored_received += 1
        else:
            self.stored_estimated += 1
        if self._instrumented:
            if record.source is RecordSource.RECEIVED:
                self._t_received.inc()
            else:
                self._t_estimated.inc()
            self._t_nodes.set(len(self._latest))

    def state_dict(self) -> dict:
        """Latest records and counters as JSON-safe values."""
        return {
            # Kept as a constant: ColumnShard.state_dict emits the same
            # value and the golden renderings pin it.
            "history_length": 128,
            "latest": {
                node_id: [
                    record.time,
                    record.position.x,
                    record.position.y,
                    record.source.value,
                ]
                for node_id, record in sorted(self._latest.items())
            },
            "stored_estimated": self.stored_estimated,
            "stored_received": self.stored_received,
        }

    def latest(self, node_id: str) -> LocationRecord | None:
        """The node's most recent record, if any."""
        return self._latest.get(node_id)

    def position_of(self, node_id: str) -> Vec2 | None:
        """Convenience: the node's latest stored position."""
        record = self._latest.get(node_id)
        return record.position if record else None

    @property
    def latest_map(self) -> Mapping[str, LocationRecord]:
        """Zero-copy read-only view of every node's latest record.

        Bulk consumers (the harness's per-step error measurement) read
        thousands of latest records per simulated second; this view spares
        them a method call and ``None`` dance per node.
        """
        return self._latest_view

    def node_ids(self) -> list[str]:
        """Ids of every node with at least one record."""
        return list(self._latest)

    def __len__(self) -> int:
        return len(self._latest)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._latest

    @property
    def estimate_fraction(self) -> float:
        """Fraction of stored records that were estimates."""
        total = self.stored_received + self.stored_estimated
        return self.stored_estimated / total if total else 0.0
