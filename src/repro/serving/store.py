"""The serving layer's region-sharded location store, held as columns.

Each shard is a :class:`ColumnShard`: the state of a degraded-mode
:class:`~repro.broker.broker.GridBroker` (bounded extrapolation +
quarantine + reconnect resync) kept as one array per field and one row
per node, so a whole flush window is gated, smoothed and written with
array operations.  The shard follows the broker's tolerant ingest rules
exactly:

* an LU strictly older than the node's last applied fix is dropped as
  stale (the broker's ``stale_lus_dropped`` path);
* an LU older than a just-made *estimate* still feeds the tracker but
  skips the DB write (``skip_db``), keeping every shard's location DB
  time-monotonic;
* nodes silent past the quarantine age are excluded from estimates
  until an LU resyncs them, with fresh smoothing state.

The Location Estimator is Brown's double exponential smoothing of speed
and heading (:mod:`repro.core.columnar.brown`, exact kernel), or the
last-known rule when ``use_location_estimator`` is off.  A shard's
:meth:`ColumnShard.state_dict` is the ``GridBroker.state_dict`` document
of the same history, the view parity checks compare; snapshots carry the
columns themselves (:meth:`ColumnShard.image`).

On top of that the store adds what a transport-facing service needs:

* deterministic region sharding (CRC32 of the region id — stable across
  processes and ``PYTHONHASHSEED``);
* per-node duplicate suppression by sequence number (an ARQ retransmit
  whose ack was lost arrives twice; replay across shards can reorder) —
  a seq at or below the node's last applied one is never new
  information, because traces order each node's seqs by time;
* a store-level per-node gate (last applied seq, time, fix and owning
  shard), because a moving node's records land in whichever shard
  serves the reporting region.

A batch is applied in *rounds*: round ``r`` holds each node's ``r``-th
row of the batch, so within a round every node appears once and the
gate, the smoother and the DB write of all its rows are independent
array operations; rounds run in order, so each node sees its rows in
batch order.

The store is single-threaded: ingest, sweeps, crashes and restores all
run on the replay loop's thread, so none of them takes a lock.
"""

from __future__ import annotations

import enum
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.broker.location_db import LocationRecord, RecordSource
from repro.core.columnar.brown import predict, update
from repro.core.columnar.kernels import EXACT_KERNEL
from repro.geometry import Vec2
from repro.network.messages import LocationUpdate
from repro.serving.trace import TraceBatch
from repro.telemetry import NULL_TELEMETRY, Severity
from repro.util.validation import check_in_range, check_positive

__all__ = [
    "ColumnShard", "IngestOutcome", "ShardImage", "ShardedLocationStore", "shard_for"
]

#: ``db_src`` codes of a shard's location DB rows (0: no record).
_RECEIVED = 1
_ESTIMATED = 2
_SOURCES = {_RECEIVED: RecordSource.RECEIVED, _ESTIMATED: RecordSource.ESTIMATED}

#: The location DB's history length a broker snapshot records.
_HISTORY_LENGTH = 128

#: The broker counters a shard image carries.
_COUNTERS = (
    "updates_received", "estimates_made", "quarantines", "resyncs",
    "stale_lus_dropped", "stored_received", "stored_estimated",
)


@dataclass
class ShardImage:
    """One shard's snapshot content, as columns.

    ``columns`` holds the shard's row columns, one entry per ``node_ids``
    row (``code`` and ``born`` aside: a restore renumbers them), and the
    store gates ``gate_seq``, ``gate_time``, ``gate_x`` and ``gate_y``,
    one entry per ``gate_ids`` node the shard owns.
    """

    node_ids: list[str]
    columns: dict[str, NDArray[Any]]
    counters: dict[str, int]
    #: The trackers' kind (``"brown"`` or ``"last_known"``) and alpha.
    kind: str
    alpha: float
    gate_ids: list[str] = field(default_factory=list)


def shard_for(region_id: str, shard_count: int) -> int:
    """The shard index serving *region_id* (CRC32 — seed/process stable)."""
    return zlib.crc32(region_id.encode("utf-8")) % shard_count


class IngestOutcome(enum.IntEnum):
    """What became of one submitted LU (the codes :meth:`apply` returns)."""

    APPLIED = 0
    DUPLICATE = 1
    STALE = 2
    #: The owning shard is crashed — the record was refused, not lost
    #: silently; callers shed it (and the recovery gate accounts for it).
    DOWN = 3


def _rounds(codes: NDArray[Any]) -> list[NDArray[Any]]:
    """Positions of *codes* grouped by per-code occurrence rank.

    Round ``r`` lists, in ascending order, the position of each code's
    ``r``-th occurrence.
    """
    m = len(codes)
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    if len(starts) == m:
        return [np.arange(m)]
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m) - np.repeat(starts, np.diff(np.append(starts, m)))
    by_round = np.argsort(rank, kind="stable")
    return np.split(by_round, np.cumsum(np.bincount(rank))[:-1])


class _Growable:
    """Row columns that grow by doubling; new rows take each column's fill."""

    #: column name -> (dtype, fill value of a fresh row)
    _COLUMNS: dict[str, tuple[Any, Any]] = {}

    def _init_columns(self, capacity: int) -> None:
        for name, (dtype, fill) in self._COLUMNS.items():
            setattr(self, name, np.full(capacity, fill, dtype=dtype))

    def _grow(self, need: int) -> None:
        capacity = len(getattr(self, next(iter(self._COLUMNS))))
        if need <= capacity:
            return
        capacity = max(need, 2 * capacity)
        for name, (dtype, fill) in self._COLUMNS.items():
            old = getattr(self, name)
            new = np.full(capacity, fill, dtype=dtype)
            new[: len(old)] = old
            setattr(self, name, new)


class ColumnShard(_Growable):
    """One shard's location DB, trackers and broker counters, as columns.

    Each row is one node, and ``row_of`` maps the store's node codes to
    rows; ``born`` orders the rows as a broker orders its trackers, by
    when the shard first heard of the node (quarantine events follow
    it).  Each node's tracker is Brown's (or the last-known rule) over
    ``sp_*`` (speed), ``dc_*``/``ds_*`` (heading cos/sin) and its last
    fix, next to its latest DB record (``db_*``, ``db_src``) and its
    quarantine/updated-since-tick flags.
    """

    code: NDArray[Any]
    born: NDArray[Any]
    known: NDArray[Any]
    upd_n: NDArray[Any]
    sp_s1: NDArray[Any]
    sp_s2: NDArray[Any]
    sp_n: NDArray[Any]
    dc_s1: NDArray[Any]
    dc_s2: NDArray[Any]
    ds_s1: NDArray[Any]
    ds_s2: NDArray[Any]
    dir_n: NDArray[Any]
    last_t: NDArray[Any]
    last_x: NDArray[Any]
    last_y: NDArray[Any]
    cap: NDArray[Any]
    db_t: NDArray[Any]
    db_x: NDArray[Any]
    db_y: NDArray[Any]
    db_src: NDArray[Any]
    updated: NDArray[Any]
    quarantined: NDArray[Any]

    _COLUMNS = {
        "code": (np.int64, -1),
        "born": (np.int64, 0),
        "known": (bool, False),
        "upd_n": (np.int64, 0),
        "sp_s1": (np.float64, 0.0),
        "sp_s2": (np.float64, 0.0),
        "sp_n": (np.int64, 0),
        "dc_s1": (np.float64, 0.0),
        "dc_s2": (np.float64, 0.0),
        "ds_s1": (np.float64, 0.0),
        "ds_s2": (np.float64, 0.0),
        "dir_n": (np.int64, 0),
        "last_t": (np.float64, 0.0),
        "last_x": (np.float64, 0.0),
        "last_y": (np.float64, 0.0),
        "cap": (np.float64, np.nan),
        "db_t": (np.float64, 0.0),
        "db_x": (np.float64, 0.0),
        "db_y": (np.float64, 0.0),
        "db_src": (np.int8, 0),
        "updated": (bool, False),
        "quarantined": (bool, False),
    }

    def __init__(
        self,
        store: "ShardedLocationStore",
        *,
        telemetry: Any,
        name: str,
    ) -> None:
        self.name = name
        self.alpha = store.smoothing_alpha
        self._brown = store.use_location_estimator
        self._max_age = store.max_extrapolation_age
        self._quarantine_age = store.quarantine_age
        self._codes = store._codes
        self._ids = store._ids
        self._codes_of = store._codes_of
        self._init_columns(16)
        self.row_of = np.full(max(len(self._ids), 16), -1, dtype=np.int64)
        self.n = 0
        self._born_next = 0
        self.updates_received = 0
        self.estimates_made = 0
        self.quarantines = 0
        self.resyncs = 0
        self.stale_lus_dropped = 0
        self.stored_received = 0
        self.stored_estimated = 0
        #: Nodes with a location DB record.
        self.db_nodes = 0
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._telemetry = tm
        self._instrumented = tm.enabled
        self._t_received = tm.counter("broker.lu_received", broker=name)
        self._t_estimates = tm.counter("broker.estimates_made", broker=name)
        self._t_invocations = tm.counter("broker.estimator_invocations", broker=name)
        self._t_staleness = tm.gauge("broker.staleness_max", broker=name)
        self._t_quarantined = tm.counter("broker.quarantined", broker=name)
        self._t_resyncs = tm.counter("broker.resyncs", broker=name)
        self._t_stale_dropped = tm.counter("broker.stale_lus_dropped", broker=name)
        self._t_db_received = tm.counter("broker.db.stored_received", db=name)
        self._t_db_estimated = tm.counter("broker.db.stored_estimated", db=name)
        self._t_db_nodes = tm.gauge("broker.db.nodes", db=name)
        #: (batch positions, node codes) of resyncs awaiting their events.
        self._resynced: list[tuple[NDArray[Any], NDArray[Any]]] = []

    # -- rows -----------------------------------------------------------------
    def reserve_codes(self, count: int) -> None:
        """Make ``row_of`` cover store node codes below *count*."""
        if count > len(self.row_of):
            grown = np.full(max(count, 2 * len(self.row_of)), -1, dtype=np.int64)
            grown[: len(self.row_of)] = self.row_of
            self.row_of = grown

    def _add_rows(self, codes: NDArray[Any], born: NDArray[Any]) -> NDArray[Any]:
        """Append fresh rows for store node *codes*; returns the rows."""
        start = self.n
        stop = start + len(codes)
        self._grow(stop)
        rows = np.arange(start, stop)
        self.code[rows] = codes
        self.born[rows] = born
        self.row_of[codes] = rows
        self.n = stop
        return rows

    def _row(self, node_id: str) -> int:
        """The node's row, or -1 when this shard never heard of it."""
        code = self._codes.get(node_id)
        if code is None or code >= len(self.row_of):
            return -1
        return int(self.row_of[code])

    def __len__(self) -> int:
        """Nodes with a location DB record."""
        return self.db_nodes

    # -- ingest ---------------------------------------------------------------
    def receive(
        self,
        codes: NDArray[Any],
        positions: NDArray[Any],
        time: NDArray[Any],
        x: NDArray[Any],
        y: NDArray[Any],
        vx: NDArray[Any],
        vy: NDArray[Any],
        dth: NDArray[Any],
    ) -> None:
        """``GridBroker.receive_update`` for one LU each of distinct nodes.

        *codes* are store node codes, *positions* the rows' places in
        their batch (they order new rows and resync events).
        """
        rows = self.row_of[codes]
        new = rows < 0
        if new.any():
            rows[new] = self._add_rows(codes[new], self._born_next + positions[new])
        count = len(rows)
        self.updates_received += count
        instrumented = self._instrumented
        if instrumented:
            self._t_received.inc(count)
        stale = self.known[rows] & (time < self.last_t[rows])
        if stale.any():
            # Older than what we already know — a retransmit that lost
            # the race.  It carries no new information; drop it.
            dropped = int(stale.sum())
            self.stale_lus_dropped += dropped
            if instrumented:
                self._t_stale_dropped.inc(dropped)
            keep = ~stale
            rows, codes, positions = rows[keep], codes[keep], positions[keep]
            time, x, y, vx, vy, dth = (
                time[keep], x[keep], y[keep], vx[keep], vy[keep], dth[keep]
            )
            if not len(rows):
                return
        resync = self.quarantined[rows]
        if resync.any():
            again = rows[resync]
            self.quarantined[again] = False
            self.resyncs += len(again)
            if instrumented:
                self._t_resyncs.inc(len(again))
                self._resynced.append((positions[resync], codes[resync]))
            # Fresh tracker: smoothing state from before a long outage
            # describes a trajectory the node abandoned long ago.
            for column in (
                self.sp_s1, self.sp_s2, self.dc_s1, self.dc_s2, self.ds_s1, self.ds_s2
            ):
                column[again] = 0.0
            self.sp_n[again] = 0
            self.dir_n[again] = 0
            self.upd_n[again] = 0
        # The DB already holds a newer (estimated) record: feed the
        # tracker — a real fix always beats an estimate — but keep the
        # DB's time ordering intact.
        write = ~((self.db_src[rows] != 0) & (time < self.db_t[rows]))
        if self._brown:
            update(self, rows, EXACT_KERNEL.hypot(vx, vy), vx, vy)
        self.last_t[rows] = time
        self.last_x[rows] = x
        self.last_y[rows] = y
        self.cap[rows] = np.where(dth > 0.0, dth, np.nan)
        self.upd_n[rows] += 1
        self.known[rows] = True
        self.updated[rows] = True
        if not write.all():
            rows, time, x, y = rows[write], time[write], x[write], y[write]
        if len(rows):
            self.db_nodes += int(np.count_nonzero(self.db_src[rows] == 0))
            self.db_t[rows] = time
            self.db_x[rows] = x
            self.db_y[rows] = y
            self.db_src[rows] = _RECEIVED
            self.stored_received += len(rows)
            if instrumented:
                self._t_db_received.inc(len(rows))
                self._t_db_nodes.set(self.db_nodes)

    def end_batch(self, size: int) -> None:
        """Close one applied batch of *size* rows: emit its resync events
        in batch order and move the new-row order key past it."""
        self._born_next += size
        if self._resynced:
            positions = np.concatenate([p for p, _ in self._resynced])
            codes = np.concatenate([c for _, c in self._resynced])
            self._resynced.clear()
            ids = self._ids
            for code in codes[np.argsort(positions)].tolist():
                self._telemetry.event(
                    Severity.INFO, "node resynced", source=self.name, node=ids[code]
                )

    # -- the estimation sweep -------------------------------------------------
    def tick(self, now: float) -> int:
        """``GridBroker.tick``: estimate every silent node; returns how many."""
        n = self.n
        known = self.known[:n]
        updated = self.updated[:n]
        instrumented = self._instrumented
        staleness_max = 0.0
        if instrumented:
            if known.any():
                oldest = float((now - self.last_t[:n][known]).max())
                if oldest > staleness_max:
                    staleness_max = oldest
        elif np.count_nonzero(updated) == np.count_nonzero(known):
            # Every known node reported this interval: nothing to estimate.
            updated[:] = False
            return 0
        silent = np.flatnonzero(known & ~updated)
        age = now - self.last_t[silent]
        lost = age > self._quarantine_age
        if lost.any():
            lost_rows = silent[lost]
            newly = lost_rows[~self.quarantined[lost_rows]]
            if len(newly):
                self.quarantined[newly] = True
                self.quarantines += len(newly)
                if instrumented:
                    self._t_quarantined.inc(len(newly))
                    newly = newly[np.argsort(self.born[newly])]
                    ids = self._ids
                    for row, node_age in zip(
                        newly.tolist(), (now - self.last_t[newly]).tolist()
                    ):
                        self._telemetry.event(
                            Severity.WARNING,
                            "node quarantined",
                            source=self.name,
                            node=ids[self.code[row]],
                            age=node_age,
                        )
            # A quarantined node gets no estimates: fabricating records
            # for a node we have effectively lost would poison every
            # consumer of the location DB.
            silent = silent[~lost]
            age = age[~lost]
        estimated = len(silent)
        if estimated:
            late = (self.db_src[silent] != 0) & (self.db_t[silent] > now)
            if late.any():
                row = int(silent[np.argmax(late)])
                raise ValueError(
                    f"record for {self._ids[self.code[row]]} at {now} is older "
                    f"than latest ({float(self.db_t[row])})"
                )
            # Past the extrapolation budget the velocity belief is stale:
            # the estimate decays to the last received fix.
            self.db_x[silent] = self.last_x[silent]
            self.db_y[silent] = self.last_y[silent]
            if self._brown:
                fresh = silent[~(age > self._max_age)]
                rows, px, py = predict(self, fresh, now, EXACT_KERNEL)
                self.db_x[rows] = px
                self.db_y[rows] = py
            self.db_nodes += int(np.count_nonzero(self.db_src[silent] == 0))
            self.db_t[silent] = now
            self.db_src[silent] = _ESTIMATED
            self.stored_estimated += estimated
            self.estimates_made += estimated
            if instrumented:
                self._t_invocations.inc(estimated)
                self._t_db_estimated.inc(estimated)
                self._t_db_nodes.set(self.db_nodes)
        if instrumented:
            self._t_estimates.inc(estimated)
            self._t_staleness.set(staleness_max)
        updated[:] = False
        return estimated

    # -- queries --------------------------------------------------------------
    def latest(self, node_id: str) -> LocationRecord | None:
        """The node's latest location DB record, if any."""
        row = self._row(node_id)
        if row < 0 or not self.db_src[row]:
            return None
        return LocationRecord(
            node_id=node_id,
            time=float(self.db_t[row]),
            position=Vec2(float(self.db_x[row]), float(self.db_y[row])),
            source=_SOURCES[int(self.db_src[row])],
        )

    def believed_position(self, node_id: str, now: float | None = None) -> Vec2 | None:
        """``GridBroker.believed_position`` (degradation rules included)."""
        row = self._row(node_id)
        if row < 0:
            return None
        if self.quarantined[row]:
            return None
        if self.known[row] and now is not None:
            fix = Vec2(float(self.last_x[row]), float(self.last_y[row]))
            age = now - float(self.last_t[row])
            if age > self._quarantine_age:
                return None
            if age > self._max_age or not self._brown:
                return fix
            moved, px, py = predict(self, np.array([row]), now, EXACT_KERNEL)
            return Vec2(float(px[0]), float(py[0])) if len(moved) else fix
        if not self.db_src[row]:
            return None
        return Vec2(float(self.db_x[row]), float(self.db_y[row]))

    # -- snapshots --------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """The ``GridBroker.state_dict`` document of this shard.

        The parity and diagnostic view of its state; a snapshot carries
        :meth:`image` instead.
        """
        n = self.n
        ids = self._ids
        by_id = sorted((ids[code], row) for row, code in enumerate(self.code[:n].tolist()))
        db_src = self.db_src[:n].tolist()
        db = zip(self.db_t[:n].tolist(), self.db_x[:n].tolist(), self.db_y[:n].tolist())
        latest = [
            [t, x, y, _SOURCES[src].value] if src else None
            for (t, x, y), src in zip(db, db_src)
        ]
        known = self.known[:n].tolist()
        quarantined = self.quarantined[:n].tolist()
        updated = self.updated[:n].tolist()
        trackers = self._tracker_states()
        return {
            "db": {
                "history_length": _HISTORY_LENGTH,
                "latest": {
                    node_id: latest[row] for node_id, row in by_id if db_src[row]
                },
                "stored_estimated": self.stored_estimated,
                "stored_received": self.stored_received,
            },
            "estimates_made": self.estimates_made,
            "quarantined": [node_id for node_id, row in by_id if quarantined[row]],
            "quarantines": self.quarantines,
            "resyncs": self.resyncs,
            "stale_lus_dropped": self.stale_lus_dropped,
            "trackers": {node_id: trackers[row] for node_id, row in by_id if known[row]},
            "updated_since_tick": [
                node_id for node_id, row in by_id if updated[row] and known[row]
            ],
            "updates_received": self.updates_received,
        }

    def _tracker_states(self) -> list[dict[str, Any]]:
        """Every row's ``LocationTracker.state_dict`` (meaningful for known rows)."""
        n = self.n
        kind = "brown" if self._brown else "last_known"
        states = [
            {
                "displacement_cap": None if cap != cap else cap,
                "kind": kind,
                "last_position": [x, y],
                "last_time": t,
                "updates": updates,
            }
            for cap, x, y, t, updates in zip(
                self.cap[:n].tolist(),
                self.last_x[:n].tolist(),
                self.last_y[:n].tolist(),
                self.last_t[:n].tolist(),
                self.upd_n[:n].tolist(),
            )
        ]
        if self._brown:
            alpha = self.alpha
            for state, sp_n, sp_s1, sp_s2, dir_n, dc_s1, dc_s2, ds_s1, ds_s2 in zip(
                states,
                self.sp_n[:n].tolist(),
                self.sp_s1[:n].tolist(),
                self.sp_s2[:n].tolist(),
                self.dir_n[:n].tolist(),
                self.dc_s1[:n].tolist(),
                self.dc_s2[:n].tolist(),
                self.ds_s1[:n].tolist(),
                self.ds_s2[:n].tolist(),
            ):
                state["dir_cos"] = {"alpha": alpha, "n": dir_n, "s1": dc_s1, "s2": dc_s2}
                state["dir_sin"] = {"alpha": alpha, "n": dir_n, "s1": ds_s1, "s2": ds_s2}
                state["speed"] = {"alpha": alpha, "n": sp_n, "s1": sp_s1, "s2": sp_s2}
        return states

    def image(self) -> ShardImage:
        """This shard's rows as a snapshot image (views of the live columns)."""
        n = self.n
        ids = self._ids
        return ShardImage(
            node_ids=[ids[code] for code in self.code[:n].tolist()],
            columns={name: getattr(self, name)[:n] for name in _IMAGE_COLUMNS},
            counters={name: getattr(self, name) for name in _COUNTERS},
            kind="brown" if self._brown else "last_known",
            alpha=self.alpha,
        )

    def load_image(self, image: ShardImage) -> None:
        """Restore a fresh shard from an :meth:`image`.

        Rows are created in a fixed order: tracked nodes by node id, then
        nodes with only a DB record by node id, born in that order
        (quarantine events follow it).
        """
        if self.n:
            raise ValueError(f"{self.name}: load_image needs a fresh shard")
        kind = "brown" if self._brown else "last_known"
        if (image.kind, image.alpha) != (kind, self.alpha):
            raise ValueError(
                f"snapshot trackers ({image.kind!r}, alpha {image.alpha}) do not "
                f"match this shard ({kind!r}, alpha {self.alpha})"
            )
        columns = image.columns
        node_ids = image.node_ids
        known = columns["known"]
        keep = sorted(np.flatnonzero(known).tolist(), key=node_ids.__getitem__)
        keep += sorted(
            np.flatnonzero(~known & (columns["db_src"] != 0)).tolist(),
            key=node_ids.__getitem__,
        )
        rows = self._add_rows(
            self._codes_of([node_ids[row] for row in keep]), np.arange(len(keep))
        )
        self._born_next = len(keep)
        for name in _IMAGE_COLUMNS:
            getattr(self, name)[rows] = columns[name][keep]
        for name in _COUNTERS:
            setattr(self, name, int(image.counters[name]))
        self.db_nodes = int(np.count_nonzero(self.db_src[rows]))
        if self._instrumented:
            self._t_db_nodes.set(self.db_nodes)


#: The row columns a shard image carries.
_IMAGE_COLUMNS = [
    name for name in ColumnShard._COLUMNS if name not in ("code", "born")
]


class ShardedLocationStore(_Growable):
    """Region-sharded, reorder/duplicate-tolerant location store."""

    #: The store-level gate of each node code: its last applied seq,
    #: time and fix, and the shard that applied it (-1: no gate).
    _g_seq: NDArray[Any]
    _g_time: NDArray[Any]
    _g_x: NDArray[Any]
    _g_y: NDArray[Any]
    _g_shard: NDArray[Any]

    _COLUMNS = {
        "_g_seq": (np.int64, 0),
        "_g_time": (np.float64, 0.0),
        "_g_x": (np.float64, 0.0),
        "_g_y": (np.float64, 0.0),
        "_g_shard": (np.int64, -1),
    }

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
        if use_location_estimator:
            check_in_range(smoothing_alpha, "alpha", 0.0, 1.0, inclusive=False)
        self.shard_count = shard_count
        self.name = name
        self.smoothing_alpha = smoothing_alpha
        self.use_location_estimator = use_location_estimator
        self.max_extrapolation_age = max_extrapolation_intervals * report_interval
        self.quarantine_age = quarantine_intervals * report_interval
        if self.quarantine_age < self.max_extrapolation_age:
            raise ValueError(
                "quarantine_age must be >= max_extrapolation_age "
                f"({self.quarantine_age} < {self.max_extrapolation_age})"
            )
        self._telemetry = telemetry
        #: node id -> store node code, and code -> node id.
        self._codes: dict[str, int] = {}
        self._ids: list[str] = []
        self._init_columns(16)
        self._shards = [self._new_shard(index) for index in range(shard_count)]
        #: region id -> shard index (a CRC32 cache).
        self._routes: dict[str, int] = {}
        #: The last batch id tables mapped to store codes / shard indices.
        self._node_map: tuple[tuple[str, ...], NDArray[Any]] | None = None
        self._region_map: tuple[tuple[str, ...], NDArray[Any]] | None = None
        #: Shard indices currently crashed (refusing ingest, skipped by tick).
        self._down: set[int] = set()
        self._gated = 0
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

    def _new_shard(self, index: int) -> ColumnShard:
        return ColumnShard(
            self, telemetry=self._telemetry, name=f"{self.name}/shard-{index}"
        )

    # -- id tables --------------------------------------------------------------
    def _codes_of(self, node_ids: Iterable[str]) -> NDArray[Any]:
        """The store codes of *node_ids*, assigning new ones on first
        sight and sizing the gate and row-map columns to cover them."""
        codes = self._codes
        ids = self._ids
        table = []
        for node_id in node_ids:
            code = codes.get(node_id)
            if code is None:
                code = codes[node_id] = len(ids)
                ids.append(node_id)
            table.append(code)
        self._grow(len(ids))
        for shard in self._shards:
            shard.reserve_codes(len(ids))
        return np.array(table, dtype=np.int64)

    def _node_codes(self, batch: TraceBatch) -> NDArray[Any]:
        """Store codes of *batch*'s node table."""
        mapped = self._node_map
        if mapped is None or mapped[0] is not batch.node_ids:
            mapped = self._node_map = (batch.node_ids, self._codes_of(batch.node_ids))
        return mapped[1]

    def _shard_of(self, region_id: str) -> int:
        index = self._routes.get(region_id)
        if index is None:
            index = self._routes[region_id] = shard_for(region_id, self.shard_count)
        return index

    def _region_shards(self, batch: TraceBatch) -> NDArray[Any]:
        """Shard indices of *batch*'s region table."""
        mapped = self._region_map
        if mapped is None or mapped[0] is not batch.region_ids:
            table = np.array(
                [self._shard_of(region) for region in batch.region_ids], dtype=np.int64
            )
            mapped = self._region_map = (batch.region_ids, table)
        return mapped[1]

    def route(self, batch: TraceBatch) -> NDArray[Any]:
        """The shard index of every row of *batch*."""
        return self._region_shards(batch)[batch.region]

    # -- ingest ---------------------------------------------------------------
    def apply(self, batch: TraceBatch, rows: NDArray[Any]) -> NDArray[Any]:
        """Ingest *batch*'s *rows*, in order; returns each row's
        :class:`IngestOutcome` code.

        All *rows* must route to one shard (a shard queue's flush).
        """
        rows = np.asarray(rows, dtype=np.intp)
        size = len(rows)
        outcome = np.zeros(size, dtype=np.int8)
        if not size:
            return outcome
        index = int(self._region_shards(batch)[batch.region[rows[0]]])
        self._absorb(batch, rows, index, outcome)
        counts = np.bincount(outcome, minlength=4).tolist()
        applied, duplicates, stale, down = counts
        self.applied += applied
        self.duplicates += duplicates
        self.reordered += stale
        self.down_dropped += down
        if self._instrumented:
            if duplicates:
                self._t_duplicates.inc(duplicates)
            if stale:
                self._t_reordered.inc(stale)
            if applied:
                self._t_applied.inc(applied)
                self._t_nodes.set(self._gated)
        return outcome

    def _absorb(
        self,
        batch: TraceBatch,
        rows: NDArray[Any],
        index: int,
        outcome: NDArray[Any] | None,
    ) -> None:
        """Feed *rows* to shard *index* in rounds.

        With *outcome*, rows pass the store gate first: a seq at or below
        the node's gate is a duplicate, an older time a reorder, and a
        down shard refuses the rest; the codes land in *outcome* and the
        applied rows move the gate.  Without it (WAL replay, which holds
        the post-gate stream) every row reaches the shard and moves the
        gate only past its seq.
        """
        shard = self._shards[index]
        down = index in self._down
        codes = self._node_codes(batch)[batch.node[rows]]
        seq = batch.seq[rows]
        time = batch.time[rows]
        x = batch.x[rows]
        y = batch.y[rows]
        vx = batch.vx[rows]
        vy = batch.vy[rows]
        dth = batch.dth[rows]
        g_seq, g_time, g_shard = self._g_seq, self._g_time, self._g_shard
        for p in _rounds(codes):
            g = codes[p]
            gated = g_shard[g] >= 0
            if outcome is not None:
                duplicate = gated & (seq[p] <= g_seq[g])
                # A fresher seq with an older timestamp: the stream was
                # re-stamped inconsistently (or clocks regressed).
                stale = gated & ~duplicate & (time[p] < g_time[g])
                refused = duplicate | stale
                if refused.any():
                    outcome[p[duplicate]] = IngestOutcome.DUPLICATE
                    outcome[p[stale]] = IngestOutcome.STALE
                    keep = ~refused
                    p, g = p[keep], g[keep]
                if down:
                    outcome[p] = IngestOutcome.DOWN
                    continue
            if not len(p):
                continue
            shard.receive(g, p, time[p], x[p], y[p], vx[p], vy[p], dth[p])
            if outcome is None:
                moves = ~gated | (seq[p] > g_seq[g])
                p, g = p[moves], g[moves]
            self._gated += int(np.count_nonzero(g_shard[g] < 0))
            g_seq[g] = seq[p]
            g_time[g] = time[p]
            self._g_x[g] = x[p]
            self._g_y[g] = y[p]
            g_shard[g] = index
        shard.end_batch(len(rows))

    # -- the estimation sweep -------------------------------------------------
    def tick(self, now: float) -> int:
        """Run every live shard's estimation sweep; returns estimates made.

        Silent nodes get extrapolated (decaying to the last fix past the
        extrapolation budget) and long-silent ones are quarantined.
        """
        return sum(
            shard.tick(now)
            for index, shard in enumerate(self._shards)
            if index not in self._down
        )

    # -- queries --------------------------------------------------------------
    def _gate_shard(self, node_id: str) -> ColumnShard | None:
        code = self._codes.get(node_id)
        if code is None or self._g_shard[code] < 0:
            return None
        return self._shards[int(self._g_shard[code])]

    def latest(self, node_id: str) -> LocationRecord | None:
        """The node's latest record in the shard of its last applied LU."""
        shard = self._gate_shard(node_id)
        return None if shard is None else shard.latest(node_id)

    def believed_position(
        self, node_id: str, now: float | None = None
    ) -> Vec2 | None:
        """The owning shard's belief (degradation rules included)."""
        shard = self._gate_shard(node_id)
        return None if shard is None else shard.believed_position(node_id, now)

    def shard(self, index: int) -> ColumnShard:
        """One shard's columns (snapshots, tests and diagnostics)."""
        return self._shards[index]

    @property
    def node_count(self) -> int:
        """Distinct nodes with at least one applied LU."""
        return self._gated

    # -- durability hooks -----------------------------------------------------
    def shard_image(self, index: int) -> ShardImage:
        """Shard *index*'s snapshot content: its rows, and the store gates
        of the nodes whose freshest applied LU landed in it."""
        image = self._shards[index].image()
        owned = np.flatnonzero(self._g_shard[: len(self._ids)] == index)
        image.gate_ids = [self._ids[code] for code in owned.tolist()]
        for name in ("seq", "time", "x", "y"):
            image.columns[f"gate_{name}"] = getattr(self, f"_g_{name}")[owned]
        return image

    def export_state(self) -> dict[str, list[Any]]:
        """Per-node latest *applied* fix — the convergence export.

        ``node -> [seq, time, x, y]`` over every node, sorted by id.
        Built from received LUs only (no estimates), so two stores that
        absorbed the same applied stream export byte-identical documents
        even when their estimation sweeps diverged during a down window.
        """
        codes = np.flatnonzero(self._g_shard[: len(self._ids)] >= 0)
        ids = self._ids
        gates = zip(
            self._g_seq[codes].tolist(),
            self._g_time[codes].tolist(),
            self._g_x[codes].tolist(),
            self._g_y[codes].tolist(),
        )
        return dict(sorted((ids[c], list(g)) for c, g in zip(codes.tolist(), gates)))

    def shard_is_down(self, index: int) -> bool:
        """Whether shard *index* is currently crashed."""
        return index in self._down

    def shard_for_update(self, update: LocationUpdate) -> int:
        """The shard index *update* routes to."""
        return self._shard_of(update.region_id)

    def crash_shard(self, index: int) -> list[str]:
        """Kill shard *index*: drop its columns and owned gates.

        Returns the (sorted) node ids whose gates were purged — their
        store-level knowledge now lives only on disk until
        :meth:`restore_shard` replays it back.
        """
        if not 0 <= index < self.shard_count:
            raise ValueError(f"no shard {index} in a {self.shard_count}-shard store")
        if index in self._down:
            raise ValueError(f"shard {index} is already down")
        self._down.add(index)
        self._shards[index] = self._new_shard(index)
        owned = np.flatnonzero(self._g_shard[: len(self._ids)] == index)
        self._g_shard[owned] = -1
        self._gated -= len(owned)
        return sorted(self._ids[code] for code in owned.tolist())

    def restore_shard(
        self,
        index: int,
        *,
        image: ShardImage | None,
        tail: Sequence[TraceBatch | float],
    ) -> int:
        """Rebuild crashed shard *index* from snapshot + WAL tail.

        *image* (the shard's :meth:`shard_image` at the snapshot point,
        or ``None`` for a cold start) is loaded first, then *tail* is
        replayed in append order — each run of ``lu`` rows (a
        :class:`TraceBatch`) through the same round apply as ingest,
        minus the gate (the WAL holds the post-dedup stream), and each
        ``tick`` time through the sweep.  Store-level gates are restored
        *conditionally*: a node that reported through another shard while
        this one was down already has a fresher gate, and recovery must
        not regress it.  Returns the replayed entry count.
        """
        if index not in self._down:
            raise ValueError(f"shard {index} is not down")
        shard = self._shards[index]
        if image is not None:
            shard.load_image(image)
            codes = self._codes_of(image.gate_ids)
            seq = image.columns["gate_seq"]
            fresher = (self._g_shard[codes] < 0) | (seq > self._g_seq[codes])
            codes = codes[fresher]
            self._gated += int(np.count_nonzero(self._g_shard[codes] < 0))
            for name in ("seq", "time", "x", "y"):
                column = image.columns[f"gate_{name}"]
                getattr(self, f"_g_{name}")[codes] = column[fresher]
            self._g_shard[codes] = index
        replayed = 0
        for run in tail:
            if isinstance(run, TraceBatch):
                self._absorb(run, np.arange(len(run)), index, None)
                replayed += len(run)
            else:
                shard.tick(run)
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
        """LUs the shards themselves dropped as stale."""
        return sum(shard.stale_lus_dropped for shard in self._shards)

    def shard_sizes(self) -> list[int]:
        """Per-shard DB sizes (distinct nodes per shard), in shard order."""
        return [len(shard) for shard in self._shards]

    def shard_received(self) -> list[int]:
        """Per-shard RECEIVED record counts, in shard order."""
        return [shard.stored_received for shard in self._shards]
