"""Struct-of-arrays BSAS clustering for the columnar engine.

:class:`ColumnarClusterer` re-implements :class:`SequentialClusterer`
(paper §3.2.1) over parallel per-slot columns instead of ``Cluster`` /
``MotionFeature`` objects.  Centroid state — member count, speed sum and
(when ``direction_weight > 0``) the cos/sin heading sums — lives in
parallel lists indexed by *slot*, and nodes are integer rows.

One sequential step, ``ColumnarClusterer._place``, is the only BSAS
placement: ``assign``, ``unassign``, the exact bulk sweep and batched
mode's out-of-range rows all run it.

Two placement modes:

* **exact** (the default) preserves BSAS's sequential semantics to the
  bit: nodes are placed one at a time in stream order, each placement
  sees the centroids exactly as the previous placement left them, ties
  resolve to the earliest-created cluster, and every float op matches
  the scalar path's op (``|s - c|`` subtract/abs, ``sum/n`` divides,
  ``max(·, 0.0)`` clamps, ``atan2`` centroid directions).  The parity
  suite locks this against :class:`SequentialClusterer` on random
  streams, and the golden determinism fixture locks the engine on top
  of it.  The nearest-centroid search is a plain scan of the slot
  list: the workloads settle at a few dozen slots, where a numpy call
  costs more than the comparisons it would replace.

* **batched** trades the per-node sequencing for epoch-chunked bulk
  assignment: each chunk of nodes is assigned against the centroids as
  *frozen at the start of the chunk* (a first-nearest scan over the
  few slots, one column of distances at a time),
  joins are applied with ``bincount``, and only out-of-range nodes run
  the exact sequential step (creating clusters as BSAS would).
  This is the ROADMAP's "batch or approximate it" path for the 1M-node
  rung; it is *not* bit-identical to exact mode, and the quality gate
  (``tests/core/test_columnar_clustering.py``) bounds its LU-reduction
  and RMSE drift against exact mode at 10k nodes by
  :data:`BATCHED_REDUCTION_TOLERANCE` / :data:`BATCHED_RMSE_TOLERANCE`.

Slot lifecycle: slots are append-only while clusters live; an emptied
cluster leaves an ``inf``-speed tombstone (never matched by the
nearest-centroid search) so live slots keep their creation order — the
property BSAS tie-breaking and ``np.argmin``'s first-occurrence rule
both rely on.  Tombstones are compacted away (with an O(capacity)
node-slot remap) only when they outnumber the live clusters by
:data:`_COMPACT_SLACK`.

Per-node columns: the slot (int32, -1 = unassigned) and the speed
contribution of every node, plus its cos/sin heading contributions when
headings are tracked.  They are numpy arrays, except during an exact
sweep, which turns them into lists for its loop and back after it.

Nodes are integer indices ``0 .. capacity-1`` (the columnar engine's row
numbers), not string ids.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from typing import Any

import numpy as np

from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "BATCHED_REDUCTION_TOLERANCE",
    "BATCHED_RMSE_TOLERANCE",
    "ColumnarClusterer",
]

_INF = math.inf
_TWO_PI = 2.0 * math.pi

#: Compact tombstoned slots once they outnumber live clusters by this
#: many — compaction costs an O(capacity) remap, so it must stay rare.
_COMPACT_SLACK = 32

#: Batched-mode epoch sizes: the first chunk is small so the sequential
#: step that seeds the initial centroids stays cheap; later chunks
#: amortise the numpy call overhead over many rows.
_SEED_CHUNK = 4_096
_EPOCH_CHUNK = 65_536

#: Declared batched-vs-exact quality tolerances (the satellite quality
#: test asserts them at 10k nodes): absolute drift of the LU-reduction
#: fraction, and relative drift of the with-LE RMSE.
BATCHED_REDUCTION_TOLERANCE = 0.02
BATCHED_RMSE_TOLERANCE = 0.15


class ColumnarClusterer:
    """BSAS over integer node rows with struct-of-arrays centroids.

    Mirrors :class:`SequentialClusterer`'s parameters and placement
    semantics (``alpha`` similarity bound, optional direction weighting,
    ``max_clusters`` saturation that forces out-of-range nodes into
    their nearest cluster).  The cos/sin heading sums are maintained
    only when ``direction_weight > 0`` (:attr:`track_directions`): the
    speed-only distance never reads them, so it skips two trig calls
    and two column writes per placement.
    """

    def __init__(
        self,
        alpha: float,
        *,
        capacity: int,
        direction_weight: float = 0.0,
        max_clusters: int | None = None,
        mode: str = "exact",
    ) -> None:
        check_positive(alpha, "alpha")
        check_non_negative(direction_weight, "direction_weight")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_clusters is not None and max_clusters < 1:
            raise ValueError(f"max_clusters must be >= 1, got {max_clusters}")
        if mode not in ("exact", "batched"):
            raise ValueError(f"mode must be 'exact' or 'batched', got {mode!r}")
        self.alpha = alpha
        self.capacity = capacity
        self.direction_weight = direction_weight
        self.max_clusters = max_clusters
        self.mode = mode
        self.track_directions = direction_weight > 0.0
        self._ids = itertools.count(1)
        # Per-slot centroid columns; a tombstoned slot has count 0 / speed
        # inf.  The heading columns stay empty unless directions are tracked.
        self._count: list[int] = []
        self._speed_sum: list[float] = []
        self._cspeed: list[float] = []
        self._cid: list[int] = []
        self._dirx_sum: list[float] = []
        self._diry_sum: list[float] = []
        self._cdir: list[float] = []
        self._live = 0
        # Per-node membership: slot index (-1 = unassigned) plus the
        # exact feature contributions to subtract on removal.
        self._node_slot: Any = np.full(capacity, -1, dtype=np.int32)
        self._node_speed: Any = np.zeros(capacity)
        self._node_cx: Any = None
        self._node_cy: Any = None
        if self.track_directions:
            self._node_cx = np.zeros(capacity)
            self._node_cy = np.zeros(capacity)

    # -- queries -------------------------------------------------------------
    def cluster_count(self) -> int:
        """Number of live clusters."""
        return self._live

    def cluster_sizes(self) -> list[int]:
        """Member counts of the live clusters, in creation order."""
        return [c for c in self._count if c > 0]

    def cluster_ids(self) -> list[int]:
        """Ids of the live clusters, in creation order."""
        return [
            cid for cid, c in zip(self._cid, self._count) if c > 0
        ]

    def cluster_of(self, node: int) -> int | None:
        """The id of the cluster *node* belongs to, if any."""
        slot = self._node_slot[node]
        return self._cid[slot] if slot >= 0 else None

    def assigned_count(self) -> int:
        """Number of currently clustered nodes."""
        return sum(c for c in self._count if c > 0)

    def centroid_speed(self, cluster_id: int) -> float:
        """Mean member speed of a live cluster (KeyError when unknown)."""
        slot = self._slot_of(cluster_id)
        return self._cspeed[slot]

    def centroid_direction(self, cluster_id: int) -> float:
        """Circular-mean heading of a live cluster's members.

        Only available when ``track_directions`` is on — without the
        heading sums there is nothing to reconstruct the angle from.
        """
        if not self.track_directions:
            raise ValueError(
                "centroid directions are not tracked "
                "(construct with direction_weight > 0)"
            )
        slot = self._slot_of(cluster_id)
        return self._cdir[slot]

    def _slot_of(self, cluster_id: int) -> int:
        for slot, cid in enumerate(self._cid):
            if cid == cluster_id and self._count[slot] > 0:
                return slot
        raise KeyError(f"no live cluster {cluster_id}")

    # -- single-node operations ----------------------------------------------
    def assign(self, node: int, speed: float, direction: float) -> tuple[int, bool]:
        """Place one node per BSAS; returns ``(cluster_id, moved)``.

        ``moved`` is true when the node was already clustered and ended
        in a *different* cluster — the signal the reassignment counters
        consume.  Always runs the exact sequential step, regardless of
        ``mode`` (batching is a property of the bulk sweep, not of a
        single placement).
        """
        moves = self._place((node,), (False,), (speed,), (direction,), None)
        return self._cid[self._node_slot[node]], moves > 0

    def unassign(self, node: int) -> None:
        """Remove a node from its cluster (no-op when unassigned)."""
        self._place((node,), (True,), (0.0,), (0.0,), None)

    def clear(self) -> None:
        """Drop every cluster and assignment (cluster ids keep counting)."""
        self._count.clear()
        self._speed_sum.clear()
        self._cspeed.clear()
        self._cid.clear()
        self._dirx_sum.clear()
        self._diry_sum.clear()
        self._cdir.clear()
        self._live = 0
        self._node_slot.fill(-1)

    # -- the BSAS step --------------------------------------------------------
    def _place(
        self,
        rows: Iterable[int],
        stops: Iterable[bool],
        speeds: Iterable[float],
        directions: Iterable[float],
        avg: list[float] | None,
    ) -> int:
        """Run the sequential BSAS step over *rows*, in order.

        Row ``k`` is node ``rows[k]`` with stopped flag ``stops[k]``,
        speed ``speeds[k]`` and heading ``directions[k]`` (read only when
        headings are tracked).  Each node leaves its cluster; a stopped
        node stays out, a moving one joins its nearest cluster when that
        is closer than ``alpha`` (or ``max_clusters`` is reached) and
        founds a new one otherwise.  When *avg* is given, ``avg[node]``
        receives the node's cluster mean speed right after its placement
        (stopped nodes are left alone).  Returns the reassignment count.

        Every float op matches :class:`SequentialClusterer`'s, and the
        nearest slot is the first minimum, so ties go to the
        earliest-created cluster and tombstones (speed inf) never win.
        """
        node_slot = self._node_slot
        node_speed = self._node_speed
        node_cx = self._node_cx
        node_cy = self._node_cy
        alpha = self.alpha
        maxc = self.max_clusters
        weight = self.direction_weight
        track = self.track_directions
        # _tombstone and _compact rewrite these columns in place, so the
        # locals stay valid; only the live count is handed back and forth.
        counts = self._count
        ssums = self._speed_sum
        cspeed = self._cspeed
        cids = self._cid
        dxs = self._dirx_sum
        dys = self._diry_sum
        cdir = self._cdir
        live = self._live
        moves = 0
        for i, stopped, s, direction in zip(rows, stops, speeds, directions):
            old_cid = -1
            slot = node_slot[i]
            if slot >= 0:
                node_slot[i] = -1
                old_cid = cids[slot]
                cnt = counts[slot] - 1
                if cnt:
                    counts[slot] = cnt
                    total = ssums[slot] - node_speed[i]
                    ssums[slot] = total
                    cs = total / cnt
                    cspeed[slot] = cs if cs >= 0.0 else 0.0
                    if track:
                        dx = dxs[slot] - node_cx[i]
                        dy = dys[slot] - node_cy[i]
                        dxs[slot] = dx
                        dys[slot] = dy
                        cdir[slot] = math.atan2(dy / cnt, dx / cnt)
                else:
                    self._live = live
                    self._tombstone(slot)
                    live = self._live
            if stopped:
                continue
            best = -1
            best_d = _INF
            if track:
                cx = math.cos(direction)
                cy = math.sin(direction)
                for j, cv in enumerate(cspeed):
                    d = s - cv
                    if d < 0.0:
                        d = -d
                    # Inlined angle_difference (wrap into (-pi, pi]).
                    theta = math.fmod(direction - cdir[j], _TWO_PI)
                    if theta <= -math.pi:
                        theta += _TWO_PI
                    elif theta > math.pi:
                        theta -= _TWO_PI
                    d += weight * (theta if theta >= 0.0 else -theta)
                    if d < best_d:
                        best_d = d
                        best = j
            else:
                for j, cv in enumerate(cspeed):
                    d = s - cv
                    if d < 0.0:
                        d = -d
                    if d < best_d:
                        best_d = d
                        best = j
            if best >= 0 and (
                best_d < alpha or (maxc is not None and live >= maxc)
            ):
                cnt = counts[best] + 1
                counts[best] = cnt
                total = ssums[best] + s
                ssums[best] = total
                cs = total / cnt
                cs = cs if cs >= 0.0 else 0.0
                cspeed[best] = cs
                if track:
                    dx = dxs[best] + cx
                    dy = dys[best] + cy
                    dxs[best] = dx
                    dys[best] = dy
                    cdir[best] = math.atan2(dy / cnt, dx / cnt)
            else:
                best = len(counts)
                counts.append(1)
                ssums.append(s)
                cs = s if s >= 0.0 else 0.0
                cspeed.append(cs)
                cids.append(next(self._ids))
                if track:
                    dxs.append(cx)
                    dys.append(cy)
                    cdir.append(math.atan2(cy, cx))
                live += 1
            node_slot[i] = best
            node_speed[i] = s
            if track:
                node_cx[i] = cx
                node_cy[i] = cy
            if avg is not None:
                avg[i] = cs
            if old_cid >= 0 and old_cid != cids[best]:
                moves += 1
        self._live = live
        return moves

    def _tombstone(self, slot: int) -> None:
        self._count[slot] = 0
        self._cspeed[slot] = _INF
        if self.track_directions:
            self._cdir[slot] = 0.0
        self._live -= 1
        if len(self._count) - self._live > max(self._live, _COMPACT_SLACK):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned slots in place, preserving live creation order."""
        keep = [s for s, c in enumerate(self._count) if c > 0]
        # The trailing entry maps slot -1 (unassigned) to itself.
        remap = [-1] * (len(self._count) + 1)
        for new, old in enumerate(keep):
            remap[old] = new
        columns = [self._count, self._speed_sum, self._cspeed, self._cid]
        if self.track_directions:
            columns += [self._dirx_sum, self._diry_sum, self._cdir]
        for column in columns:
            column[:] = [column[s] for s in keep]
        # The slot column is a list inside an exact sweep and an array
        # otherwise; _place holds it in a local, so remap it in place.
        slots = self._node_slot
        if isinstance(slots, list):
            slots[:] = [remap[s] for s in slots]
        else:
            slots[:] = np.array(remap, dtype=slots.dtype)[slots]

    # -- the bulk sweep -------------------------------------------------------
    def place_all(
        self,
        stop: np.ndarray,
        speeds: np.ndarray,
        directions: np.ndarray | None,
        avg: np.ndarray | None = None,
    ) -> int:
        """Place every node for one step; returns the reassignment count.

        *stop* is the boolean stopped-mask (SS nodes are unassigned, the
        paper clusters "every MN except MN in the SS"); *speeds* /
        *directions* are the per-node window means (*directions* may be
        ``None`` when headings are untracked — the speed-only distance
        never reads them).  When *avg* is given, ``avg[i]`` receives the
        node's cluster average speed as it stood right after its own
        placement (0.0 for stopped nodes) — the per-node DTH input.  In
        batched mode the per-node sequencing is replaced by the epoch
        semantics described in the module docstring, and ``avg`` carries
        the post-chunk centroid speed instead.
        """
        if self.track_directions and directions is None:
            raise ValueError("directions are required when headings are tracked")
        if self.mode == "batched":
            return self._place_all_batched(stop, speeds, directions, avg)
        n = len(stop)
        avg_list = None if avg is None else [0.0] * n
        # The sequential loop runs on list columns: Python indexes a list
        # far faster than an array.  The arrays take the result back.
        names = ["_node_slot", "_node_speed"]
        if self.track_directions:
            names += ["_node_cx", "_node_cy"]
        arrays = [getattr(self, name) for name in names]
        for name, array in zip(names, arrays):
            setattr(self, name, array.tolist())
        moves = self._place(
            range(n),
            stop.tolist(),
            speeds.tolist(),
            directions.tolist() if self.track_directions else itertools.repeat(0.0),
            avg_list,
        )
        for name, array in zip(names, arrays):
            array[:] = getattr(self, name)
            setattr(self, name, array)
        if avg is not None:
            avg[:] = avg_list
        return moves

    # -- batched mode ---------------------------------------------------------
    def _place_all_batched(
        self,
        stop: np.ndarray,
        speeds: np.ndarray,
        directions: np.ndarray | None,
        avg: np.ndarray | None,
    ) -> int:
        """Epoch-chunked assignment against frozen centroids.

        Per chunk: every chunk member leaves its old cluster (bulk
        ``bincount`` subtraction), the moving members are assigned to
        their nearest *start-of-chunk* centroid (:meth:`_nearest`),
        in-range joins apply as one ``bincount`` addition, and
        only out-of-range rows run the sequential step :meth:`_place`.
        The slot columns are arrays within a chunk and lists around the
        sequential step (there are only a few dozen slots).  ``avg`` rows
        receive the post-chunk centroid speed of the cluster each node
        landed in.
        """
        n = len(stop)
        moving = ~stop
        track = self.track_directions
        speed_arr = np.asarray(speeds, dtype=np.float64)
        if track:
            dir_arr = np.asarray(directions, dtype=np.float64)
        node_slot = self._node_slot
        node_speed = self._node_speed
        node_cx = self._node_cx
        node_cy = self._node_cy
        # Slot -1 (unassigned) indexes the trailing -1.
        old_cids = np.array(self._cid + [-1])[node_slot]
        start = 0
        while start < n:
            size = _SEED_CHUNK if start == 0 and self._live == 0 else _EPOCH_CHUNK
            end = min(n, start + size)
            rows = np.arange(start, end)
            counts, ssums, cspeed, dirx, diry = self._slot_arrays()
            m = len(counts)
            # Freeze the start-of-chunk centroids BEFORE the bulk leave:
            # a cluster whose members all sit in this chunk would otherwise
            # hit count 0, read INF, and dump every member onto the
            # sequential step.  Frozen pre-leave values keep it joinable
            # (the mini-batch convention) and the sequential step rare.
            frozen = cspeed
            frozen_live = int(np.count_nonzero(counts > 0))
            # Leave old clusters (stopped and moving rows alike).
            assigned = rows[node_slot[rows] >= 0]
            if assigned.size:
                slots = node_slot[assigned]
                counts -= np.bincount(slots, minlength=m)
                ssums -= np.bincount(slots, weights=node_speed[assigned], minlength=m)
                if track:
                    dirx -= np.bincount(slots, weights=node_cx[assigned], minlength=m)
                    diry -= np.bincount(slots, weights=node_cy[assigned], minlength=m)
                node_slot[assigned] = -1
                cspeed = self._refresh(counts, ssums)
            move_rows = rows[moving[rows]]
            if move_rows.size:
                s = speed_arr[move_rows]
                if frozen_live:
                    heading = cdir = None
                    if track:
                        heading = dir_arr[move_rows]
                        cdir = np.arctan2(
                            diry / np.maximum(counts, 1),
                            dirx / np.maximum(counts, 1),
                        )
                    best, best_d = self._nearest(s, frozen, heading, cdir)
                    saturated = (
                        self.max_clusters is not None
                        and frozen_live >= self.max_clusters
                    )
                    join = (best_d < self.alpha) | saturated
                else:
                    best = np.zeros(move_rows.size, dtype=np.int64)
                    join = np.zeros(move_rows.size, dtype=bool)
                joiners = move_rows[join]
                if joiners.size:
                    jslots = best[join]
                    counts += np.bincount(jslots, minlength=m)
                    ssums += np.bincount(
                        jslots, weights=speed_arr[joiners], minlength=m
                    )
                    if track:
                        jcx = np.cos(dir_arr[joiners])
                        jcy = np.sin(dir_arr[joiners])
                        node_cx[joiners] = jcx
                        node_cy[joiners] = jcy
                        dirx += np.bincount(jslots, weights=jcx, minlength=m)
                        diry += np.bincount(jslots, weights=jcy, minlength=m)
                    node_slot[joiners] = jslots
                    node_speed[joiners] = speed_arr[joiners]
                # Out-of-range rows: the sequential step, in row order.
                # It sees the joined sums but the post-leave mean speeds.
                outliers = move_rows[~join]
                self._store_slots(counts, ssums, cspeed, dirx, diry)
                self._place(
                    outliers.tolist(),
                    itertools.repeat(False),
                    speed_arr[outliers].tolist(),
                    dir_arr[outliers].tolist() if track else itertools.repeat(0.0),
                    None,
                )
                # Post-chunk centroid refresh (joins can revive a cluster
                # that emptied during the leave phase, so recount live).
                counts, ssums, _, dirx, diry = self._slot_arrays()
                cspeed = self._refresh(counts, ssums)
            self._store_slots(counts, ssums, cspeed, dirx, diry)
            start = end
        if avg is not None:
            np.take(np.array(self._cspeed + [0.0]), node_slot, out=avg)
        new_cids = np.array(self._cid + [-1])[node_slot]
        return int(np.count_nonzero((old_cids >= 0) & (old_cids != new_cids)))

    def _nearest(
        self, speeds: np.ndarray, centroids: np.ndarray, headings: Any, cdir: Any
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each row's nearest slot (``np.argmin``'s first on a tie) and its
        distance, ``|s - c|`` plus the weighted wrapped heading gap to the
        slots' directions *cdir* when *headings* are given, scanned one
        slot at a time."""
        best = np.zeros(speeds.size, dtype=np.intp)
        best_d = np.full(speeds.size, _INF)
        for slot, centroid in enumerate(centroids.tolist()):
            d = np.abs(speeds - centroid)
            if headings is not None:
                theta = np.fmod(headings - cdir[slot], _TWO_PI)
                theta = np.where(theta <= -math.pi, theta + _TWO_PI, theta)
                theta = np.where(theta > math.pi, theta - _TWO_PI, theta)
                d = d + self.direction_weight * np.abs(theta)
            np.putmask(best, d < best_d, slot)
            np.minimum(best_d, d, out=best_d)
        return best, best_d

    def _slot_arrays(self) -> tuple[np.ndarray, ...]:
        """The slot columns as arrays: counts, sums, means, heading sums."""
        return (
            np.array(self._count, dtype=np.int64),
            np.array(self._speed_sum, dtype=np.float64),
            np.array(self._cspeed, dtype=np.float64),
            np.array(self._dirx_sum, dtype=np.float64),
            np.array(self._diry_sum, dtype=np.float64),
        )

    def _store_slots(
        self,
        counts: np.ndarray,
        ssums: np.ndarray,
        cspeed: np.ndarray,
        dirx: np.ndarray,
        diry: np.ndarray,
    ) -> None:
        """Write slot arrays back to the lists, deriving the headings."""
        self._count = counts.tolist()
        self._speed_sum = ssums.tolist()
        self._cspeed = cspeed.tolist()
        if self.track_directions:
            self._dirx_sum = dirx.tolist()
            self._diry_sum = diry.tolist()
            n = np.maximum(counts, 1)
            self._cdir = np.where(
                counts > 0, np.arctan2(diry / n, dirx / n), 0.0
            ).tolist()

    def _refresh(self, counts: np.ndarray, ssums: np.ndarray) -> np.ndarray:
        """Recount live slots; their mean speeds, inf for the tombstones."""
        live = counts > 0
        self._live = int(np.count_nonzero(live))
        return np.where(live, np.maximum(ssums / np.maximum(counts, 1), 0.0), _INF)
