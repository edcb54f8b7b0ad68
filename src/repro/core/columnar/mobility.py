"""Mobility sources feeding the columnar engine.

Two implementations of one protocol:

* :class:`ObjectMobilitySource` steps the real :class:`MobileNode`
  objects and scatters their positions/velocities into the columns.  It
  draws from exactly the same per-node RNG streams as the object
  harness, so the columnar engine on top of it is bit-identical to the
  reference — this is the parity-test configuration.

* :class:`ColumnarMobilitySource` generates the population natively in
  arrays: per-pattern vectorised kernels (SS / RMS / LMS) with batched
  RNG draws from a single seeded generator.  It is seed-deterministic
  in its own right and follows the same Table 1 structure (regions,
  pattern mix, velocity bands), but is a *synthetic* large-scale
  workload, not a bit-replica of the object models — it exists so
  100k–1M-node populations can be stepped at array speed.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.campus import Campus
from repro.mobility.node import MobileNode
from repro.mobility.population import PopulationSpec, table1_spec
from repro.mobility.states import MobilityState
from repro.core.columnar.state import PATTERN_CODES, BlockNodeIds, ColumnarNodeState

__all__ = ["MobilitySource", "ObjectMobilitySource", "ColumnarMobilitySource"]


class MobilitySource(Protocol):
    """Fills the position/velocity columns of a state, one step at a time."""

    def build_state(self) -> ColumnarNodeState:
        """Create the population's initial columnar state."""
        ...  # pragma: no cover - protocol

    def advance(self, state: ColumnarNodeState, dt: float) -> None:
        """Advance every node by *dt*, updating x/y/vx/vy in place."""
        ...  # pragma: no cover - protocol

    def home_regions(self) -> list[str]:
        """Each node's home region id, in node order."""
        ...  # pragma: no cover - protocol


class ObjectMobilitySource:
    """Steps real ``MobileNode`` objects into the columns (reference mode)."""

    def __init__(self, nodes: list[MobileNode]) -> None:
        self.nodes = nodes

    def build_state(self) -> ColumnarNodeState:
        return ColumnarNodeState.from_nodes(self.nodes)

    def home_regions(self) -> list[str]:
        return [node.home_region for node in self.nodes]

    def advance(self, state: ColumnarNodeState, dt: float) -> None:
        x, y = state.x, state.y
        vx, vy = state.vx, state.vy
        for i, node in enumerate(self.nodes):
            sample = node.advance(dt)
            position = sample.position
            velocity = sample.velocity
            x[i] = position.x
            y[i] = position.y
            vx[i] = velocity.x
            vy[i] = velocity.y


class ColumnarMobilitySource:
    """Native array-kernel population for large-scale runs.

    Nodes are laid out per region following the Table 1 proportions of
    *spec*: roads carry LMS humans and vehicles shuttling along the road
    centreline; buildings carry SS (parked), RMS (random walk inside the
    building bounds) and LMS (corridor shuttle) humans.  All stepping is
    whole-population array arithmetic; all randomness comes from one
    seeded ``default_rng`` in a fixed draw order, so runs are exactly
    reproducible for a given (campus, spec, seed).

    Nodes are laid out in contiguous (region, kind) blocks.  Values that
    belong to the map (segment, speed band, bounds) live in per-block
    tables that a per-node block index gathers from, and the node ids
    are derived from the row (:class:`BlockNodeIds`).
    """

    #: Probability an RMS node pauses when it reaches its waypoint, and
    #: the pause-length bound — mirrors ``RandomWalkModel``'s parameters.
    _PAUSE_PROBABILITY = 0.15
    _MAX_PAUSE = 20.0
    #: Relative per-step speed jitter of LMS nodes (``LinearPathModel``).
    _SPEED_JITTER = 0.25

    def __init__(
        self,
        campus: Campus,
        spec: PopulationSpec | None = None,
        *,
        seed: int = 42,
    ) -> None:
        self.campus = campus
        self.spec = spec or table1_spec()
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._build_columns()

    # -- construction --------------------------------------------------------
    def _build_columns(self) -> None:
        spec = self.spec
        linear = PATTERN_CODES[MobilityState.LINEAR]
        random_code = PATTERN_CODES[MobilityState.RANDOM]
        stop = PATTERN_CODES[MobilityState.STOP]
        # One row per block of nodes that share a region, a kind and so
        # every per-map value: (region id, kind, count, pattern code,
        # segment a, segment b, speed band, region bounds).
        blocks = []
        for region in self.campus.roads():
            centerline = region.centerline
            assert centerline is not None
            a = (centerline.waypoints[0].x, centerline.waypoints[0].y)
            b = (centerline.waypoints[-1].x, centerline.waypoints[-1].y)
            bounds = (
                region.bounds.x_min,
                region.bounds.x_max,
                region.bounds.y_min,
                region.bounds.y_max,
            )
            hb = (spec.road_human_band.low, spec.road_human_band.high)
            vb = (spec.road_vehicle_band.low, spec.road_vehicle_band.high)
            rid = region.region_id
            blocks.append(
                (rid, "human", spec.road_humans_per_road, linear, a, b, hb, bounds)
            )
            blocks.append(
                (rid, "vehicle", spec.road_vehicles_per_road, linear, a, b, vb, bounds)
            )
        for region in self.campus.buildings():
            bounds = (
                region.bounds.x_min,
                region.bounds.x_max,
                region.bounds.y_min,
                region.bounds.y_max,
            )
            rid = region.region_id
            if region.corridors:
                corridor = region.corridors[0]
                a = (corridor.waypoints[0].x, corridor.waypoints[0].y)
                b = (corridor.waypoints[-1].x, corridor.waypoints[-1].y)
            else:
                a = (bounds[0], bounds[2])
                b = (bounds[1], bounds[3])
            sb = (spec.building_stop_band.low, spec.building_stop_band.high)
            rb = (spec.building_random_band.low, spec.building_random_band.high)
            lb = (spec.building_linear_band.low, spec.building_linear_band.high)
            blocks.append((rid, "SS", spec.building_stop, stop, a, b, sb, bounds))
            blocks.append(
                (rid, "RMS", spec.building_random, random_code, a, b, rb, bounds)
            )
            blocks.append(
                (rid, "LMS", spec.building_linear, linear, a, b, lb, bounds)
            )

        #: Node ids, derived from the row index: ``f"{rid}-{kind}-{i:06d}"``.
        self.node_ids = BlockNodeIds(
            (f"{rid}-{kind}-", count) for rid, kind, count, *_ in blocks
        )
        self._block_home = [rid for rid, *_ in blocks]
        self._block_count = [count for _, _, count, *_ in blocks]
        # Per-block tables; a node's row in them is self._block[node].
        (
            self._ax, self._ay, bx, by, self._lo, self._hi,
            self._x0, self._x1, self._y0, self._y1,
        ) = np.array(
            [(*a, *b, *band, *bounds) for *_, a, b, band, bounds in blocks],
            dtype=np.float64,
        ).reshape(len(blocks), 10).T.copy()
        self._dx = bx - self._ax
        self._dy = by - self._ay
        self._seg_len = np.hypot(self._dx, self._dy)
        self._seg_len[self._seg_len <= 0.0] = 1.0
        self._block_pattern = np.array([b[3] for b in blocks], dtype=np.int8)
        self._block = np.repeat(
            np.arange(len(blocks), dtype=np.min_scalar_type(-len(blocks))),
            self._block_count,
        )
        block = self._block
        n = len(block)
        pattern = self._block_pattern[block]
        # The rows each kernel steps (intp: numpy indexes with no cast).
        self._linear = np.flatnonzero(pattern == linear)
        self._random = np.flatnonzero(pattern == random_code)
        del pattern
        rng = self._rng
        # LMS: arc-length fraction along the segment plus shuttle direction.
        self._arc = rng.uniform(0.0, 1.0, n)
        self._direction = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
        self._base_speed = rng.uniform(self._lo[block], self._hi[block])
        # RMS: a current waypoint inside the building plus pause state.
        x0, x1 = self._x0[block], self._x1[block]
        self._start_x = rng.uniform(x0, x1)
        y0, y1 = self._y0[block], self._y1[block]
        self._start_y = rng.uniform(y0, y1)
        self._target_x = rng.uniform(x0, x1)
        self._target_y = rng.uniform(y0, y1)
        del x0, x1, y0, y1
        self._walk_speed = rng.uniform(self._lo[block], self._hi[block])
        np.maximum(self._walk_speed, 0.1, out=self._walk_speed)
        self._pause = np.zeros(n)

    def _place_linear(self, state: ColumnarNodeState, arc: np.ndarray) -> None:
        """Put the LMS rows at their arc fraction *arc* along their segment."""
        lin = self._linear
        block = self._block[lin]
        state.x[lin] = self._ax[block] + self._dx[block] * arc
        state.y[lin] = self._ay[block] + self._dy[block] * arc

    # -- the MobilitySource protocol ----------------------------------------
    def build_state(self) -> ColumnarNodeState:
        state = ColumnarNodeState(self.node_ids)
        state.pattern[:] = self._block_pattern[self._block]
        state.x[:] = self._start_x
        state.y[:] = self._start_y
        self._place_linear(state, self._arc[self._linear])
        return state

    def home_regions(self) -> list[str]:
        return [
            rid
            for rid, count in zip(self._block_home, self._block_count)
            for _ in range(count)
        ]

    def advance(self, state: ColumnarNodeState, dt: float) -> None:
        rng = self._rng
        n = len(state)
        x, y, vx, vy = state.x, state.y, state.vx, state.vy
        # Velocities are derived from displacement, as MobileNode.advance
        # derives them from the model step: start from the negated old
        # position, add the new one at the end.
        np.negative(x, out=vx)
        np.negative(y, out=vy)
        # Every row draws every variate, so the stream layout does not
        # depend on the pattern mix; one buffer takes the draws in turn.
        draw = rng.standard_normal(n)
        # LMS: jittered shuttle along the segment, reflecting at the ends.
        # One buffer goes jitter -> speed -> signed arc step.
        lin = self._linear
        block = self._block[lin]
        step = draw[lin]
        step *= self._SPEED_JITTER
        step += 1.0
        np.maximum(step, 0.1, out=step)
        step *= self._base_speed[lin]
        np.clip(step, self._lo[block], self._hi[block], out=step)
        step *= dt
        step /= self._seg_len[block]
        direction = self._direction[lin]
        step *= direction
        arc = self._arc[lin]
        arc += step
        del step
        # Reflect out-of-range arcs back into [0, 1] and flip direction.
        over = arc > 1.0
        under = arc < 0.0
        arc[over] = 2.0 - arc[over]
        arc[under] = -arc[under]
        np.clip(arc, 0.0, 1.0, out=arc)
        over |= under
        np.negative(direction, out=direction, where=over)
        del over, under
        self._arc[lin] = arc
        self._direction[lin] = direction
        self._place_linear(state, arc)
        # RMS: walk toward the waypoint; redraw (maybe pausing) on arrival.
        rows = self._random
        if rows.size:
            rx = x[rows]
            ry = y[rows]
            tx = self._target_x[rows]
            ty = self._target_y[rows]
            pause = self._pause[rows]
            moving = pause <= 0.0
            pause -= dt
            np.maximum(pause, 0.0, out=pause)
            dx = tx - rx
            dy = ty - ry
            dist = np.hypot(dx, dy)
            travel = self._walk_speed[rows] * dt
            reach = moving & (travel >= dist)
            partial = moving & ~reach
            # Partial moves have dist > travel > 0: scale = travel / dist.
            scale = travel[partial] / dist[partial]
            rx[partial] += dx[partial] * scale
            ry[partial] += dy[partial] * scale
            del dx, dy, dist, travel, scale
            rx[reach] = tx[reach]
            ry[reach] = ty[reach]
            x[rows] = rx
            y[rows] = ry
            # Arrivals: the next waypoint and maybe a pause, drawn as
            # Generator.uniform draws: lo + (hi - lo) * random().
            arrived = rows[reach]
            block = self._block[arrived]
            for target, lo, hi in (
                (self._target_x, self._x0[block], self._x1[block]),
                (self._target_y, self._y0[block], self._y1[block]),
            ):
                target[arrived] = lo + (hi - lo) * rng.random(out=draw)[arrived]
            pausing = rng.random(out=draw)[arrived] < self._PAUSE_PROBABILITY
            length = rng.random(out=draw)[arrived[pausing]]
            pause[np.flatnonzero(reach)[pausing]] = 1.0 + (self._MAX_PAUSE - 1) * length
            self._pause[rows] = pause
        vx += x
        vx /= dt
        vy += y
        vy /= dt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ColumnarMobilitySource(n={len(self.node_ids)}, seed={self.seed})"
