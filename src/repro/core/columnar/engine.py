"""The columnar experiment engine: the harness loop as array ops.

:class:`ColumnarExperiment` re-implements the per-step pipeline of
:class:`repro.experiments.harness.MobileGridExperiment` — mobility,
region resolution, association, per-lane filtering, broker estimation and
measurement — over :class:`ColumnarNodeState` columns.  The object
harness remains the reference spec; in *exact* kernel mode with an
:class:`ObjectMobilitySource` this engine is bit-identical to it on
every collected metric (locked by the golden parity test against the
determinism fixture).

Scope: the engine models the paper's ideal substrate — telemetry off, no
fault schedule, lossless zero-latency channels — and honours every other
:class:`ExperimentConfig` field.  :func:`unsupported_reason` is that rule;
``run_experiment`` uses it to pick this engine, and the constructor
rejects a configuration it names instead of silently diverging.

Sequential-to-columnar correspondences worth knowing when reading the
code:

* accumulation chains (fleet speed sum, per-region squared error sums,
  the general-DF global speed average) use :func:`chain_add` /
  :func:`running_chain`, whose ``np.cumsum`` scan is bit-identical to the
  object path's left-to-right ``+=`` loops;
* BSAS cluster placement is inherently sequential (each placement
  mutates the centroid the next node compares against), so it runs the
  struct-of-arrays :class:`ColumnarClusterer` in *exact* mode — same
  sequential semantics, centroids in columns — shared once across all
  ADF lanes, which see identical update streams.  ``cluster_mode=
  "batched"`` swaps in its epoch-chunked approximation for the 1M-node
  rung (and forfeits bit-parity);
* the distance-filter decide, Brown smoother recurrences and tracker
  prediction are one-shot per node per step and vectorise exactly.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from repro.campus import Campus, default_campus
from repro.core.adf import AdfConfig
from repro.core.columnar.brown import predict, update
from repro.core.columnar.classifier import ColumnarClassifier
from repro.core.columnar.clustering import ColumnarClusterer
from repro.core.columnar.kernels import (
    EXACT_KERNEL,
    MathKernel,
    chain_add,
    running_chain,
)
from repro.core.columnar.mobility import MobilitySource, ObjectMobilitySource
from repro.core.columnar.state import PATTERN_CODES
from repro.estimation.metrics import rms_of_squares
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult, LaneResult, RegionErrors
from repro.mobility.population import build_population
from repro.mobility.states import MobilityState
from repro.network.messages import LocationUpdate
from repro.network.traffic import TrafficMeter
from repro.telemetry import Telemetry
from repro.util.rng import RngRegistry
from repro.util.timeseries import TimeSeries

__all__ = [
    "ColumnarExperiment",
    "RegionResolver",
    "df_decide",
    "run_columnar_experiment",
    "unsupported_reason",
]

_STOP = PATTERN_CODES[MobilityState.STOP]


def df_decide(
    x: np.ndarray,
    y: np.ndarray,
    fix_x: np.ndarray,
    fix_y: np.ndarray,
    has_fix: np.ndarray,
    dth: np.ndarray,
    kernel: MathKernel,
) -> np.ndarray:
    """Vectorised ``DistanceFilter.decide`` gate for the whole population.

    Returns the transmit mask: nodes without a reference fix always
    transmit; others transmit when their displacement from the fix
    exceeds their DTH.  Reference bookkeeping is the caller's: the
    engine passes the last fix the lane's broker received, which its
    receive updates at the transmitting rows.
    """
    distance = kernel.hypot(x - fix_x, y - fix_y)
    return ~has_fix | (distance > dth)


class RegionResolver:
    """Vectorised ``Campus.region_at`` plus home-region fallback.

    Built from the campus spatial index's public grid geometry and cell
    table; uses the identical point-to-cell arithmetic, containment
    comparisons and candidate precedence (first containing building,
    else first containing road), so the resolved regions match the
    object path exactly.

    Each cell's candidates are stored in *overwrite* order — roads
    reversed, then buildings reversed — so writing every containing
    candidate's code in turn leaves the highest-precedence one.
    """

    def __init__(self, campus: Campus) -> None:
        index = campus.spatial_index
        #: Region ids by code.  The last, ``""``, is "no region": the home
        #: of a node that has none (a classic-model node), which an
        #: unresolved node falls back to, as its LU does in the harness.
        self.region_ids: list[str] = [*campus.regions, ""]
        self.code_of: dict[str, int] = {
            rid: i for i, rid in enumerate(self.region_ids)
        }
        #: The narrowest signed dtype holding every region code and -1.
        self.code_dtype = np.min_scalar_type(-len(self.region_ids))
        self.is_road = np.asarray(
            [region.is_road for region in campus.regions.values()] + [False],
            dtype=bool,
        )
        (
            self._x_min,
            self._x_max,
            self._y_min,
            self._y_max,
            self._cell_w,
            self._cell_h,
        ) = index.grid_geometry()
        self._nx, self._ny = index.grid_shape
        # The narrowest unsigned dtype holding every cell index (and an
        # axis index of nx or ny before clipping): the stable argsort then
        # runs as a radix sort on 1-2 byte keys.
        self._cell_dtype = np.min_scalar_type(self._nx * self._ny)
        code_of = self.code_of
        self._cells: list[tuple[tuple[float, float, float, float, int], ...]] = []
        for entries in index.cell_table():
            roads = [e for e in entries if not e[4]]
            buildings = [e for e in entries if e[4]]
            self._cells.append(
                tuple(
                    (x0, x1, y0, y1, code_of[region.region_id])
                    for (x0, x1, y0, y1, _, region) in roads[::-1] + buildings[::-1]
                )
            )

    def _cell_axis(
        self, v: np.ndarray, v_min: float, width: float, n: int
    ) -> np.ndarray:
        """``clip(int((v - v_min) / width), 0, n - 1)`` in the cell dtype.

        *v* is a scratch copy of in-bounds coordinates and is overwritten.
        """
        v -= v_min
        v /= width
        # In-bounds rows scale into [0, n]; the cast truncates like int().
        index = v.astype(self._cell_dtype)
        return np.minimum(index, n - 1, out=index)

    def resolve(
        self, x: np.ndarray, y: np.ndarray, fallback_codes: np.ndarray
    ) -> np.ndarray:
        """Region code per node; *fallback_codes* where no region contains.

        One grouped pass: the in-bounds rows are stable-sorted by grid
        cell, each occupied cell's candidates are tested against its
        contiguous slice of rows, and the hits are scattered back.
        """
        codes = fallback_codes.copy()
        rows = np.flatnonzero(
            (x >= self._x_min)
            & (x <= self._x_max)
            & (y >= self._y_min)
            & (y <= self._y_max)
        )
        if not rows.size:
            return codes
        nx = self._nx
        cell = self._cell_axis(y[rows], self._y_min, self._cell_h, self._ny)
        cell *= nx
        cell += self._cell_axis(x[rows], self._x_min, self._cell_w, nx)
        rows = rows[np.argsort(cell, kind="stable")]
        counts = np.bincount(cell, minlength=nx * self._ny)
        # The per-cell work runs in buffers sized for the fullest cell.
        # Hundreds of per-cell temporaries allocated between the step's
        # megabyte columns fragment the heap: over repeated 1M-node runs
        # freed memory then stays resident and peak RSS creeps up.
        size = int(counts.max())
        cx_buf = np.empty(size)
        cy_buf = np.empty(size)
        hit_buf = np.empty(size, dtype=codes.dtype)
        inside_buf = np.empty(size, dtype=bool)
        test_buf = np.empty(size, dtype=bool)
        start = 0
        for entries, end in zip(self._cells, np.cumsum(counts).tolist()):
            if entries and end > start:
                cell_rows = rows[start:end]
                n = end - start
                cx = np.take(x, cell_rows, out=cx_buf[:n])
                cy = np.take(y, cell_rows, out=cy_buf[:n])
                hit = np.take(codes, cell_rows, out=hit_buf[:n])
                inside = inside_buf[:n]
                test = test_buf[:n]
                for x0, x1, y0, y1, code in entries:
                    # inside = (cx >= x0) & (cx <= x1) & (cy >= y0) & (cy <= y1)
                    np.greater_equal(cx, x0, out=inside)
                    inside &= np.less_equal(cx, x1, out=test)
                    inside &= np.greater_equal(cy, y0, out=test)
                    inside &= np.less_equal(cy, y1, out=test)
                    np.copyto(hit, code, where=inside)
                codes[cell_rows] = hit
            start = end
        return codes


class _BrownBrokerState:
    """Columnar Brown trackers for one with-LE broker: every node believes
    its last fix, except the rows the last :meth:`tick` :attr:`moved`."""

    def __init__(self, n: int, alpha: float) -> None:
        self.alpha = alpha
        self.sp_s1 = np.zeros(n)
        self.sp_s2 = np.zeros(n)
        self.sp_n = np.zeros(n, dtype=np.int32)
        self.dc_s1 = np.zeros(n)
        self.dc_s2 = np.zeros(n)
        self.ds_s1 = np.zeros(n)
        self.ds_s2 = np.zeros(n)
        self.dir_n = np.zeros(n, dtype=np.int32)
        self.last_x = np.zeros(n)
        self.last_y = np.zeros(n)
        self.last_t = np.zeros(n)
        self.cap = np.full(n, np.nan)
        self.known = np.zeros(n, dtype=bool)
        self.moved = np.empty(0, dtype=np.intp)
        self.moved_x = np.empty(0)
        self.moved_y = np.empty(0)

    def receive(
        self,
        idx: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        vx: np.ndarray,
        vy: np.ndarray,
        speeds: np.ndarray,
        dth: np.ndarray,
        now: float,
    ) -> None:
        """Absorb the transmitting rows *idx*."""
        update(self, idx, speeds[idx], vx[idx], vy[idx])
        self.last_x[idx] = x[idx]
        self.last_y[idx] = y[idx]
        self.last_t[idx] = now
        cap = dth[idx]
        cap[~(cap > 0.0)] = np.nan
        self.cap[idx] = cap
        self.known[idx] = True

    def tick(self, now: float, kernel: MathKernel) -> None:
        """Estimate every known-but-silent node (BrownTracker.predict)."""
        # Rows that sent this step hold their fix from *now*.
        idx = np.flatnonzero(self.known & (self.last_t != now))
        self.moved, self.moved_x, self.moved_y = predict(self, idx, now, kernel)


class _LastKnownBrokerState:
    """Columnar no-LE broker: estimates repeat the last received fix.

    Its estimation sweep never moves a believed position, so only the
    receive side exists.  Next to a Brown broker it is a view of that
    broker's last received fixes, which the Brown receive already writes.
    """

    def __init__(
        self, known: np.ndarray, bel_x: np.ndarray, bel_y: np.ndarray
    ) -> None:
        self.known = known
        self.bel_x = bel_x
        self.bel_y = bel_y

    def receive(self, idx: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        self.known[idx] = True
        self.bel_x[idx] = x[idx]
        self.bel_y[idx] = y[idx]


class _AdfBrain:
    """The classify/cluster/DTH pipeline shared by every ADF lane.

    All ADF lanes process the identical update stream (process() runs for
    every LU regardless of the filter outcome), so their classifier and
    cluster state evolve identically — only the DTH factor, distance
    filter and downstream measurement differ.  One brain therefore serves
    all ADF lanes, exactly reproducing each lane's own pipeline.
    """

    def __init__(
        self,
        config: AdfConfig,
        n: int,
        kernel: MathKernel,
        cluster_mode: str = "exact",
    ) -> None:
        self.classifier = ColumnarClassifier(config.classifier, n, kernel)
        self.clusterer = ColumnarClusterer(
            config.alpha,
            capacity=n,
            direction_weight=config.direction_weight,
            max_clusters=config.max_clusters,
            mode=cluster_mode,
        )
        self.recluster_interval = config.recluster_interval
        self.last_recluster = 0.0
        self.reconstructions = 0
        self.reassignments = 0
        #: Cluster average speed captured right after each node's
        #: placement — the sequencing ClusterAverageDth sees (later
        #: placements this step may shift the cluster mean, but each
        #: node's DTH derives from the cluster as it stood at its turn).
        self.avg = np.zeros(n)

    def update(self, speeds: np.ndarray, directions: np.ndarray) -> np.ndarray:
        labels = self.classifier.observe(speeds, directions)
        self.reassignments += self.clusterer.place_all(
            labels == _STOP,
            self.classifier.mean_speed,
            self._mean_directions(),
            self.avg,
        )
        return labels

    def _mean_directions(self) -> np.ndarray | None:
        # The circular means cost an atan2 sweep and the speed-only
        # distance (direction_weight == 0) never reads them.
        if not self.clusterer.track_directions:
            return None
        return self.classifier.mean_directions()

    def tick(self, now: float) -> bool:
        if now - self.last_recluster < self.recluster_interval:
            return False
        self.clusterer.clear()
        # Reconstruction replaces from a clean slate: nothing counts as
        # a reassignment (place_all returns 0 moves) and avg is not
        # re-captured, exactly as the object harness's reconstruct().
        self.clusterer.place_all(
            self.classifier.labels == _STOP,
            self.classifier.mean_speed,
            self._mean_directions(),
            None,
        )
        self.reconstructions += 1
        self.last_recluster = now
        return True

    def cluster_summary(self) -> dict[str, float]:
        sizes = self.clusterer.cluster_sizes()
        return {
            "clusters": float(len(sizes)),
            "clustered_nodes": float(sum(sizes)),
            "mean_size": float(sum(sizes) / len(sizes)) if sizes else 0.0,
            "reconstructions": float(self.reconstructions),
            "reassignments": float(self.reassignments),
        }


class _GdfBrain:
    """The global-average speed state shared by every general-DF lane."""

    def __init__(self) -> None:
        self.speed_sum = 0.0
        self.count = 0

    def observe(self, speeds: np.ndarray) -> np.ndarray:
        """Per-node global average *as of that node's turn* this step."""
        running = running_chain(self.speed_sum, speeds)
        counts = np.arange(
            self.count + 1, self.count + len(speeds) + 1, dtype=np.float64
        )
        avg = running / counts
        self.speed_sum = float(running[-1])
        self.count += len(speeds)
        return avg


class _ColumnarLane:
    """Per-lane filter, meter and broker state in columnar form.

    Each per-node fact is held once.  The ideal lane transmits every row
    every step, so its Location Estimator never has a silent node to
    estimate: one last-known broker serves as both its with-LE and its
    without-LE broker.  An ADF/GDF lane's distance-filter reference and
    its no-LE belief are both the last fix its Brown broker received.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        dth_factor: float | None,
        n: int,
        n_regions: int,
        smoothing_alpha: float,
    ) -> None:
        self.name = name
        self.kind = kind
        self.dth_factor = dth_factor
        self.received = 0
        self.transmitted = 0
        # Traffic-meter accumulators (folded into a TrafficMeter at collect).
        self.m_region = np.zeros(n_regions, dtype=np.int64)
        self.m_node = np.zeros(n, dtype=np.int32)
        self.m_bins: Counter[int] = Counter()
        #: The Location Estimator; the ideal lane has none.
        self.brown: _BrownBrokerState | None = None
        if kind == "ideal":
            self.without_le = _LastKnownBrokerState(
                np.zeros(n, dtype=bool), np.zeros(n), np.zeros(n)
            )
        else:
            brown = self.brown = _BrownBrokerState(n, smoothing_alpha)
            self.without_le = _LastKnownBrokerState(
                brown.known, brown.last_x, brown.last_y
            )
        #: The broker whose beliefs the with-LE error measures.
        self.with_le = self.without_le if self.brown is None else self.brown
        self.rmse_with_le = TimeSeries()
        self.rmse_without_le = TimeSeries()
        self.region_errors_with_le = RegionErrors()
        self.region_errors_without_le = RegionErrors()
        self.cluster_series = TimeSeries()


def unsupported_reason(config: ExperimentConfig) -> str | None:
    """Why :class:`ColumnarExperiment` cannot run *config*, or None if it can.

    The engine needs telemetry off, no fault schedule and a lossless
    zero-latency channel; it honours every other config field.
    """
    if config.telemetry.enabled:
        return "the columnar engine does not support telemetry"
    if config.faults is not None and config.faults:
        return "the columnar engine does not support fault schedules"
    if config.channel_loss != 0.0 or config.channel_latency != 0.0:
        return "the columnar engine models the lossless zero-latency channel only"
    return None


class ColumnarExperiment:
    """The struct-of-arrays evaluation engine."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        campus: Campus | None = None,
        source: MobilitySource | None = None,
        kernel: MathKernel = EXACT_KERNEL,
        cluster_mode: str = "exact",
        lu_observer=None,
    ) -> None:
        self.config = config or ExperimentConfig()
        cfg = self.config
        self.kernel = kernel
        #: Optional LU-stream sink, called once per lane per step as
        #: ``lu_observer(lane_name, now, idx, x, y, vx, vy, codes, dth)``
        #: with the transmitting row indices — the trace recording hook
        #: (:class:`~repro.serving.trace.ColumnarTraceRecorder`).
        self._lu_observer = lu_observer
        reason = unsupported_reason(cfg)
        if reason is not None:
            raise ValueError(f"{reason}; use MobileGridExperiment")
        self.campus = campus or default_campus()
        self.telemetry = Telemetry.from_config(cfg.telemetry)
        if source is None:
            nodes = build_population(
                self.campus, cfg.population, RngRegistry(cfg.seed)
            )
            source = ObjectMobilitySource(nodes)
        self.source = source
        self.state = source.build_state()
        self.node_ids = self.state.node_ids
        n = len(self.state)
        if n == 0:
            raise ValueError("the mobility source produced no nodes")
        self.resolver = RegionResolver(self.campus)
        code_of = self.resolver.code_of
        self._home_codes = np.fromiter(
            (code_of[h] for h in source.home_regions()),
            dtype=self.resolver.code_dtype,
            count=n,
        )
        # Association view (one for the whole experiment, as in the harness).
        self._serving = np.full(n, -1, dtype=self.resolver.code_dtype)
        self.handoffs = 0
        self._speed_sum = 0.0
        self._speed_count = 0
        self._classified_right = 0
        self._classified_total = 0
        n_regions = len(self.resolver.region_ids)
        self._bin_width = min(1.0, cfg.report_interval)
        self._size_bytes = LocationUpdate.size_bytes
        self.lanes: list[_ColumnarLane] = [
            _ColumnarLane("ideal", "ideal", None, n, n_regions, cfg.smoothing_alpha)
        ]
        for factor in cfg.dth_factors:
            self.lanes.append(
                _ColumnarLane(
                    f"adf-{factor:g}", "adf", factor, n, n_regions,
                    cfg.smoothing_alpha,
                )
            )
        if cfg.include_general_df:
            for factor in cfg.dth_factors:
                self.lanes.append(
                    _ColumnarLane(
                        f"gdf-{factor:g}", "gdf", factor, n, n_regions,
                        cfg.smoothing_alpha,
                    )
                )
        self.adf_brain = _AdfBrain(
            cfg.adf_config(cfg.dth_factors[0]), n, kernel, cluster_mode
        )
        self.gdf_brain = _GdfBrain() if cfg.include_general_df else None
        # The ideal lane's DTH: zero for every row, held as one element.
        self._zero_dth = np.broadcast_to(np.float64(0.0), (n,))

    # -- one reporting interval ---------------------------------------------
    def _step(self, now: float) -> None:
        cfg = self.config
        state = self.state
        kernel = self.kernel
        n = len(state)
        self.source.advance(state, cfg.report_interval)
        x, y, vx, vy = state.x, state.y, state.vx, state.vy
        speeds = kernel.hypot(vx, vy)
        # A node at rest has no heading, and the classifier reads the
        # headings of moving nodes only: atan2(+-0, +-0) stands in for it.
        directions = kernel.atan2(vy, vx)
        self._speed_sum = chain_add(self._speed_sum, speeds)
        self._speed_count += n
        codes = self.resolver.resolve(x, y, self._home_codes)
        on_road = self.resolver.is_road[codes]
        # Association: observe() runs only for nodes whose serving region
        # changed; first sight is an association, later changes a handoff.
        changed = codes != self._serving
        if np.any(changed):
            self.handoffs += int(np.count_nonzero(changed & (self._serving != -1)))
            self._serving[changed] = codes[changed]
        labels = self.adf_brain.update(speeds, directions)
        gdf_avg = (
            self.gdf_brain.observe(speeds) if self.gdf_brain is not None else None
        )
        interval = cfg.report_interval
        bin_index = math.ceil(now / self._bin_width) - 1
        if bin_index < 0:
            bin_index = 0
        for lane in self.lanes:
            brown = lane.brown
            if brown is None:
                # The ideal lane transmits every row: whole columns.
                dth_arr = self._zero_dth
                idx = slice(None)
                transmitted = n
            else:
                avg = self.adf_brain.avg if lane.kind == "adf" else gdf_avg
                dth_arr = lane.dth_factor * avg
                dth_arr *= interval
                lane.received += n
                # The filter's reference is the last fix the broker got.
                idx = np.flatnonzero(
                    df_decide(
                        x, y, brown.last_x, brown.last_y, brown.known, dth_arr, kernel
                    )
                )
                transmitted = idx.size
            lane.transmitted += transmitted
            lane.m_region += np.bincount(
                codes[idx], minlength=len(lane.m_region)
            )
            lane.m_node[idx] += 1
            lane.m_bins[bin_index] += transmitted
            if brown is None:
                lane.without_le.receive(idx, x, y)
            else:
                brown.receive(idx, x, y, vx, vy, speeds, dth_arr, now)
            if self._lu_observer is not None:
                self._lu_observer(
                    lane.name, now, np.arange(n)[idx], x, y, vx, vy, codes, dth_arr
                )
        self.adf_brain.tick(now)
        cluster_count = float(self.adf_brain.clusterer.cluster_count())
        for lane in self.lanes:
            if lane.kind == "adf":
                lane.cluster_series.append(now, cluster_count)
            if lane.brown is not None:
                lane.brown.tick(now, kernel)
        self._measure(now, x, y, on_road)
        # Labels are pattern codes, never NO_PATTERN: a match is a valid row.
        self._classified_total += int(np.count_nonzero(state.pattern >= 0))
        self._classified_right += int(np.count_nonzero(labels == state.pattern))

    def _measure(
        self, now: float, x: np.ndarray, y: np.ndarray, on_road: np.ndarray
    ) -> None:
        """Per-lane RMSE and region-error accumulation, full width.

        Every broker knows every node here: the ideal lane transmits all
        rows, and an ADF/GDF lane's filter transmits every row its
        broker does not know yet.  The ideal lane's broker got every
        row's fix this step, so each of its errors is exactly 0.0: its
        sinks take an RMSE of 0.0 and the row counts, and their sums of
        squares stay as they are.  An ADF/GDF lane's last-known broker
        gives its without-LE error.  A Location Estimator moves only the
        beliefs of the rows its tick predicted, so the lane's with-LE
        error is the same array with those rows recomputed.
        """
        kernel = self.kernel
        road = np.flatnonzero(on_road)
        building = np.flatnonzero(~on_road)
        for lane in self.lanes:
            without_le = (lane.rmse_without_le, lane.region_errors_without_le)
            with_le = (lane.rmse_with_le, lane.region_errors_with_le)
            brown = lane.brown
            if brown is None:
                for series, region_errors in (without_le, with_le):
                    region_errors.road_count += road.size
                    region_errors.building_count += building.size
                    series.append(now, 0.0)
                continue
            last = lane.without_le
            sq = kernel.hypot(x - last.bel_x, y - last.bel_y)
            sq *= sq
            _record(now, sq, road, building, *without_le)
            moved = brown.moved
            err = kernel.hypot(x[moved] - brown.moved_x, y[moved] - brown.moved_y)
            sq[moved] = err * err
            _record(now, sq, road, building, *with_le)

    # -- the run -------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Execute the configured duration and collect all measurements.

        The step times replicate the simulator's periodic schedule: the
        first step fires at ``report_interval`` (even past a shorter
        duration, matching the drain of the final in-flight event) and
        subsequent times accumulate by addition while they stay within
        the duration.
        """
        interval = self.config.report_interval
        duration = self.config.duration
        t = interval
        while True:
            self._step(t)
            nxt = t + interval
            if nxt > duration:
                break
            t = nxt
        return self._collect()

    def _collect(self) -> ExperimentResult:
        cfg = self.config
        lanes: dict[str, LaneResult] = {}
        for lane in self.lanes:
            meter = TrafficMeter(lane.name, bin_width=self._bin_width)
            per_region = {
                self.resolver.region_ids[i]: int(count)
                for i, count in enumerate(lane.m_region.tolist())
                if count
            }
            # The run is over: the meter may keep m_node and read it lazily.
            meter.add_counts(
                messages=lane.transmitted,
                total_bytes=lane.transmitted * self._size_bytes,
                per_region=per_region,
                node_counts=(self.node_ids, lane.m_node),
                bins=dict(lane.m_bins),
            )
            summary: dict[str, float] = {}
            if lane.kind == "adf":
                received = lane.received
                suppressed = received - lane.transmitted
                summary = {
                    "received": float(received),
                    "transmitted": float(lane.transmitted),
                    "suppressed": float(suppressed),
                    "suppression_rate": suppressed / received if received else 0.0,
                }
                summary.update(self.adf_brain.cluster_summary())
            lanes[lane.name] = LaneResult(
                name=lane.name,
                dth_factor=lane.dth_factor,
                meter=meter,
                rmse_with_le=lane.rmse_with_le,
                rmse_without_le=lane.rmse_without_le,
                region_errors_with_le=lane.region_errors_with_le,
                region_errors_without_le=lane.region_errors_without_le,
                filter_summary=summary,
                cluster_series=lane.cluster_series,
                kind=lane.kind,
            )
        accuracy = (
            self._classified_right / self._classified_total
            if self._classified_total
            else 0.0
        )
        mean_speed = (
            self._speed_sum / self._speed_count if self._speed_count else 0.0
        )
        return ExperimentResult(
            duration=cfg.duration,
            report_interval=cfg.report_interval,
            node_count=len(self.state),
            lanes=lanes,
            road_region_ids=[r.region_id for r in self.campus.roads()],
            building_region_ids=[r.region_id for r in self.campus.buildings()],
            classification_accuracy=accuracy,
            average_fleet_speed=mean_speed,
            handoffs=self.handoffs,
            telemetry=self.telemetry.snapshot(),
        )


def _record(
    now: float,
    sq: np.ndarray,
    road: np.ndarray,
    building: np.ndarray,
    series: TimeSeries,
    region_errors: RegionErrors,
) -> None:
    """Add squared errors *sq* to *series* (the RMSE at *now*) and to
    *region_errors* (the *road* and *building* rows' squares)."""
    road_sq = sq[road]
    building_sq = sq[building]
    region_errors.road_sq_sum = chain_add(region_errors.road_sq_sum, road_sq)
    region_errors.road_count += road_sq.size
    region_errors.building_sq_sum = chain_add(
        region_errors.building_sq_sum, building_sq
    )
    region_errors.building_count += building_sq.size
    series.append(now, rms_of_squares(sq))


def run_columnar_experiment(
    config: ExperimentConfig | None = None,
    *,
    campus: Campus | None = None,
    source: MobilitySource | None = None,
    kernel: MathKernel = EXACT_KERNEL,
    cluster_mode: str = "exact",
    lu_observer=None,
) -> ExperimentResult:
    """Convenience wrapper: build, run and collect in one call."""
    return ColumnarExperiment(
        config,
        campus=campus,
        source=source,
        kernel=kernel,
        cluster_mode=cluster_mode,
        lu_observer=lu_observer,
    ).run()
