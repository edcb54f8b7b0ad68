"""Whole-population mobility classification (columnar Fig. 2).

:class:`ColumnarClassifier` replays :class:`MobilityClassifier`'s sliding
windows as ring buffers of shape ``(window, nodes)`` and classifies every
node per step with array operations.  The numerics replicate the object
path exactly in *exact* kernel mode:

* the speed ring shares one scalar write pointer (every node is observed
  every step), so the deque order oldest -> newest is a plain row walk;
* the direction rings are ragged (only moving observations append), with
  per-node pointers and masked accumulation chains that add ring slots in
  the same left-to-right order Python's ``sum`` walks the deque;
* variance terms use the kernel's ``pow2`` (``x ** 2`` is C ``pow``, not
  a multiply) and the circular std uses the kernel's hypot/log.

The per-node window statistics the cluster manager needs (mean speed,
mean heading components, moving-observation count) are cached on the
instance after every :meth:`observe`.
"""

from __future__ import annotations

import numpy as np

from repro.core.classifier import ClassifierConfig
from repro.core.columnar.kernels import MathKernel
from repro.core.columnar.state import PATTERN_CODES
from repro.mobility.states import MobilityState

__all__ = ["ColumnarClassifier"]

_STOP = PATTERN_CODES[MobilityState.STOP]
_RANDOM = PATTERN_CODES[MobilityState.RANDOM]
_LINEAR = PATTERN_CODES[MobilityState.LINEAR]


class ColumnarClassifier:
    """SS / RMS / LMS classification over columnar observation windows."""

    def __init__(
        self, config: ClassifierConfig, n: int, kernel: MathKernel
    ) -> None:
        self.config = config
        self.n = n
        self.kernel = kernel
        window = config.window
        self._window = window
        # Speed ring: all nodes observe every step, so the write pointer
        # and fill count are scalars shared by the whole population.
        self._speed_ring = np.zeros((window, n), dtype=np.float64)
        self._ptr = 0
        self._count = 0
        # Direction rings are ragged: a slot is written only when the
        # observation moves (speed > 1e-9), as in MobilityClassifier.observe.
        self._dir_ring_x = np.zeros((window, n), dtype=np.float64)
        self._dir_ring_y = np.zeros((window, n), dtype=np.float64)
        # The narrowest type for pointers and fill counts that also holds
        # the ring walk's start + j < 2 * window.  It is signed: the deque
        # start (dptr - count) % window goes negative before the modulo.
        small = np.min_scalar_type(-2 * window)
        self._dptr = np.zeros(n, dtype=small)
        self.dir_count = np.zeros(n, dtype=small)
        #: Latest label codes (PATTERN_CODES values), one per node.
        self.labels = np.full(n, _RANDOM, dtype=np.int8)
        #: Cached window statistics, refreshed by every observe() — the
        #: cluster features (mean speed, circular-mean heading) read them.
        self.mean_speed = np.zeros(n, dtype=np.float64)
        self.dir_mean_x = np.zeros(n, dtype=np.float64)
        self.dir_mean_y = np.zeros(n, dtype=np.float64)

    @property
    def observations(self) -> int:
        """How many observations every node's speed window holds."""
        return self._count

    # -- the per-step pipeline ----------------------------------------------
    def observe(self, speeds: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Absorb one observation per node and return all label codes.

        Raises :class:`ValueError` on a NaN, infinite or negative speed or
        a non-finite direction, as ``MobilityClassifier.observe`` does,
        before any window changes.
        """
        # Reductions without temporaries (NaN propagates through min and
        # max); only a rejected batch builds a mask to find its bad value.
        if not 0.0 <= speeds.min(initial=0.0) <= speeds.max(initial=0.0) < np.inf:
            good = (speeds >= 0.0) & (speeds < np.inf)
            bad = float(speeds[np.argmin(good)])
            raise ValueError(f"speed must be finite and >= 0, got {bad}")
        low, high = directions.min(initial=0.0), directions.max(initial=0.0)
        if not -np.inf < low <= high < np.inf:
            bad = float(directions[np.argmin(np.isfinite(directions))])
            raise ValueError(f"direction must be finite, got {bad}")
        window = self._window
        self._speed_ring[self._ptr] = speeds
        self._ptr = (self._ptr + 1) % window
        if self._count < window:
            self._count += 1
        moving = speeds > 1e-9
        mcols = np.flatnonzero(moving)
        if mcols.size:
            rows = self._dptr[mcols]
            heading = directions[mcols]
            self._dir_ring_x[rows, mcols] = np.cos(heading)
            self._dir_ring_y[rows, mcols] = np.sin(heading)
            rows += 1
            self._dptr[mcols] = np.where(rows == window, 0, rows)
            np.minimum(self.dir_count + moving, window, out=self.dir_count)
        self._refresh_stats()
        self.labels = self._classify(speeds)
        return self.labels

    def _refresh_stats(self) -> None:
        """Recompute the cached window means in deque order, in place."""
        window = self._window
        count = self._count
        start = (self._ptr - count) % window
        # Left-to-right accumulation over ring rows == Python sum() over
        # the deque: row (start + j) % window holds the j-th oldest entry.
        ssum = self.mean_speed
        ssum.fill(0.0)
        for j in range(count):
            ssum += self._speed_ring[(start + j) % window]
        ssum /= count
        dcount = self.dir_count
        # Unrolled, a node's deque holds positions first .. end - 1 of
        # 0 .. 2 * window - 1, position p in ring row p % window.  Adding
        # whole rows in position order, masked to the nodes holding p, is
        # each deque's left-to-right sum without a per-node gather (a
        # masked-out entry adds +-0.0 to a sum that is never -0.0).
        first = self._dptr - dcount
        first[first < 0] += window
        end = first + dcount
        sx, sy = self.dir_mean_x, self.dir_mean_y
        sx.fill(0.0)
        sy.fill(0.0)
        entry = np.empty(self.n)
        for p in range(int(first.min(initial=window)), int(end.max(initial=0))):
            held = (first <= p) & (end > p)
            for total, ring in ((sx, self._dir_ring_x), (sy, self._dir_ring_y)):
                total += np.multiply(ring[p % window], held, out=entry)
        # A node without a moving observation divides its 0.0 sums by 1.
        dcf = np.maximum(dcount, 1).astype(np.float64)
        sx /= dcf
        sy /= dcf

    def _classify(self, speeds: np.ndarray) -> np.ndarray:
        cfg = self.config
        count = self._count
        if count < cfg.min_observations:
            # Warm-up: the instantaneous rule, vectorised.
            return np.where(
                speeds <= cfg.stop_speed,
                _STOP,
                np.where(speeds > cfg.v_walk, _LINEAR, _RANDOM),
            ).astype(np.int8)
        mean = self.mean_speed
        labels = np.full(self.n, _RANDOM, dtype=np.int8)
        stop = mean <= cfg.stop_speed
        labels[stop] = _STOP
        fast = ~stop & (mean > cfg.v_walk)
        labels[fast] = _LINEAR
        mid = ~stop & ~fast
        if not np.any(mid):
            return labels
        kernel = self.kernel
        if count < 2:
            constant_speed = mid
        else:
            window = self._window
            start = (self._ptr - count) % window
            vsum = np.zeros(self.n, dtype=np.float64)
            for j in range(count):
                dev = self._speed_ring[(start + j) % window] - mean
                vsum += kernel.pow2(dev, out=dev)
            vsum /= count
            constant_speed = mid & (np.sqrt(vsum) <= cfg.speed_std_threshold)
        # Only the constant-speed middle rows can turn LMS, so the heading
        # test runs on them alone.  Fewer than two moving observations
        # show no variation: std 0, under the (positive) threshold.
        rows = np.flatnonzero(constant_speed)
        labels[rows] = _LINEAR
        rows = rows[self.dir_count[rows] >= 2]
        resultant = kernel.hypot(self.dir_mean_x[rows], self.dir_mean_y[rows])
        direction_std = np.zeros(rows.size, dtype=np.float64)
        direction_std[resultant <= 1e-12] = np.inf
        core = np.flatnonzero((resultant > 1e-12) & (resultant < 1.0))
        if core.size:
            direction_std[core] = np.sqrt(-2.0 * kernel.log(resultant[core]))
        labels[rows[direction_std > cfg.direction_std_threshold]] = _RANDOM
        return labels

    def mean_directions(self) -> np.ndarray:
        """Circular-mean heading per node (0.0 with no moving history).

        ``atan2`` of the cached mean heading components — the direction
        half of the cluster feature, matching
        ``MobilityClassifier.feature``.
        """
        # A node without one holds 0.0 means, and atan2(0.0, 0.0) is 0.0.
        return self.kernel.atan2(self.dir_mean_y, self.dir_mean_x)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ColumnarClassifier(n={self.n}, window={self._window}, "
            f"kernel={self.kernel.name})"
        )
