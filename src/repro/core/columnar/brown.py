"""Brown's double exponential smoothing over columns: the LE's math once.

The paper's Location Estimator smooths each MN's speed and heading with
Brown's double exponential smoothing and dead-reckons silent MNs from
their last fix (:class:`~repro.estimation.tracker.BrownTracker`).  The
columnar engine's lane brokers and the serving store's shards keep that
tracker state as columns; both run the recurrence and the prediction
through the functions here.

The column holder is any object with these float64/int arrays, one row
per node: ``sp_s1``/``sp_s2``/``sp_n`` (speed smoother),
``dc_s1``/``dc_s2``/``ds_s1``/``ds_s2``/``dir_n`` (heading cos/sin
smoothers), ``last_x``/``last_y``/``last_t`` (last fix) and ``cap`` (the
fix's DTH, NaN for none), plus the smoothing constant ``alpha``.  With
:data:`~repro.core.columnar.kernels.EXACT_KERNEL` the results are bit
for bit those of ``BrownTracker``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.columnar.kernels import MathKernel

__all__ = ["smooth", "trend", "update", "predict"]


def smooth(
    s1: np.ndarray,
    s2: np.ndarray,
    rows: np.ndarray,
    value: np.ndarray,
    first: np.ndarray,
    a: float,
) -> None:
    """Brown's double exponential smoothing of *value* at *rows*, in place.

    ``s1 = a v + (1 - a) s1`` then ``s2 = a s1 + (1 - a) s2``; a row's
    *first* observation seeds both with ``v`` (BrownTracker.update).
    *rows* must be distinct.
    """
    b = 1.0 - a
    new1 = s1[rows]
    new1 *= b
    new1 += a * value
    np.copyto(new1, value, where=first)
    s1[rows] = new1
    new2 = s2[rows]
    new2 *= b
    new1 *= a
    new2 += new1
    np.copyto(new2, value, where=first)
    s2[rows] = new2


def trend(s1: np.ndarray, s2: np.ndarray, rows: np.ndarray, q: float) -> np.ndarray:
    """Brown's one-step forecast ``2 s1 - s2 + q (s1 - s2)`` at *rows*."""
    level = s1[rows]
    smooth = s2[rows]
    slope = level - smooth
    slope *= q
    level *= 2.0
    level -= smooth
    level += slope
    return level


def update(
    state: Any,
    rows: np.ndarray,
    speed: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
) -> None:
    """``BrownTracker.update`` for one fix each at the distinct *rows*.

    *speed*, *vx* and *vy* hold the fixes' speed and velocity, aligned
    with *rows*: every row smooths its speed, and the moving ones their
    heading's cos/sin.
    """
    a = state.alpha
    smooth(state.sp_s1, state.sp_s2, rows, speed, state.sp_n[rows] == 0, a)
    state.sp_n[rows] += 1
    moving = speed > 1e-9
    if moving.any():
        mrows = rows[moving]
        ms = speed[moving]
        first = state.dir_n[mrows] == 0
        smooth(state.dc_s1, state.dc_s2, mrows, vx[moving] / ms, first, a)
        smooth(state.ds_s1, state.ds_s2, mrows, vy[moving] / ms, first, a)
        state.dir_n[mrows] += 1


def predict(
    state: Any,
    idx: np.ndarray,
    now: float,
    kernel: MathKernel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``BrownTracker.predict(now)`` for the nodes at rows *idx*.

    Returns ``(rows, x, y)``: the rows whose prediction moves off the
    last fix, and where to.  Every other row of *idx* predicts its last
    fix.
    """
    a = state.alpha
    q = a / (1.0 - a)
    dt = now - state.last_t[idx]
    np.maximum(dt, 0.0, out=dt)
    speed = trend(state.sp_s1, state.sp_s2, idx, q)
    np.maximum(speed, 0.0, out=speed)
    active = (dt > 0.0) & (state.sp_n[idx] > 0)
    active &= (speed > 1e-9) & (state.dir_n[idx] > 0)
    # From here on, only the rows that may move.
    rows = idx[active]
    dt, speed = dt[active], speed[active]
    del active
    lx = state.last_x[rows]
    ly = state.last_y[rows]
    c = trend(state.dc_s1, state.dc_s2, rows, q)
    s = trend(state.ds_s1, state.ds_s2, rows, q)
    norm = kernel.hypot(c, s)
    moves = norm > 1e-9
    over = moves & (norm > 1.0)
    np.divide(c, norm, out=c, where=over)
    np.divide(s, norm, out=s, where=over)
    del norm, over
    speed *= dt  # the step length k = speed * dt
    c *= speed
    c += lx  # candidate x = lx + c * k
    s *= speed
    s += ly
    del dt, speed
    ox = c - lx
    oy = s - ly
    distance = kernel.hypot(ox, oy)
    cap = state.cap[rows]
    # A NaN cap (no DTH on the last LU) never compares greater: no clamp.
    capped = moves & (distance > cap)
    scale = cap[capped] / distance[capped]
    c[capped] = lx[capped] + ox[capped] * scale
    s[capped] = ly[capped] + oy[capped] * scale
    return rows[moves], c[moves], s[moves]
