"""Error metrics.

The paper measures location error with RMSE (Ghilani & Wolf):
``sqrt(sum((RL_i - EL_i)^2) / n)`` where RL is the real and EL the
estimated location over the n mobile nodes.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = ["rmse", "rms_of_squares", "mae", "max_error"]


def _as_errors(errors: Iterable[float]) -> np.ndarray:
    if isinstance(errors, np.ndarray):
        arr = np.asarray(errors, dtype=float)
    else:
        arr = np.asarray(list(errors), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot compute a metric over zero errors")
    if np.any(arr < 0):
        raise ValueError("errors must be non-negative distances")
    return arr


def rmse(errors: Iterable[float]) -> float:
    """Root mean square of per-node distance errors."""
    return rms_of_squares(_as_errors(errors) ** 2)


def rms_of_squares(squares: np.ndarray) -> float:
    """:func:`rmse` of the errors whose squares are *squares* (non-empty)."""
    return float(np.sqrt(np.mean(squares)))


def mae(errors: Iterable[float]) -> float:
    """Mean absolute error of per-node distance errors."""
    return float(np.mean(_as_errors(errors)))


def max_error(errors: Iterable[float]) -> float:
    """Worst-case per-node distance error."""
    return float(np.max(_as_errors(errors)))
