"""Exponential smoothing estimators.

The paper's Location Estimator uses **Brown's double exponential smoothing**
(McClave, Benson & Sincich, "Statistics for Business and Economics"),
chosen over ARIMA because it is cheap to update online and needs no training
dataset.  We also provide simple (single) smoothing and Holt's linear method
for the estimator ablation.

Every smoother exposes ``state_dict()`` / ``load_state()``: the complete
internal state as plain JSON scalars, restored bit-exactly (floats
round-trip through Python's shortest-repr ``json`` encoding).  The
serving layer's shard snapshots (``repro.serving.durability``) lean on
this to make broker estimator state reconstructible after a crash.
"""

from __future__ import annotations

import abc

from repro.util.validation import check_in_range

__all__ = [
    "SimpleExponentialSmoothing",
    "BrownDoubleExponentialSmoothing",
    "HoltLinearSmoothing",
]


class _Smoother(abc.ABC):
    """Common interface: feed observations, forecast h steps ahead."""

    def __init__(self) -> None:
        self._n = 0

    def state_dict(self) -> dict:
        """Full internal state as JSON-safe scalars."""
        raise NotImplementedError

    def load_state(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict` bit-exactly."""
        raise NotImplementedError

    @property
    def n_observations(self) -> int:
        """How many observations have been absorbed."""
        return self._n

    @property
    def ready(self) -> bool:
        """True once at least one observation has been absorbed."""
        return self._n > 0

    @abc.abstractmethod
    def update(self, value: float) -> float:
        """Absorb one observation; returns the current smoothed level."""

    @property
    @abc.abstractmethod
    def level(self) -> float:
        """Current smoothed level estimate."""

    @abc.abstractmethod
    def forecast(self, horizon: float = 1.0) -> float:
        """Forecast the series *horizon* steps ahead."""


class SimpleExponentialSmoothing(_Smoother):
    """Single exponential smoothing: ``S_t = a*x_t + (1-a)*S_{t-1}``.

    Forecasts are flat (no trend); suitable for nearly-stationary series.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        super().__init__()
        self._alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive=False)
        self._s = 0.0

    @property
    def alpha(self) -> float:
        """The smoothing constant."""
        return self._alpha

    def state_dict(self) -> dict:
        """Full internal state as JSON-safe scalars."""
        return {"alpha": self._alpha, "n": self._n, "s": self._s}

    def load_state(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict` bit-exactly."""
        self._alpha = float(state["alpha"])
        self._n = int(state["n"])
        self._s = float(state["s"])

    def update(self, value: float) -> float:
        value = float(value)
        if self._n == 0:
            self._s = value
        else:
            self._s = self._alpha * value + (1.0 - self._alpha) * self._s
        self._n += 1
        return self._s

    @property
    def level(self) -> float:
        return self._s

    def forecast(self, horizon: float = 1.0) -> float:
        return self._s


class BrownDoubleExponentialSmoothing(_Smoother):
    """Brown's double exponential smoothing (linear trend, one constant).

    Maintains the singly- and doubly-smoothed statistics ``S'`` and ``S''``::

        S'_t  = a*x_t  + (1-a)*S'_{t-1}
        S''_t = a*S'_t + (1-a)*S''_{t-1}

    from which level ``a_t = 2S' - S''`` and trend
    ``b_t = a/(1-a) * (S' - S'')``; the h-step forecast is ``a_t + h*b_t``.
    This is the estimator the paper's Location Estimator uses for velocity
    and direction.
    """

    def __init__(self, alpha: float = 0.4) -> None:
        super().__init__()
        self._alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive=False)
        self._s1 = 0.0
        self._s2 = 0.0

    @property
    def alpha(self) -> float:
        """The smoothing constant."""
        return self._alpha

    def state_dict(self) -> dict:
        """Full internal state as JSON-safe scalars."""
        return {"alpha": self._alpha, "n": self._n, "s1": self._s1, "s2": self._s2}

    def load_state(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict` bit-exactly."""
        self._alpha = float(state["alpha"])
        self._n = int(state["n"])
        self._s1 = float(state["s1"])
        self._s2 = float(state["s2"])

    def update(self, value: float) -> float:
        value = float(value)
        if self._n == 0:
            self._s1 = value
            self._s2 = value
        else:
            a = self._alpha
            self._s1 = a * value + (1.0 - a) * self._s1
            self._s2 = a * self._s1 + (1.0 - a) * self._s2
        self._n += 1
        return 2.0 * self._s1 - self._s2

    @property
    def level(self) -> float:
        return 2.0 * self._s1 - self._s2

    @property
    def trend(self) -> float:
        """Estimated per-step slope of the series."""
        if self._n == 0:
            return 0.0
        a = self._alpha
        return a / (1.0 - a) * (self._s1 - self._s2)

    def forecast(self, horizon: float = 1.0) -> float:
        # level + horizon * trend, without the property hops; an empty
        # smoother (s1 == s2 == 0) forecasts 0.
        s1 = self._s1
        s2 = self._s2
        a = self._alpha
        return 2.0 * s1 - s2 + horizon * (a / (1.0 - a) * (s1 - s2))


class HoltLinearSmoothing(_Smoother):
    """Holt's linear method: separate level/trend smoothing constants."""

    def __init__(self, alpha: float = 0.4, beta: float = 0.2) -> None:
        super().__init__()
        self._alpha = check_in_range(alpha, "alpha", 0.0, 1.0, inclusive=False)
        self._beta = check_in_range(beta, "beta", 0.0, 1.0, inclusive=False)
        self._level = 0.0
        self._trend = 0.0

    def state_dict(self) -> dict:
        """Full internal state as JSON-safe scalars."""
        return {
            "alpha": self._alpha,
            "beta": self._beta,
            "level": self._level,
            "n": self._n,
            "trend": self._trend,
        }

    def load_state(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict` bit-exactly."""
        self._alpha = float(state["alpha"])
        self._beta = float(state["beta"])
        self._level = float(state["level"])
        self._n = int(state["n"])
        self._trend = float(state["trend"])

    def update(self, value: float) -> float:
        value = float(value)
        if self._n == 0:
            self._level = value
            self._trend = 0.0
        else:
            prev_level = self._level
            self._level = self._alpha * value + (1.0 - self._alpha) * (
                self._level + self._trend
            )
            self._trend = self._beta * (self._level - prev_level) + (
                1.0 - self._beta
            ) * self._trend
        self._n += 1
        return self._level

    @property
    def level(self) -> float:
        return self._level

    @property
    def trend(self) -> float:
        """Estimated per-step slope of the series."""
        return self._trend

    def forecast(self, horizon: float = 1.0) -> float:
        return self._level + horizon * self._trend
