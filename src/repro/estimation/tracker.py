"""2-D location trackers: the broker's view of one mobile node.

A tracker absorbs the (possibly filtered) stream of location updates for one
MN and answers ``predict(t)``: where is the node now?  The paper's Location
Estimator (:class:`BrownTracker`) smooths the node's *velocity and
direction* with Brown's double exponential smoothing and projects the next
coordinates "by using trigonometric function" (§3.3).  The no-LE baseline
(:class:`LastKnownTracker`) just returns the last received fix.
"""

from __future__ import annotations

import abc
import math

from repro.estimation.smoothing import (
    BrownDoubleExponentialSmoothing,
    HoltLinearSmoothing,
    SimpleExponentialSmoothing,
    _Smoother,
)
from repro.geometry import Vec2

__all__ = [
    "LocationTracker",
    "LastKnownTracker",
    "BrownTracker",
    "VelocityComponentTracker",
    "SimpleSmoothingTracker",
    "HoltTracker",
    "tracker_from_state",
]


class LocationTracker(abc.ABC):
    """Base tracker: one per (broker, MN) pair."""

    #: Stable identifier used by :meth:`state_dict` / :func:`tracker_from_state`.
    #: ``None`` means the tracker family has no snapshot codec.
    _state_kind: str | None = None

    def __init__(self) -> None:
        self._last_time: float | None = None
        self._last_position: Vec2 | None = None
        self._displacement_cap: float | None = None
        self._updates = 0

    def state_dict(self) -> dict:
        """Full tracker state as JSON-safe values.

        Restoring via :func:`tracker_from_state` (or :meth:`load_state` on a
        fresh instance of the same class) reproduces ``predict`` bit-exactly.
        Raises :class:`TypeError` for tracker families without a codec.
        """
        if self._state_kind is None:
            raise TypeError(
                f"{type(self).__name__} does not support state snapshots; "
                "durable serving shards require a snapshot-capable tracker"
            )
        state = {
            "displacement_cap": self._displacement_cap,
            "kind": self._state_kind,
            "last_position": (
                None
                if self._last_position is None
                else [self._last_position.x, self._last_position.y]
            ),
            "last_time": self._last_time,
            "updates": self._updates,
        }
        state.update(self._extra_state())
        return state

    def load_state(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict` bit-exactly."""
        if state.get("kind") != self._state_kind:
            raise ValueError(
                f"tracker state kind {state.get('kind')!r} does not match "
                f"{type(self).__name__} ({self._state_kind!r})"
            )
        self._last_time = None if state["last_time"] is None else float(state["last_time"])
        pos = state["last_position"]
        self._last_position = None if pos is None else Vec2(float(pos[0]), float(pos[1]))
        cap = state["displacement_cap"]
        self._displacement_cap = None if cap is None else float(cap)
        self._updates = int(state["updates"])
        self._load_extra_state(state)

    def _extra_state(self) -> dict:
        return {}

    def _load_extra_state(self, state: dict) -> None:
        pass

    @property
    def updates_received(self) -> int:
        """How many LUs have been absorbed."""
        return self._updates

    @property
    def has_fix(self) -> bool:
        """True once at least one LU has been absorbed."""
        return self._last_position is not None

    @property
    def last_fix(self) -> tuple[float, Vec2] | None:
        """The most recent received ``(time, position)``, if any."""
        if self._last_position is None or self._last_time is None:
            return None
        return self._last_time, self._last_position

    def update(
        self,
        time: float,
        position: Vec2,
        velocity: Vec2,
        *,
        displacement_cap: float | None = None,
    ) -> None:
        """Absorb a received LU.

        *displacement_cap*, when given and positive, is the distance filter's
        DTH in force for this node: until the next LU arrives, the node is
        guaranteed to be within that distance of *position*, so predictions
        are clamped onto that disc.
        """
        if self._last_time is not None and time < self._last_time:
            raise ValueError(
                f"update times must be non-decreasing: {time} < {self._last_time}"
            )
        self._observe(time, position, velocity)
        self._last_time = time
        self._last_position = position
        self._displacement_cap = (
            displacement_cap if displacement_cap and displacement_cap > 0 else None
        )
        self._updates += 1

    def _clamp_to_cap(self, predicted: Vec2) -> Vec2:
        """Pull *predicted* back onto the silence-implied disc, if any."""
        if self._displacement_cap is None or self._last_position is None:
            return predicted
        offset = predicted - self._last_position
        distance = offset.norm()
        if distance <= self._displacement_cap:
            return predicted
        return self._last_position + offset * (self._displacement_cap / distance)

    @abc.abstractmethod
    def _observe(self, time: float, position: Vec2, velocity: Vec2) -> None: ...

    @abc.abstractmethod
    def predict(self, time: float) -> Vec2:
        """Best estimate of the node's position at *time* (>= last update)."""

    def _require_fix(self) -> tuple[float, Vec2]:
        if self._last_position is None or self._last_time is None:
            raise RuntimeError("tracker has no fix yet; cannot predict")
        return self._last_time, self._last_position


class LastKnownTracker(LocationTracker):
    """No estimation: the node is assumed frozen at its last reported fix.

    This is the "without LE" configuration of Figs. 7 and 8.
    """

    _state_kind = "last_known"

    def _observe(self, time: float, position: Vec2, velocity: Vec2) -> None:
        pass

    def predict(self, time: float) -> Vec2:
        _, position = self._require_fix()
        return position


class VelocityComponentTracker(LocationTracker):
    """Smooths the velocity's x/y components instead of speed/direction.

    Mathematically close to :class:`BrownTracker` but free of angle
    unwrapping; included as an estimator-design ablation.
    """

    _state_kind = "velocity"

    def __init__(self, alpha: float = 0.4) -> None:
        super().__init__()
        self._vx = BrownDoubleExponentialSmoothing(alpha)
        self._vy = BrownDoubleExponentialSmoothing(alpha)

    def _extra_state(self) -> dict:
        return {"vx": self._vx.state_dict(), "vy": self._vy.state_dict()}

    def _load_extra_state(self, state: dict) -> None:
        self._vx.load_state(state["vx"])
        self._vy.load_state(state["vy"])

    def _observe(self, time: float, position: Vec2, velocity: Vec2) -> None:
        self._vx.update(velocity.x)
        self._vy.update(velocity.y)

    def predict(self, time: float) -> Vec2:
        t_fix, position = self._require_fix()
        dt = max(time - t_fix, 0.0)
        if dt == 0.0 or not self._vx.ready:
            return position
        return self._clamp_to_cap(
            position + Vec2(self._vx.forecast(1.0), self._vy.forecast(1.0)) * dt
        )


class _ScalarPairTracker(LocationTracker):
    """Shared machinery for trackers that smooth speed + direction.

    Direction is smoothed on its unit vector (one smoother per cos/sin
    component), which keeps the estimate wrap-safe: smoothing a raw or
    unwrapped angle turns periodic headings — e.g. a node patrolling a
    road back and forth — into a ramp whose trend permanently rotates the
    estimate off-heading.
    """

    def __init__(
        self, speed: _Smoother, dir_cos: _Smoother, dir_sin: _Smoother
    ) -> None:
        super().__init__()
        self._speed = speed
        self._dir_cos = dir_cos
        self._dir_sin = dir_sin

    def _extra_state(self) -> dict:
        return {
            "dir_cos": self._dir_cos.state_dict(),
            "dir_sin": self._dir_sin.state_dict(),
            "speed": self._speed.state_dict(),
        }

    def _load_extra_state(self, state: dict) -> None:
        self._dir_cos.load_state(state["dir_cos"])
        self._dir_sin.load_state(state["dir_sin"])
        self._speed.load_state(state["speed"])

    def _observe(self, time: float, position: Vec2, velocity: Vec2) -> None:
        vx, vy = velocity.x, velocity.y
        speed = math.hypot(vx, vy)
        self._speed.update(speed)
        if speed > 1e-9:
            self._dir_cos.update(vx / speed)
            self._dir_sin.update(vy / speed)

    def predict(self, time: float) -> Vec2:
        t_fix, position = self._require_fix()
        dt = max(time - t_fix, 0.0)
        # Empty smoothers forecast 0, which the zero checks below catch.
        speed = max(self._speed.forecast(1.0), 0.0)
        # The cos/sin forecast is the (trend-extrapolated) mean resultant
        # vector of recent headings: length ~1 for steady headings, ~0 for
        # erratic ones.  Only lengths above 1 are normalised, so the
        # dead-reckoned displacement shrinks exactly when direction is
        # unpredictable (RMS nodes, reversals).
        c = self._dir_cos.forecast(1.0)
        s = self._dir_sin.forecast(1.0)
        norm = math.hypot(c, s)
        if dt == 0.0 or speed <= 1e-9 or norm <= 1e-9:
            return position
        if norm > 1.0:
            c, s = c / norm, s / norm
        # position + (c, s) * speed * dt, pulled back onto the DTH disc
        # (_clamp_to_cap) — spelled out on scalars: the broker runs this
        # once per silent node per tick.
        k = speed * dt
        px = position.x + c * k
        py = position.y + s * k
        cap = self._displacement_cap
        if cap is None:
            return Vec2(px, py)
        ox = px - position.x
        oy = py - position.y
        distance = math.hypot(ox, oy)
        if distance <= cap:
            return Vec2(px, py)
        scale = cap / distance
        return Vec2(position.x + ox * scale, position.y + oy * scale)


class BrownTracker(_ScalarPairTracker):
    """The paper's Location Estimator.

    Speed and direction are each smoothed with Brown's double exponential
    smoothing over the received LUs, and the prediction projects from the
    last fix:

        position(t) = last_fix + v_hat * (t - t_fix) * (cos θ_hat, sin θ_hat)
    """

    _state_kind = "brown"

    def __init__(self, alpha: float = 0.4) -> None:
        super().__init__(
            BrownDoubleExponentialSmoothing(alpha),
            BrownDoubleExponentialSmoothing(alpha),
            BrownDoubleExponentialSmoothing(alpha),
        )


class SimpleSmoothingTracker(_ScalarPairTracker):
    """Single exponential smoothing on speed/direction (no trend)."""

    _state_kind = "simple"

    def __init__(self, alpha: float = 0.4) -> None:
        super().__init__(
            SimpleExponentialSmoothing(alpha),
            SimpleExponentialSmoothing(alpha),
            SimpleExponentialSmoothing(alpha),
        )


class HoltTracker(_ScalarPairTracker):
    """Holt's linear method on speed/direction."""

    _state_kind = "holt"

    def __init__(self, alpha: float = 0.4, beta: float = 0.2) -> None:
        super().__init__(
            HoltLinearSmoothing(alpha, beta),
            HoltLinearSmoothing(alpha, beta),
            HoltLinearSmoothing(alpha, beta),
        )


_TRACKER_CLASSES: dict[str, type[LocationTracker]] = {
    "last_known": LastKnownTracker,
    "brown": BrownTracker,
    "velocity": VelocityComponentTracker,
    "simple": SimpleSmoothingTracker,
    "holt": HoltTracker,
}


def tracker_from_state(state: dict) -> LocationTracker:
    """Rebuild a tracker from a :meth:`LocationTracker.state_dict` dict."""
    kind = state.get("kind")
    cls = _TRACKER_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown tracker state kind: {kind!r}")
    tracker = cls()
    tracker.load_state(state)
    return tracker
