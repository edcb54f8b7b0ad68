"""Declarative fault schedules.

A :class:`FaultSchedule` is an immutable, validated list of timed fault
windows — gateway outages, regional blackouts, channel degradations
(elevated loss/latency, including Gilbert–Elliott burst loss) and node
churn.  Schedules are pure data: they say *what* goes wrong and *when*;
the :class:`~repro.faults.injector.FaultInjector` binds them to live
simulation objects.

Two constructors produce schedules deterministically:

* :meth:`FaultSchedule.from_intensity` — a fixed scenario shape scaled by
  a scalar intensity in [0, 1] (the chaos sweep's axis); no randomness at
  all, so a given (intensity, duration) is byte-reproducible.
* :meth:`FaultSchedule.random` — windows drawn from a caller-supplied
  generator (use a dedicated ``util.rng`` registry stream, e.g.
  ``registry.stream("faults/schedule")``, so a given experiment seed
  replays the exact same fault timeline).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.network.channel import GilbertElliottLoss

__all__ = [
    "ChannelDegradation",
    "FaultSchedule",
    "GatewayOutage",
    "NodeChurn",
    "RegionBlackout",
    "ShardCrash",
]


def _check_window(start: float, duration: float) -> None:
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")


@dataclass(frozen=True)
class GatewayOutage:
    """One gateway down for a window: LUs to its region are discarded."""

    region_id: str
    start: float
    duration: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class RegionBlackout:
    """Several regions' gateways down at once (a site-wide power event)."""

    region_ids: tuple[str, ...]
    start: float
    duration: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if not self.region_ids:
            raise ValueError("a blackout needs at least one region")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class ChannelDegradation:
    """A window of elevated loss and/or latency on wireless channels.

    ``regions`` limits the degradation to the uplinks of those regions'
    gateways; ``None`` hits every attached channel.  ``burst`` switches the
    channel to Gilbert–Elliott burst loss for the window; independent loss
    and latency knobs apply when not ``None``.
    """

    start: float
    duration: float
    loss_probability: float | None = None
    base_latency: float | None = None
    latency_jitter: float | None = None
    burst: GilbertElliottLoss | None = None
    regions: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if (
            self.loss_probability is None
            and self.base_latency is None
            and self.latency_jitter is None
            and self.burst is None
        ):
            raise ValueError("a degradation must change at least one parameter")
        if self.loss_probability is not None and not (
            0.0 <= self.loss_probability <= 1.0
        ):
            raise ValueError(
                f"loss_probability must be in [0, 1], got {self.loss_probability}"
            )
        for name in ("base_latency", "latency_jitter"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class NodeChurn:
    """A window during which nodes disconnect with a per-second hazard.

    Churn is not bound to simulator events: the step loop that drives the
    fleet (the evaluation harness, the chaos study) polls a
    :class:`~repro.faults.churn.ChurnTracker` once per node per step.  It
    draws from the dedicated ``faults/churn`` stream, keeping the churn
    realisation independent of every other consumer of randomness.  The
    window's end is exclusive: a window meant to cover a run's last step
    must reach past the run's duration.
    """

    start: float
    duration: float
    hazard: float
    mean_outage: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if not (0.0 <= self.hazard <= 1.0):
            raise ValueError(f"hazard must be in [0, 1], got {self.hazard}")
        if self.mean_outage <= 0:
            raise ValueError(f"mean_outage must be > 0, got {self.mean_outage}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class ShardCrash:
    """One serving-store shard killed for a window, then restarted.

    Bound by the injector to an
    :class:`~repro.serving.service.IngestService`: at ``start`` the shard's
    in-memory broker and queued-but-unflushed window are dropped
    (``crash_shard``); at ``end`` it is reconstructed from its snapshot +
    WAL tail (``restart_shard``) and resyncs through the normal ingest
    path.  The restart is the window's end — a deterministic
    ``ShardRestart`` event on the injector timeline.
    """

    shard_index: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if self.shard_index < 0:
            raise ValueError(
                f"shard_index must be >= 0, got {self.shard_index}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


Fault = GatewayOutage | RegionBlackout | ChannelDegradation | NodeChurn | ShardCrash


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable collection of fault windows."""

    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for fault in self.faults:
            if not isinstance(
                fault,
                (
                    GatewayOutage,
                    RegionBlackout,
                    ChannelDegradation,
                    NodeChurn,
                    ShardCrash,
                ),
            ):
                raise TypeError(f"not a fault spec: {fault!r}")

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    # -- queries --------------------------------------------------------------
    def of_kind(self, kind: type) -> tuple[Fault, ...]:
        """All faults of a given spec type, in start order."""
        return tuple(
            sorted(
                (f for f in self.faults if isinstance(f, kind)),
                key=lambda f: (f.start, f.duration),
            )
        )

    @property
    def has_churn(self) -> bool:
        return any(isinstance(f, NodeChurn) for f in self.faults)

    @property
    def has_shard_crashes(self) -> bool:
        return any(isinstance(f, ShardCrash) for f in self.faults)

    def churn_window(self, now: float) -> NodeChurn | None:
        """The churn fault active at *now*, if any (first match wins)."""
        for fault in self.of_kind(NodeChurn):
            if fault.start <= now < fault.end:
                return fault
        return None

    def horizon(self) -> float:
        """Latest fault end time (0.0 for an empty schedule)."""
        return max((f.end for f in self.faults), default=0.0)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_intensity(
        cls,
        intensity: float,
        duration: float,
        *,
        regions: tuple[str, ...] = (),
        churn: bool = False,
    ) -> "FaultSchedule":
        """A fixed scenario shape scaled by *intensity* in [0, 1].

        Zero intensity yields an empty schedule (the fault-free control).
        Otherwise: a Gilbert–Elliott burst-loss window over the middle of
        the run, a blackout of *regions* (when given) at 60% of the run,
        and optionally a churn window.  Everything is a pure function of
        the arguments — no randomness — so resilience reports built from
        intensity sweeps are byte-reproducible.
        """
        if not (0.0 <= intensity <= 1.0):
            raise ValueError(f"intensity must be in [0, 1], got {intensity}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        if intensity == 0.0:
            return cls()
        faults: list[Fault] = [
            ChannelDegradation(
                start=round(0.15 * duration, 6),
                duration=round(0.30 * duration, 6),
                burst=GilbertElliottLoss(
                    p_good_bad=round(0.05 + 0.15 * intensity, 6),
                    p_bad_good=round(max(0.6 - 0.4 * intensity, 0.1), 6),
                    loss_good=round(0.02 * intensity, 6),
                    loss_bad=round(min(0.35 + 0.6 * intensity, 0.95), 6),
                ),
            )
        ]
        if regions:
            faults.append(
                RegionBlackout(
                    region_ids=regions,
                    start=round(0.60 * duration, 6),
                    duration=round((0.04 + 0.12 * intensity) * duration, 6),
                )
            )
        if churn:
            faults.append(
                NodeChurn(
                    start=0.0,
                    duration=duration,
                    hazard=round(0.004 * intensity, 6),
                    mean_outage=round(max(8.0, 0.05 * duration), 6),
                )
            )
        return cls(tuple(faults))

    @classmethod
    def random(
        cls,
        intensity: float,
        duration: float,
        rng: np.random.Generator,
        *,
        regions: tuple[str, ...] = (),
    ) -> "FaultSchedule":
        """Windows drawn from *rng* (pass a dedicated registry stream).

        The number, placement and severity of windows scale with
        *intensity*; the realisation is fully determined by the generator
        state, so ``registry.stream("faults/schedule")`` under a fixed
        experiment seed replays the identical timeline.
        """
        if not (0.0 <= intensity <= 1.0):
            raise ValueError(f"intensity must be in [0, 1], got {intensity}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        if intensity == 0.0:
            return cls()
        faults: list[Fault] = []
        n_degradations = 1 + int(rng.integers(0, 2)) + (1 if intensity > 0.5 else 0)
        for _ in range(n_degradations):
            start = float(rng.uniform(0.0, 0.7 * duration))
            width = float(rng.uniform(0.1, 0.25)) * duration
            faults.append(
                ChannelDegradation(
                    start=start,
                    duration=width,
                    burst=GilbertElliottLoss(
                        p_good_bad=float(rng.uniform(0.02, 0.05 + 0.2 * intensity)),
                        p_bad_good=float(rng.uniform(0.1, 0.6)),
                        loss_good=float(rng.uniform(0.0, 0.05 * intensity)),
                        loss_bad=float(rng.uniform(0.3, 0.3 + 0.65 * intensity)),
                    ),
                )
            )
        for region_id in regions:
            if rng.random() < 0.3 + 0.5 * intensity:
                start = float(rng.uniform(0.2 * duration, 0.8 * duration))
                faults.append(
                    GatewayOutage(
                        region_id=region_id,
                        start=start,
                        duration=float(rng.uniform(0.03, 0.1 + 0.1 * intensity))
                        * duration,
                    )
                )
        return cls(tuple(faults))

    # -- serialisation --------------------------------------------------------
    def to_json_dict(self) -> list[dict]:
        """JSON-serialisable description (resilience reports, CI diffs)."""
        out = []
        for fault in sorted(self.faults, key=lambda f: (f.start, f.duration)):
            entry = {"kind": type(fault).__name__}
            # asdict recurses into the nested GilbertElliottLoss; tuples
            # serialise as JSON arrays downstream.
            entry.update(asdict(fault))
            out.append(entry)
        return out

    def describe(self) -> str:
        """One line per fault, in start order."""
        lines = []
        for fault in sorted(self.faults, key=lambda f: (f.start, f.duration)):
            window = f"[{fault.start:g}s, {fault.end:g}s)"
            if isinstance(fault, GatewayOutage):
                lines.append(f"{window} gateway outage: {fault.region_id}")
            elif isinstance(fault, RegionBlackout):
                lines.append(f"{window} blackout: {', '.join(fault.region_ids)}")
            elif isinstance(fault, NodeChurn):
                lines.append(
                    f"{window} churn: hazard {fault.hazard:g}/s, "
                    f"mean outage {fault.mean_outage:g}s"
                )
            elif isinstance(fault, ShardCrash):
                lines.append(f"{window} shard crash: shard {fault.shard_index}")
            else:
                parts = []
                if fault.burst is not None:
                    parts.append(
                        f"GE burst (loss_bad {fault.burst.loss_bad:g}, "
                        f"steady {fault.burst.steady_state_loss:.3f})"
                    )
                if fault.loss_probability is not None:
                    parts.append(f"loss {fault.loss_probability:g}")
                if fault.base_latency is not None:
                    parts.append(f"latency {fault.base_latency:g}s")
                if fault.latency_jitter is not None:
                    parts.append(f"jitter {fault.latency_jitter:g}s")
                scope = "all channels" if fault.regions is None else ", ".join(
                    fault.regions
                )
                lines.append(f"{window} degradation ({scope}): {'; '.join(parts)}")
        return "\n".join(lines) if lines else "(no faults)"
