"""Binding fault schedules to live simulation objects.

The :class:`FaultInjector` takes a declarative
:class:`~repro.faults.schedule.FaultSchedule` and schedules the apply /
revert actions on the simulator: gateway outages call
``WirelessGateway.fail()`` / ``restore()``, channel degradations call
``WirelessChannel.degrade()`` / ``restore()`` (which recompute the
channel's ``transparent`` flag, so the gateway's fused delivery path
cannot bypass an injected fault).  Every action is appended to a
deterministic :attr:`~FaultInjector.timeline` and mirrored as a telemetry
event, giving resilience reports an authoritative record of what was
injected and when.

Churn faults are *not* bound to simulator events: offline-node bookkeeping
belongs to the step loop that drives the fleet, through
:class:`~repro.faults.churn.ChurnTracker` (the evaluation harness and the
chaos study both honour churn that way).  The injector schedules nothing
for them; a consumer with no fleet to take offline (the serving replay)
rejects a schedule with churn itself.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from repro.faults.schedule import (
    ChannelDegradation,
    FaultSchedule,
    GatewayOutage,
    RegionBlackout,
    ShardCrash,
)
from repro.network.channel import WirelessChannel
from repro.network.gateway import WirelessGateway
from repro.simkernel import Simulator
from repro.telemetry import NULL_TELEMETRY, Severity

__all__ = ["FaultInjector", "TimelineEntry"]


@dataclass(frozen=True)
class TimelineEntry:
    """One applied or reverted fault action."""

    time: float
    action: str  # "apply" | "revert"
    kind: str  # fault spec class name
    target: str  # gateway/channel identifier

    def to_json_dict(self) -> dict[str, float | str]:
        return {
            "time": self.time,
            "action": self.action,
            "kind": self.kind,
            "target": self.target,
        }


class FaultInjector:
    """Drives a fault schedule against gateways and channels."""

    def __init__(self, schedule: FaultSchedule, *, telemetry: Any = None) -> None:
        self.schedule = schedule
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.timeline: list[TimelineEntry] = []
        self._attached = False

    def attach(
        self,
        sim: Simulator,
        *,
        gateways: Iterable[WirelessGateway] = (),
        channels: Iterable[WirelessChannel] = (),
        service: Any = None,
    ) -> None:
        """Schedule every fault window on *sim*.

        *gateways* are the outage/blackout targets; their uplinks are also
        degradation targets, keyed by region.  *channels* are extra
        degradation targets not owned by a gateway (matched only by
        region-unscoped degradations).  *service* is the
        :class:`~repro.serving.service.IngestService` that
        :class:`~repro.faults.schedule.ShardCrash` windows target —
        attaching a schedule containing shard crashes without one is an
        error, not a silent no-op.  :class:`~repro.faults.schedule.NodeChurn`
        windows schedule nothing: the caller's step loop honours them.
        """
        if self._attached:
            raise RuntimeError("injector is already attached")
        if self.schedule.has_shard_crashes and service is None:
            raise ValueError(
                "schedule contains ShardCrash faults but no service was "
                "given; pass the IngestService (with a durability manager) "
                "whose shards the crashes target"
            )
        self._attached = True
        gateways = list(gateways)
        extra_channels = list(channels)
        by_region: dict[str, list[WirelessGateway]] = {}
        for gateway in gateways:
            by_region.setdefault(gateway.region.region_id, []).append(gateway)
        for fault in self.schedule.faults:
            if isinstance(fault, GatewayOutage):
                targets = by_region.get(fault.region_id, [])
                self._schedule_outage(sim, fault, targets)
            elif isinstance(fault, RegionBlackout):
                targets = [
                    gw
                    for region_id in fault.region_ids
                    for gw in by_region.get(region_id, [])
                ]
                self._schedule_outage(sim, fault, targets)
            elif isinstance(fault, ChannelDegradation):
                if fault.regions is None:
                    seen: set[int] = set()
                    targets_ch: list[WirelessChannel] = []
                    for channel in [gw.uplink for gw in gateways] + extra_channels:
                        if id(channel) not in seen:
                            seen.add(id(channel))
                            targets_ch.append(channel)
                else:
                    targets_ch = [
                        gw.uplink
                        for region_id in fault.regions
                        for gw in by_region.get(region_id, [])
                    ]
                self._schedule_degradation(sim, fault, targets_ch)
            elif isinstance(fault, ShardCrash):
                self._schedule_shard_crash(sim, fault, service)
            # NodeChurn: honoured by the caller's step loop.

    # -- scheduling helpers ---------------------------------------------------
    def _schedule_outage(
        self,
        sim: Simulator,
        fault: GatewayOutage | RegionBlackout,
        targets: list[WirelessGateway],
    ) -> None:
        kind = type(fault).__name__

        def apply() -> None:
            for gateway in targets:
                gateway.fail()
                self._record(sim.now, "apply", kind, gateway.gateway_id)

        def revert() -> None:
            for gateway in targets:
                gateway.restore()
                self._record(sim.now, "revert", kind, gateway.gateway_id)

        sim.schedule_at(fault.start, apply, label="faults:outage")
        sim.schedule_at(fault.end, revert, label="faults:restore")

    def _schedule_degradation(
        self,
        sim: Simulator,
        fault: ChannelDegradation,
        targets: list[WirelessChannel],
    ) -> None:
        def apply() -> None:
            for channel in targets:
                channel.degrade(
                    base_latency=fault.base_latency,
                    latency_jitter=fault.latency_jitter,
                    loss_probability=fault.loss_probability,
                    burst_loss=fault.burst if fault.burst is not None else False,
                )
                self._record(sim.now, "apply", "ChannelDegradation", channel.name)

        def revert() -> None:
            for channel in targets:
                channel.restore()
                self._record(sim.now, "revert", "ChannelDegradation", channel.name)

        sim.schedule_at(fault.start, apply, label="faults:degrade")
        sim.schedule_at(fault.end, revert, label="faults:restore")

    def _schedule_shard_crash(
        self, sim: Simulator, fault: ShardCrash, service: Any
    ) -> None:
        index = fault.shard_index
        target = f"shard-{index}"

        def crash() -> None:
            service.crash_shard(index)
            self._record(sim.now, "apply", "ShardCrash", target)

        def restart() -> None:
            service.restart_shard(index)
            self._record(sim.now, "revert", "ShardRestart", target)

        sim.schedule_at(fault.start, crash, label="faults:shard-crash")
        sim.schedule_at(fault.end, restart, label="faults:shard-restart")

    def _record(self, time: float, action: str, kind: str, target: str) -> None:
        self.timeline.append(
            TimelineEntry(time=time, action=action, kind=kind, target=target)
        )
        self._telemetry.event(
            Severity.WARNING if action == "apply" else Severity.INFO,
            f"fault {action}: {kind}",
            source="faults",
            target=target,
            kind=kind,
        )

    # -- reporting ------------------------------------------------------------
    def timeline_json(self) -> list[dict]:
        """The recorded timeline as JSON-serialisable dicts."""
        return [entry.to_json_dict() for entry in self.timeline]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector(faults={len(self.schedule)}, "
            f"actions={len(self.timeline)})"
        )
