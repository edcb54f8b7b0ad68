"""Tests for binding fault schedules to live simulation objects."""

import pytest

from repro.faults import (
    ChannelDegradation,
    FaultInjector,
    FaultSchedule,
    GatewayOutage,
    NodeChurn,
    RegionBlackout,
)
from repro.geometry import Vec2
from repro.network import LocationUpdate, WirelessChannel, WirelessGateway
from repro.simkernel import Simulator

from tests.campus.test_region import make_building, make_road


def lu(t=0.0):
    return LocationUpdate(
        sender="mn", timestamp=t, node_id="mn", position=Vec2(50, 5), region_id="R1"
    )


@pytest.fixture
def sim():
    return Simulator()


def make_gateway(sim, rng, region=None):
    got = []
    region = region if region is not None else make_road()
    channel = WirelessChannel(sim, rng, name=f"up/{region.region_id}")
    gateway = WirelessGateway(region, channel, got.append)
    return gateway, got


class TestOutages:
    def test_gateway_down_then_restored(self, sim, rng):
        gateway, got = make_gateway(sim, rng)
        schedule = FaultSchedule(
            (GatewayOutage(region_id="R1", start=2.0, duration=3.0),)
        )
        FaultInjector(schedule).attach(sim, gateways=[gateway])
        sim.run_until(2.5)
        assert not gateway.operational
        gateway.receive(lu(2.5))
        assert got == []
        sim.run_until(6.0)
        assert gateway.operational
        gateway.receive(lu(6.0))
        assert len(got) == 1

    def test_blackout_hits_all_named_regions(self, sim, rng):
        road, _ = make_gateway(sim, rng, make_road())
        building, _ = make_gateway(sim, rng, make_building())
        other, _ = make_gateway(sim, rng, make_road("R9"))
        schedule = FaultSchedule(
            (
                RegionBlackout(
                    region_ids=(road.region.region_id, building.region.region_id),
                    start=1.0,
                    duration=1.0,
                ),
            )
        )
        FaultInjector(schedule).attach(sim, gateways=[road, building, other])
        sim.run_until(1.5)
        assert not road.operational
        assert not building.operational
        assert other.operational
        sim.run()
        assert road.operational and building.operational

    def test_outage_for_unknown_region_is_noop(self, sim, rng):
        gateway, _ = make_gateway(sim, rng)
        schedule = FaultSchedule(
            (GatewayOutage(region_id="nowhere", start=1.0, duration=1.0),)
        )
        injector = FaultInjector(schedule)
        injector.attach(sim, gateways=[gateway])
        sim.run()
        assert gateway.operational
        assert injector.timeline == []


class TestDegradations:
    def test_degrade_and_restore_uplink(self, sim, rng):
        gateway, _ = make_gateway(sim, rng)
        schedule = FaultSchedule(
            (
                ChannelDegradation(
                    start=1.0,
                    duration=2.0,
                    loss_probability=1.0,
                    regions=(gateway.region.region_id,),
                ),
            )
        )
        FaultInjector(schedule).attach(sim, gateways=[gateway])
        sim.run_until(1.5)
        assert gateway.uplink.degraded
        assert gateway.uplink.loss_probability == 1.0
        sim.run()
        assert not gateway.uplink.degraded
        assert gateway.uplink.loss_probability == 0.0

    def test_unscoped_degradation_hits_extra_channels_once(self, sim, rng):
        gateway, _ = make_gateway(sim, rng)
        extra = WirelessChannel(sim, rng, name="extra")
        schedule = FaultSchedule(
            (ChannelDegradation(start=1.0, duration=1.0, base_latency=0.2),)
        )
        injector = FaultInjector(schedule)
        # The gateway uplink passed again via channels= must not be
        # degraded twice (double restore would lose the saved params).
        injector.attach(sim, gateways=[gateway], channels=[extra, gateway.uplink])
        sim.run_until(1.5)
        assert gateway.uplink.degraded and extra.degraded
        applies = [e for e in injector.timeline if e.action == "apply"]
        assert len(applies) == 2
        sim.run()
        assert not gateway.uplink.degraded and not extra.degraded

    def test_degradation_defeats_gateway_fused_path(self, sim, rng):
        gateway, got = make_gateway(sim, rng)
        assert gateway.uplink.transparent  # transparent lossless default
        schedule = FaultSchedule(
            (ChannelDegradation(start=1.0, duration=2.0, loss_probability=1.0),)
        )
        FaultInjector(schedule).attach(sim, gateways=[gateway])
        sim.run_until(1.5)
        assert not gateway.uplink.transparent
        gateway.receive(lu(1.5))
        assert got == []  # total loss actually applied
        assert gateway.discarded == 1
        sim.run()
        assert gateway.uplink.transparent


class TestTimeline:
    def test_timeline_records_applies_and_reverts(self, sim, rng):
        gateway, _ = make_gateway(sim, rng)
        schedule = FaultSchedule(
            (
                GatewayOutage(region_id="R1", start=1.0, duration=2.0),
                ChannelDegradation(start=2.0, duration=1.0, base_latency=0.5),
            )
        )
        injector = FaultInjector(schedule)
        injector.attach(sim, gateways=[gateway])
        sim.run()
        actions = [(e.time, e.action, e.kind) for e in injector.timeline]
        assert actions == [
            (1.0, "apply", "GatewayOutage"),
            (2.0, "apply", "ChannelDegradation"),
            (3.0, "revert", "GatewayOutage"),
            (3.0, "revert", "ChannelDegradation"),
        ]
        entries = injector.timeline_json()
        assert entries[0] == {
            "time": 1.0,
            "action": "apply",
            "kind": "GatewayOutage",
            "target": "gw.R1",
        }


class TestAttachRules:
    def test_reattach_rejected(self, sim, rng):
        injector = FaultInjector(FaultSchedule())
        injector.attach(sim)
        with pytest.raises(RuntimeError):
            injector.attach(sim)

    def test_churn_schedules_nothing(self, sim):
        """The step loop that drives the fleet honours churn, not the injector."""
        schedule = FaultSchedule(
            (NodeChurn(start=0.0, duration=10.0, hazard=0.1, mean_outage=5.0),)
        )
        injector = FaultInjector(schedule)
        injector.attach(sim)
        sim.run()
        assert sim.now == 0.0
        assert injector.timeline == []


class TestShardCrashBinding:
    def make_service(self, sim, tmp_path):
        from repro.serving import (
            DurabilityManager,
            IngestService,
            ServingConfig,
        )

        return IngestService(
            sim,
            ServingConfig(shards=2, flush_interval=0.1),
            durability=DurabilityManager(tmp_path),
        )

    def test_attach_without_service_rejected(self, sim):
        from repro.faults import ShardCrash

        schedule = FaultSchedule(
            (ShardCrash(shard_index=0, start=1.0, duration=1.0),)
        )
        with pytest.raises(ValueError, match="service"):
            FaultInjector(schedule).attach(sim)

    def test_crash_and_restart_fire_at_schedule_times(self, sim, tmp_path):
        from repro.faults import ShardCrash

        service = self.make_service(sim, tmp_path)
        schedule = FaultSchedule(
            (ShardCrash(shard_index=1, start=2.0, duration=3.0),)
        )
        injector = FaultInjector(schedule)
        injector.attach(sim, service=service)
        sim.run_until(2.5)
        assert service.store.shard_is_down(1)
        sim.run_until(6.0)
        assert not service.store.shard_is_down(1)
        assert len(service.recoveries) == 1
        actions = [
            (e.action, e.kind, e.target) for e in injector.timeline
        ]
        assert ("apply", "ShardCrash", "shard-1") in actions
        assert ("revert", "ShardRestart", "shard-1") in actions
