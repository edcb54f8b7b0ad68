"""Tests for wireless gateways."""

import pytest

from repro.geometry import Vec2
from repro.network import LocationUpdate, WirelessChannel, WirelessGateway
from repro.simkernel import Simulator
from repro.telemetry import Telemetry, TelemetryConfig

from tests.campus.test_region import make_building, make_road


@pytest.fixture
def setup(rng):
    sim = Simulator()
    region = make_road()
    channel = WirelessChannel(sim, rng)
    got = []
    gateway = WirelessGateway(region, channel, got.append)
    return sim, gateway, got


def lu(x=50.0, y=5.0):
    return LocationUpdate(
        sender="mn", timestamp=0.0, node_id="mn", position=Vec2(x, y), region_id="R1"
    )


class TestForwarding:
    def test_receive_forwards_to_sink(self, setup):
        _, gateway, got = setup
        gateway.receive(lu())
        assert len(got) == 1
        assert gateway.received == 1
        assert gateway.forwarded == 1

    def test_gateway_id(self, setup):
        _, gateway, _ = setup
        assert gateway.gateway_id == "gw.R1"

    def test_covers(self, setup):
        _, gateway, _ = setup
        assert gateway.covers(lu(50, 5))
        assert not gateway.covers(lu(50, 500))


class TestFailureInjection:
    def test_failed_gateway_discards(self, setup):
        _, gateway, got = setup
        gateway.fail()
        gateway.receive(lu())
        assert got == []
        assert gateway.discarded == 1
        assert gateway.received == 1

    def test_restore(self, setup):
        _, gateway, got = setup
        gateway.fail()
        gateway.receive(lu())
        gateway.restore()
        gateway.receive(lu())
        assert len(got) == 1

    def test_lossy_uplink_counts_discards(self, rng):
        sim = Simulator()
        channel = WirelessChannel(sim, rng, loss_probability=1.0)
        got = []
        gateway = WirelessGateway(make_building(), channel, got.append)
        gateway.receive(lu())
        assert gateway.discarded == 1
        assert gateway.forwarded == 0


class TestFusedFastPath:
    """The channel's transparent flag must track mutable channel state.

    Regression guard: a fused-path flag once cached at construction let a
    mid-run channel reconfiguration (fault injection) be silently
    bypassed by the fast path; a fault must defeat it.
    """

    def test_transparent_lossless_default_is_fused(self, setup):
        _, gateway, _ = setup
        assert gateway.uplink.transparent

    def test_lossy_channel_is_not_fused(self, rng):
        sim = Simulator()
        channel = WirelessChannel(sim, rng, loss_probability=0.5)
        gateway = WirelessGateway(make_road(), channel, lambda m: None)
        assert not gateway.uplink.transparent

    def test_degrade_clears_flag_and_restore_resets_it(self, setup):
        _, gateway, _ = setup
        gateway.uplink.degrade(loss_probability=0.5)
        assert not gateway.uplink.transparent
        gateway.uplink.restore()
        assert gateway.uplink.transparent

    def test_latency_reconfigure_clears_flag(self, setup):
        _, gateway, _ = setup
        gateway.uplink.configure(base_latency=1.0)
        assert not gateway.uplink.transparent

    def test_burst_loss_clears_flag(self, setup):
        from repro.network import GilbertElliottLoss

        _, gateway, _ = setup
        gateway.uplink.configure(burst_loss=GilbertElliottLoss())
        assert not gateway.uplink.transparent
        gateway.uplink.configure(burst_loss=None)
        assert gateway.uplink.transparent

    def test_degraded_traffic_actually_lost(self, setup):
        """A stale fused flag would deliver despite 100% loss."""
        _, gateway, got = setup
        gateway.uplink.degrade(loss_probability=1.0)
        gateway.receive(lu())
        assert got == []
        assert gateway.discarded == 1
        gateway.uplink.restore()
        gateway.receive(lu())
        assert len(got) == 1

    def test_fused_path_counters_match_general_path(self, rng, rng_registry):
        """The fused fast path must be observationally identical."""
        sim = Simulator()
        fused_ch = WirelessChannel(sim, rng, name="fused")
        # An instrumented channel is never transparent: the general path.
        general_ch = WirelessChannel(
            sim,
            rng_registry.stream("g"),
            name="general",
            telemetry=Telemetry.from_config(TelemetryConfig(enabled=True)),
        )
        fused_got, general_got = [], []
        fused = WirelessGateway(make_road(), fused_ch, fused_got.append)
        general = WirelessGateway(make_road(), general_ch, general_got.append)
        assert fused_ch.transparent and not general_ch.transparent
        for _ in range(10):
            update = lu()
            fused.receive(update)
            general.receive(update)
        assert fused_got == general_got
        assert (fused.received, fused.forwarded, fused.discarded) == (
            general.received,
            general.forwarded,
            general.discarded,
        )
        for name in ("sent", "delivered", "dropped", "bytes_sent"):
            assert getattr(fused_ch.stats, name) == getattr(
                general_ch.stats, name
            )
