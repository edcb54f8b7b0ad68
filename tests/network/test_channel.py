"""Tests for the wireless channel."""

import pytest

from repro.network import GilbertElliottLoss, Message, WirelessChannel
from repro.simkernel import Simulator
from repro.telemetry import Telemetry, TelemetryConfig
from repro.util.rng import RngRegistry


@pytest.fixture
def sim():
    return Simulator()


def msg(t=0.0):
    return Message(sender="x", timestamp=t)


class TestValidation:
    def test_negative_latency_rejected(self, sim, rng):
        with pytest.raises(ValueError):
            WirelessChannel(sim, rng, base_latency=-1.0)

    def test_bad_loss_probability(self, sim, rng):
        with pytest.raises(ValueError):
            WirelessChannel(sim, rng, loss_probability=1.5)


class TestDelivery:
    def test_zero_latency_is_synchronous(self, sim, rng):
        channel = WirelessChannel(sim, rng)
        got = []
        assert channel.send(msg(), got.append)
        assert len(got) == 1

    def test_latency_delays_delivery(self, sim, rng):
        channel = WirelessChannel(sim, rng, base_latency=2.0)
        got = []
        channel.send(msg(), lambda m: got.append(sim.now))
        assert got == []
        sim.run()
        assert got == [2.0]

    def test_jitter_adds_to_base(self, sim, rng):
        channel = WirelessChannel(
            sim, rng, base_latency=1.0, latency_jitter=0.5
        )
        samples = [channel.latency_sample() for _ in range(200)]
        assert all(s >= 1.0 for s in samples)
        assert any(s > 1.0 for s in samples)

    def test_stats_counted(self, sim, rng):
        channel = WirelessChannel(sim, rng)
        channel.send(msg(), lambda m: None)
        assert channel.stats.sent == 1
        assert channel.stats.delivered == 1
        assert channel.stats.bytes_sent == 32


class TestLoss:
    def test_total_loss(self, sim, rng):
        channel = WirelessChannel(sim, rng, loss_probability=1.0)
        got = []
        assert not channel.send(msg(), got.append)
        sim.run()
        assert got == []
        assert channel.stats.dropped == 1

    def test_partial_loss_rate(self, sim, rng):
        channel = WirelessChannel(sim, rng, loss_probability=0.3)
        for _ in range(1000):
            channel.send(msg(), lambda m: None)
        assert channel.stats.loss_rate == pytest.approx(0.3, abs=0.06)

    def test_loss_rate_empty(self, sim, rng):
        assert WirelessChannel(sim, rng).stats.loss_rate == 0.0

    def test_no_loss_by_default(self, sim, rng):
        channel = WirelessChannel(sim, rng)
        for _ in range(100):
            channel.send(msg(), lambda m: None)
        assert channel.stats.dropped == 0


class TestReconfigure:
    def test_configure_recomputes_transparent_flag(self, sim, rng):
        channel = WirelessChannel(sim, rng)
        assert channel.transparent
        channel.configure(base_latency=1.0)
        assert not channel.transparent
        channel.configure(base_latency=0.0)
        assert channel.transparent
        channel.configure(loss_probability=0.1)
        assert not channel.transparent
        channel.configure(loss_probability=0.0)
        assert channel.transparent

    def test_instrumented_channel_is_never_transparent(self, sim, rng):
        telemetry = Telemetry.from_config(TelemetryConfig(enabled=True))
        channel = WirelessChannel(sim, rng, telemetry=telemetry)
        assert not channel.transparent
        channel.configure(base_latency=0.0, loss_probability=0.0)
        assert not channel.transparent

    def test_configure_validates(self, sim, rng):
        channel = WirelessChannel(sim, rng)
        with pytest.raises(ValueError):
            channel.configure(loss_probability=2.0)
        with pytest.raises(TypeError):
            channel.configure(burst_loss="bursty")

    def test_configure_leaves_unnamed_params_alone(self, sim, rng):
        channel = WirelessChannel(sim, rng, base_latency=1.0, latency_jitter=0.5)
        channel.configure(loss_probability=0.2)
        assert channel.base_latency == 1.0
        assert channel.latency_jitter == 0.5
        assert channel.loss_probability == 0.2

    def test_degrade_restore_round_trip(self, sim, rng):
        channel = WirelessChannel(sim, rng, base_latency=0.1)
        channel.degrade(base_latency=2.0, loss_probability=0.5)
        assert channel.degraded
        # Nested degradation keeps the original save point.
        channel.degrade(loss_probability=0.9)
        channel.restore()
        assert not channel.degraded
        assert channel.base_latency == 0.1
        assert channel.loss_probability == 0.0
        assert channel.transparent is False  # latency 0.1 is back

    def test_invalid_degrade_leaves_the_channel_healthy(self, sim, rng):
        channel = WirelessChannel(sim, rng, base_latency=0.1)
        with pytest.raises(ValueError):
            channel.degrade(loss_probability=2.0)
        with pytest.raises(TypeError):
            channel.degrade(burst_loss="bursty")
        assert not channel.degraded
        assert channel.base_latency == 0.1
        assert channel.loss_probability == 0.0
        # A later valid degradation still saves the healthy parameters.
        channel.degrade(base_latency=2.0)
        with pytest.raises(ValueError):
            channel.degrade(loss_probability=-1.0)
        assert channel.degraded and channel.base_latency == 2.0
        channel.restore()
        assert channel.base_latency == 0.1

    def test_restore_without_degrade_is_noop(self, sim, rng):
        channel = WirelessChannel(sim, rng)
        channel.restore()
        assert not channel.degraded


class TestBurstLoss:
    def test_burst_clusters_losses(self, sim):
        model = GilbertElliottLoss(
            p_good_bad=0.05, p_bad_good=0.2, loss_good=0.0, loss_bad=1.0
        )
        channel = WirelessChannel(
            sim, RngRegistry(7).stream("burst"), burst_loss=model
        )
        outcomes = [
            channel.send(msg(), lambda m: None) for _ in range(2000)
        ]
        losses = outcomes.count(False)
        assert losses > 0
        # Loss rate tracks the model's steady state, not loss_bad.
        assert channel.stats.loss_rate == pytest.approx(
            model.steady_state_loss, abs=0.07
        )
        # Bursts: a drop is far more likely right after a drop than the
        # marginal rate would suggest (the whole point of the model).
        after_drop = [
            b for a, b in zip(outcomes, outcomes[1:]) if not a
        ]
        conditional = after_drop.count(False) / len(after_drop)
        assert conditional > channel.stats.loss_rate + 0.2

    def test_same_seed_same_drop_pattern(self, sim):
        model = GilbertElliottLoss()

        def pattern(seed):
            channel = WirelessChannel(
                sim, RngRegistry(seed).stream("burst"), burst_loss=model
            )
            return [channel.send(msg(), lambda m: None) for _ in range(500)]

        assert pattern(11) == pattern(11)
        assert pattern(11) != pattern(12)

    def test_clearing_burst_resets_state(self, sim, rng):
        channel = WirelessChannel(
            sim,
            rng,
            burst_loss=GilbertElliottLoss(
                p_good_bad=1.0, p_bad_good=0.0, loss_good=0.0, loss_bad=1.0
            ),
        )
        assert not channel.send(msg(), lambda m: None)  # forced into bad
        channel.configure(burst_loss=None)
        assert channel.burst_loss is None
        assert not channel._burst_bad
        assert channel.send(msg(), lambda m: None)


class TestOrdering:
    def test_fixed_latency_preserves_order(self, sim, rng):
        channel = WirelessChannel(sim, rng, base_latency=1.0)
        got = []
        a, b = msg(), msg()
        channel.send(a, lambda m: got.append(m.seq))
        channel.send(b, lambda m: got.append(m.seq))
        sim.run()
        assert got == [a.seq, b.seq]

    def test_jittered_latency_can_reorder(self, sim, rng):
        channel = WirelessChannel(sim, rng, latency_jitter=5.0)
        got = []
        messages = [msg() for _ in range(50)]
        for m in messages:
            channel.send(m, lambda mm: got.append(mm.seq))
        sim.run()
        assert sorted(got) == [m.seq for m in messages]
        assert got != sorted(got)  # with 50 exponential draws, ~certain
