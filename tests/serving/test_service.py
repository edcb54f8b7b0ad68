"""Tests for the bounded-queue ingest service."""

import numpy as np
import pytest

from repro.geometry import Vec2
from repro.network.messages import LocationUpdate
from repro.serving import IngestService, ServingConfig
from repro.simkernel import Simulator
from repro.telemetry import Telemetry, TelemetryConfig

from tests.serving.helpers import rows_of


def lu(node="n1", t=0.0, seq=0, region="road-1"):
    return LocationUpdate(
        sender=node,
        timestamp=t,
        seq=seq,
        node_id=node,
        position=Vec2(1.0, 2.0),
        velocity=Vec2(1.0, 0.0),
        region_id=region,
        dth=4.0,
    )


class TestConfig:
    def test_defaults_valid(self):
        config = ServingConfig()
        assert config.drain_rate == pytest.approx(
            config.shards * config.batch_size / config.flush_interval
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"queue_capacity": 0},
            {"batch_size": 0},
            {"flush_interval": 0.0},
            {"report_interval": -1.0},
            {"smoothing_alpha": 1.0},
            {"smoothing_alpha": 1.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


class TestSubmitAndFlush:
    def test_submit_applies_after_flush(self):
        sim = Simulator()
        service = IngestService(sim, ServingConfig(shards=2))
        assert service.submit(lu(t=1.0, seq=1))
        assert service.backlog == 1
        assert service.store.applied == 0  # queued, not yet applied
        sim.run()
        assert service.backlog == 0
        assert service.store.applied == 1
        assert service.stats.batches == 1

    def test_flush_stops_when_drained(self):
        sim = Simulator()
        service = IngestService(sim, ServingConfig(shards=1))
        service.submit(lu(t=1.0, seq=1))
        sim.run()
        assert sim.pending_events() == 0  # no self-perpetuating idle flushes

    def test_batch_size_bounds_per_flush(self):
        sim = Simulator()
        service = IngestService(
            sim,
            ServingConfig(
                shards=1, batch_size=2, queue_capacity=100, flush_interval=0.1
            ),
        )
        for i in range(5):
            service.submit(lu(t=float(i), seq=i))
        sim.run_until(0.1)
        assert service.store.applied == 2  # one flush, batch-limited
        sim.run()
        assert service.store.applied == 5
        assert service.stats.batches == 3

    def test_latency_measured_from_arrival(self):
        sim = Simulator()
        service = IngestService(
            sim, ServingConfig(shards=1, flush_interval=0.5)
        )
        service.submit(lu(t=1.0, seq=1), arrival=0.0)
        sim.run()
        # The flush fires 0.5 s after submission (at sim time 0).
        assert service.latency.count == 1
        assert service.latency.max == pytest.approx(0.5)
        assert service.latency.quantile(0.5) == pytest.approx(0.5)


class TestBackpressure:
    def test_full_queue_sheds(self):
        sim = Simulator()
        service = IngestService(
            sim, ServingConfig(shards=1, queue_capacity=2)
        )
        results = [service.submit(lu(t=float(i), seq=i)) for i in range(4)]
        assert results == [True, True, False, False]
        assert service.stats.shed == 2
        assert service.stats.shed_rate == pytest.approx(0.5)
        assert service.stats.shed_per_shard == [2]

    def test_submit_rows_sheds_past_free_room(self):
        """A run longer than the queue's free room is cut: the head is
        queued, the tail shed, and a flush frees the room again."""
        sim = Simulator()
        service = IngestService(
            sim, ServingConfig(shards=1, queue_capacity=2)
        )
        batch, rows = rows_of(*(lu(t=float(i), seq=i) for i in range(3)))
        assert service.submit(lu(t=0.5, seq=0))
        assert service.submit_rows(batch, rows, np.zeros(3), 0) == 1
        assert service.stats.shed == 2
        assert service.backlog == 2
        sim.run()
        assert service.submit_rows(batch, rows, np.zeros(3), 0) == 2
        assert service.stats.offered == 7
        assert service.stats.accepted == 4

    def test_conservation_law(self):
        sim = Simulator()
        service = IngestService(
            sim, ServingConfig(shards=2, queue_capacity=3, batch_size=2)
        )
        for i in range(20):
            service.submit(lu(node=f"n{i % 5}", t=float(i), seq=i))
        sim.run()
        stats = service.stats
        store = service.store
        assert stats.offered == stats.accepted + stats.shed
        assert stats.accepted == (
            store.applied + store.duplicates + store.reordered
        )

    def test_queue_depth_high_water_mark(self):
        sim = Simulator()
        service = IngestService(sim, ServingConfig(shards=1))
        for i in range(7):
            service.submit(lu(t=float(i), seq=i))
        assert service.stats.max_queue_depth == 7
        assert service.stats.max_total_depth == 0  # measured at flush
        sim.run()
        assert service.stats.max_total_depth == 7


class TestTelemetry:
    def test_metrics_registered_and_counted(self):
        telemetry = Telemetry(TelemetryConfig(enabled=True))
        sim = Simulator()
        service = IngestService(
            sim,
            ServingConfig(shards=1, queue_capacity=1),
            telemetry=telemetry,
        )
        service.submit(lu(t=1.0, seq=1))
        service.submit(lu(t=2.0, seq=2))  # shed
        sim.run()
        registry = telemetry.registry
        assert registry.get(
            "serving.ingest.offered", service="serving"
        ).value == 2
        assert registry.get(
            "serving.ingest.shed", service="serving"
        ).value == 1
        histogram = registry.get("serving.ingest.latency", service="serving")
        assert histogram is service.latency
        assert histogram.count == 1

    def test_quantiles_without_telemetry(self):
        """p50/p99 must be computable even with telemetry disabled."""
        sim = Simulator()
        service = IngestService(sim, ServingConfig(shards=1))
        service.submit(lu(t=1.0, seq=1))
        sim.run()
        assert service.latency.quantile(0.99) > 0.0


class TestCrashRecovery:
    def make_service(self, sim, tmp_path, **kw):
        from repro.serving import DurabilityManager

        return IngestService(
            sim,
            ServingConfig(shards=2, flush_interval=0.01, **kw),
            durability=DurabilityManager(tmp_path),
        )

    def test_crash_without_durability_rejected(self):
        service = IngestService(Simulator(), ServingConfig(shards=1))
        with pytest.raises(ValueError, match="durability"):
            service.crash_shard(0)
        with pytest.raises(ValueError, match="durability"):
            service.restart_shard(0)

    def test_crash_drops_queue_and_restart_recovers(self, tmp_path):
        sim = Simulator()
        service = self.make_service(sim, tmp_path)
        # Flushed state: two LUs applied and durable.
        service.submit(lu(t=1.0, seq=1))
        service.submit(lu(node="n2", t=1.0, seq=1))
        sim.run()
        index = service.shard_index(lu())
        # Queued-but-unflushed window: submitted, crash before the drain.
        service.submit(lu(t=2.0, seq=2))
        dropped = service.crash_shard(index)
        assert dropped == 1
        assert service.stats.crashes == 1
        assert service.stats.crash_dropped_queued == 1
        assert service.store.shard_is_down(index)
        # While down: sheds are accounted to the crash window.
        assert not service.submit(lu(node="n3", t=3.0, seq=1))
        assert service.stats.shed_down == 1
        recovery = service.restart_shard(index)
        assert not service.store.shard_is_down(index)
        assert recovery.shard == index
        assert recovery.dropped_queued == 1
        assert recovery.shed_while_down == 1
        assert "n1" in recovery.affected_nodes
        assert "n3" in recovery.affected_nodes
        assert recovery.replayed >= 1  # the flushed LUs came back
        # The flushed fix survived the crash.
        latest = service.store.latest("n1")
        assert latest is not None and latest.time == 1.0
        assert service.affected_nodes() >= {"n1", "n3"}

    def test_submit_rows_sheds_whole_run_while_down(self, tmp_path):
        sim = Simulator()
        service = self.make_service(sim, tmp_path)
        probe = lu(t=1.0, seq=1)
        index = service.shard_index(probe)
        service.crash_shard(index)
        batch, rows = rows_of(probe, lu(node="n2", t=1.0, seq=1))
        assert service.submit_rows(batch, rows, np.zeros(2), index) == 0
        assert service.stats.shed_down == 2
        assert service.stats.shed_per_shard[index] == 2
        assert service.restart_shard(index).affected_nodes == ("n1", "n2")

    def test_recovery_wall_clock_injected_not_ambient(self, tmp_path):
        sim = Simulator()
        from repro.serving import DurabilityManager

        ticks = iter([10.0, 10.25])
        service = IngestService(
            sim,
            ServingConfig(shards=1, flush_interval=0.01),
            durability=DurabilityManager(tmp_path),
            recovery_clock=lambda: next(ticks),
        )
        service.submit(lu(t=1.0, seq=1))
        sim.run()
        service.crash_shard(0)
        recovery = service.restart_shard(0)
        assert recovery.wall_s == pytest.approx(0.25)

    def test_report_carries_durability_counters(self, tmp_path):
        from repro.serving import ServingReport

        sim = Simulator()
        service = self.make_service(sim, tmp_path)
        for i in range(1, 6):
            service.submit(lu(t=float(i), seq=i))
        sim.run()
        service.crash_shard(0)
        service.restart_shard(0)
        report = ServingReport.from_service(
            service, records=5, rate=0.0, replay_seconds=5.0
        )
        assert report.wal_appended >= 5
        assert report.wal_flushes >= 1
        assert report.crashes == 1
        assert report.recoveries == 1
        assert report.recovery_replayed >= 1
        assert report.snapshots_written >= 1  # post-recovery snapshot
