"""Tests for open-loop trace replay and its byte-reproducible report."""

import json

import pytest

from repro.serving import ReplayConfig, ServingConfig, replay_trace
from repro.serving.loadgen import _arrival_times
from repro.telemetry import Telemetry, TelemetryConfig


class TestArrivalTimes:
    def test_fixed_rate_spacing(self):
        from tests.serving.test_trace import make_record

        records = [make_record(seq=s) for s in range(4)]
        assert _arrival_times(records, 2.0).tolist() == [0.0, 0.5, 1.0, 1.5]

    def test_as_recorded_uses_trace_offsets(self):
        from tests.serving.test_trace import make_record

        records = [make_record(time=10.0), make_record(time=12.5)]
        assert _arrival_times(records, 0.0).tolist() == [0.0, 2.5]


class TestDeterminism:
    def test_same_trace_same_config_byte_identical(self, tiny_trace):
        meta, records = tiny_trace
        config = ReplayConfig(rate=800.0, sweep_interval=1.0)
        a = replay_trace(records, config, trace_meta=meta)
        b = replay_trace(records, config, trace_meta=meta)
        assert a.to_json() == b.to_json()

    def test_export_round_trips_as_sorted_json(self, tmp_path, tiny_trace):
        meta, records = tiny_trace
        report = replay_trace(records, ReplayConfig(rate=500.0), trace_meta=meta)
        path = report.write_json(tmp_path / "report.json")
        loaded = json.loads(path.read_text())
        assert loaded == report.to_json_dict()
        assert path.read_text() == report.to_json() + "\n"

    def test_telemetry_metrics_ride_in_the_report(self, tiny_trace):
        meta, records = tiny_trace
        telemetry = Telemetry(TelemetryConfig(enabled=True))
        report = replay_trace(
            records, ReplayConfig(rate=500.0), telemetry=telemetry
        )
        assert report.metrics is not None
        latency = report.metrics["serving.ingest.latency{service=serving}"]
        assert latency["count"] == report.latency_count
        assert latency["quantiles"]["0.99"] == report.latency_p99
        assert "serving.ingest.shed{service=serving}" in report.metrics

    def test_metrics_absent_without_telemetry(self, tiny_trace):
        _, records = tiny_trace
        assert replay_trace(records, ReplayConfig()).metrics is None


class TestWorkloadShape:
    def test_all_records_offered(self, tiny_trace):
        meta, records = tiny_trace
        report = replay_trace(records, ReplayConfig(rate=1000.0))
        assert report.records == len(records)
        assert report.offered == len(records)
        assert report.offered == report.accepted + report.shed

    def test_latency_bounded_by_flush_interval_when_unloaded(self, tiny_trace):
        _, records = tiny_trace
        serving = ServingConfig(queue_capacity=100_000, batch_size=100_000)
        report = replay_trace(
            records, ReplayConfig(rate=1000.0, serving=serving)
        )
        assert report.shed == 0
        # Worst case: arrive just after a window opens (one window of
        # queueing to the submit event) plus one flush interval.
        assert report.latency_max <= 2 * serving.flush_interval + 1e-9
        assert 0.0 < report.latency_p50 <= 2 * serving.flush_interval

    def test_saturation_sheds_not_buffers(self, tiny_trace):
        _, records = tiny_trace
        serving = ServingConfig(
            shards=2, queue_capacity=8, batch_size=4, flush_interval=0.05
        )
        report = replay_trace(
            records, ReplayConfig(rate=1_000_000.0, serving=serving)
        )
        assert report.shed > 0
        assert report.shed_rate > 0.5
        # Bounded queues: depth never exceeded capacity * shards.
        assert report.max_queue_depth <= serving.queue_capacity

    def test_higher_rate_shorter_replay(self, tiny_trace):
        _, records = tiny_trace
        slow = replay_trace(records, ReplayConfig(rate=500.0))
        fast = replay_trace(records, ReplayConfig(rate=5000.0))
        assert fast.replay_seconds < slow.replay_seconds
        assert fast.offered_rate > slow.offered_rate

    def test_as_recorded_rate_follows_trace_span(self, tiny_trace):
        meta, records = tiny_trace
        report = replay_trace(records, ReplayConfig(rate=0.0))
        span = records[-1].time - records[0].time
        assert report.replay_seconds >= span

    def test_sweeps_exercise_degradation_machinery(self, tiny_trace):
        _, records = tiny_trace
        without = replay_trace(records, ReplayConfig(rate=500.0))
        with_sweeps = replay_trace(
            records, ReplayConfig(rate=500.0, sweep_interval=1.0)
        )
        assert without.estimates_made == 0
        assert with_sweeps.estimates_made > 0

    def test_empty_trace(self):
        report = replay_trace([], ReplayConfig(rate=100.0))
        assert report.records == 0
        assert report.offered == 0
        assert report.replay_seconds == 0.0

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="rate"):
            ReplayConfig(rate=-1.0)
        with pytest.raises(ValueError, match="sweep_interval"):
            ReplayConfig(sweep_interval=-0.1)
        # NaN fails every comparison, so a bare "< 0" check let it through:
        # a NaN rate replayed as one burst, a NaN interval never swept.
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="rate"):
                ReplayConfig(rate=bad)
            with pytest.raises(ValueError, match="sweep_interval"):
                ReplayConfig(sweep_interval=bad)
