"""Serving ingest bench: replay throughput and tail latency.

Not a paper figure — this guards the broker-as-a-service ingest path
(``repro.serving``) the way ``bench_simulation.py`` guards the engine.
A fixed-seed experiment records one lane's LU stream once per module;
each timed round then replays that byte-identical trace open-loop
through a fresh sharded ingest service.  ``compare.py`` gates on the
wall-clock minimum as usual, and the ``extra_info`` block additionally
records the service-level numbers (sustained msgs/s, virtual-time p99
ingest latency) so the baseline JSON documents both axes.
"""

import itertools
import statistics
import time

import pytest

from repro.experiments import ExperimentConfig
from repro.serving import (
    DurabilityConfig,
    DurabilityManager,
    ReplayConfig,
    ServingConfig,
    read_trace,
    record_columnar_trace,
    replay_trace,
    replay_trace_full,
    run_recovery_gate,
    write_trace,
)

from benchmarks.conftest import print_header

#: Fixed trace source: one lane, 30 simulated seconds, paper population.
TRACE_CONFIG = ExperimentConfig(duration=30.0, seed=11, dth_factors=(1.0,))

#: Open-loop replay well above the recorded pace, sized so nothing sheds:
#: drain ceiling = shards * batch_size / flush_interval = 164k msg/s.
REPLAY = ReplayConfig(
    rate=100_000.0,
    serving=ServingConfig(
        shards=4, queue_capacity=4096, batch_size=2048, flush_interval=0.05
    ),
)

#: Recovery measurement uses tighter flush windows so the crash hits a
#: WAL with real flushed state behind it (the trace horizon at 100k
#: msg/s is well under REPLAY's 50 ms first flush).
GATE_REPLAY = ReplayConfig(
    rate=100_000.0,
    serving=ServingConfig(
        shards=4, queue_capacity=4096, batch_size=2048, flush_interval=0.002
    ),
)

#: WAL-on rounds the bench times, each after one WAL-off round of the
#: same replay that the test times itself.
WAL_ROUNDS = 20


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    """(meta, records) for the fixed-seed trace every round replays.

    Recorded once, then written and loaded back — replaying a trace
    *file* is what the serving CLI does.  Every round replays the same
    loaded batch, so the WAL packs its rows' entries from the columns
    once per trace instead of on every replay.
    """
    meta, records = record_columnar_trace(TRACE_CONFIG)
    path = write_trace(
        records, tmp_path_factory.mktemp("trace") / "lane.jsonl", meta=meta
    )
    return read_trace(path)


def test_serving_ingest_replay(benchmark, recorded_trace):
    """Replay the fixed trace at 100k msg/s offered load."""
    meta, records = recorded_trace

    def run():
        return replay_trace(records, REPLAY, trace_meta=meta)

    report = benchmark(run)
    wall_min = benchmark.stats.stats.min
    benchmark.extra_info["trace_records"] = report.offered
    benchmark.extra_info["msgs_per_s"] = round(report.offered / wall_min, 1)
    benchmark.extra_info["p99_latency_s"] = report.latency_p99

    print_header("Serving: open-loop replay of a fixed recorded trace")
    print(report.summary())
    print(
        f"wall-clock ingest ceiling: {report.offered / wall_min:,.0f} msgs/s"
    )

    # The service was sized to absorb the full offered load; any shed
    # here is a capacity-planning regression, not noise.
    assert report.shed == 0
    assert report.applied > 0
    assert report.latency_p99 > 0.0


def test_serving_ingest_replay_wal(benchmark, recorded_trace, tmp_path):
    """Same replay with the write-ahead log on: the durability tax.

    Gated two ways: ``wal_msgs_per_s`` against the committed baseline
    (full local gate), and ``wal_on_vs_off_speedup`` — the median over
    paired rounds of WAL-off time over WAL-on time — under CI's
    hardware-independent ``*_speedup`` gate.  The two kinds of round
    alternate, a WAL-off round (timed here) right before each WAL-on
    round (timed by the bench), so each pair sees the same host load.
    ``wal_recovery_s`` records how long a mid-replay crash takes to
    recover (snapshot load + WAL tail replay), lower-is-better under
    ``compare.py``'s ``*_recovery_s`` rule.
    """
    meta, records = recorded_trace
    rounds = itertools.count()
    off_times: list[float] = []

    def off_round():
        start = time.perf_counter()
        replay_trace(records, REPLAY, trace_meta=meta)
        off_times.append(time.perf_counter() - start)

    def run():
        manager = DurabilityManager(
            tmp_path / f"round-{next(rounds)}",
            DurabilityConfig(snapshot_every=4096),
        )
        report, _service = replay_trace_full(
            records, REPLAY, trace_meta=meta, durability=manager
        )
        manager.close()
        return report

    report = benchmark.pedantic(run, setup=off_round, rounds=WAL_ROUNDS)
    wall_min = benchmark.stats.stats.min
    benchmark.extra_info["wal_msgs_per_s"] = round(
        report.offered / wall_min, 1
    )
    benchmark.extra_info["wal_appended"] = report.wal_appended
    # < 1: the WAL costs throughput.
    speedup = statistics.median(
        off / on for off, on in zip(off_times, benchmark.stats.stats.data)
    )
    benchmark.extra_info["wal_on_vs_off_speedup"] = round(speedup, 4)

    # One measured crash/recovery on the same trace: the chaos lane's
    # convergence gate doubles as the recovery-time probe.
    gate_report, _golden, _crashed = run_recovery_gate(
        records,
        tmp_path / "gate",
        replay=GATE_REPLAY,
        snapshot_every=4096,
        trace_meta=meta,
    )
    benchmark.extra_info["wal_recovery_s"] = round(
        gate_report.recovery_wall_s, 6
    )

    print_header("Serving: WAL-on replay + crash recovery")
    print(report.summary())
    print(
        f"WAL-on ceiling: {report.offered / wall_min:,.0f} msgs/s "
        f"({report.wal_appended} entries logged)"
    )
    print(f"WAL-on vs WAL-off: {speedup:.3f}x over {len(off_times)} pairs")
    print(gate_report.summary())

    assert report.shed == 0
    assert report.wal_appended >= report.applied
    assert gate_report.converged
    # The durability tax budget: WAL-on within 25% of WAL-off, measured
    # in alternating rounds on the same machine.
    assert 1 / speedup <= 1.25, (
        f"WAL overhead {1 / speedup:.2f}x exceeds the 1.25x budget"
    )
