"""A tour of the telemetry subsystem, standalone and on a full run.

Part 1 uses the instruments directly — registry, tracer, event log — the
way an instrumented component does.  Part 2 runs the real experiment with
telemetry enabled and mines the snapshot: which layer executed what, how
large the clusters are whose members the distance filter suppresses, and
how queue depths evolved over sim-time.

Usage::

    python examples/telemetry_tour.py [duration-seconds]
"""

import sys

from repro import ExperimentConfig
from repro.experiments.harness import MobileGridExperiment
from repro.telemetry import (
    EventLog,
    MetricsRegistry,
    Severity,
    TelemetryConfig,
    Tracer,
)


def part1_instruments() -> None:
    print("=== Part 1: instruments, standalone ===\n")
    registry = MetricsRegistry()

    sent = registry.counter("demo.sent", link="uplink-a")
    depth = registry.gauge("demo.depth", link="uplink-a")
    latency = registry.histogram("demo.latency")
    for i in range(1, 101):
        sent.inc()
        depth.set(i % 7)
        latency.observe(0.001 * i)
    print(f"{sent.full_name} = {sent.value:.0f}")
    print(f"{depth.full_name} = {depth.value:.0f}")
    print(
        f"{latency.full_name}: n={latency.count} "
        f"p50={latency.quantile(0.5) * 1e3:.1f}ms "
        f"p99={latency.quantile(0.99) * 1e3:.1f}ms"
    )

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    for name, stats in tracer.stats().items():
        print(f"span {name}: n={stats.count} wall={stats.wall_total * 1e6:.0f}us")

    log = EventLog(capacity=4)
    for i in range(6):  # capacity 4: the first two records are evicted
        log.info(f"step {i}", time=float(i), source="demo")
    log.warning("queue saturated", time=6.0, source="demo", depth=256)
    print(
        f"events: logged={log.total_logged} dropped={log.dropped} "
        f"retained={[r.message for r in log.records()]}"
    )


def part2_full_run(duration: float) -> None:
    print("\n=== Part 2: an instrumented experiment run ===\n")
    config = ExperimentConfig(
        duration=duration,
        dth_factors=(1.0,),
        telemetry=TelemetryConfig(enabled=True, sample_interval=10.0),
    )
    experiment = MobileGridExperiment(config)
    experiment.run()
    snapshot = experiment.telemetry.snapshot()

    metrics = snapshot["metrics"]
    by_layer: dict[str, int] = {}
    for name in metrics:
        by_layer[name.split(".", 1)[0]] = by_layer.get(name.split(".", 1)[0], 0) + 1
    print("metrics per layer:", dict(sorted(by_layer.items())))

    sizes = metrics["adf.suppressed_cluster_size{filter=adf(1av)}"]
    print("\ncluster size of each suppressed LU's node (0 = unclustered):")
    print(
        f"  n={sizes['count']} mean={sizes['mean']:.1f} "
        f"p50={sizes['quantiles']['0.5']:.0f} max={sizes['max']:.0f}"
    )
    cumulative = [(f"<={b:g}", n) for b, n in sizes["buckets"] if b != "inf"]
    print("  suppressed LUs by cluster-size bound (cumulative):", cumulative)

    samples = snapshot["samples"]
    received = samples["broker.lu_received{broker=adf-1/le-on}"]
    print("\nbroker.lu_received{broker=adf-1/le-on} every 10 sim-seconds:")
    print("  times :", [f"{t:.0f}" for t in received["times"]])
    print("  values:", [f"{v:.0f}" for v in received["values"]])

    print("\nfull summary table:\n")
    print(experiment.telemetry.summary())


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 120.0
    part1_instruments()
    part2_full_run(duration)


if __name__ == "__main__":
    main()
