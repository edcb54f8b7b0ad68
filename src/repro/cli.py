"""Command-line entry point: regenerate any figure or the full report.

Usage::

    python -m repro report --duration 1800
    python -m repro fig4 --duration 600 --plot
    python -m repro table1
    python -m repro map
    python -m repro confusion --duration 120
    python -m repro energy --duration 120
    python -m repro replicate --duration 60 --seeds 1 2 3
    python -m repro telemetry --duration 120 --export-json telemetry.json
    python -m repro sweep --grid sweep.toml --workers 4 --out sweep_out
    python -m repro sweep --smoke
    python -m repro profile --duration 20 --top 25
    python -m repro chaos --duration 300 --intensities 0 0.5 1.0
    python -m repro chaos --smoke --export-json resilience.json
    python -m repro lint
    python -m repro lint --paths src --lint-format json
    python -m repro serving --record trace.jsonl --duration 120
    python -m repro serving --replay trace.jsonl --rate 50000 --shards 8
    python -m repro serving --smoke --export-json serving.json
    python -m repro --list-targets

Targets are registered in a dispatch table via :func:`register_target`;
adding a new target is one decorated handler function (with a one-line
description for the ``--list-targets`` index), not another branch in an
``elif`` chain.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from repro.experiments import (
    ExperimentConfig,
    fig4_lus_per_second,
    fig5_accumulated_lus,
    fig6_transmission_rate_by_region,
    fig7_rmse_over_time,
    fig8_rmse_by_region_without_le,
    fig9_rmse_by_region_with_le,
    render_report,
    run_experiment,
    table1_specification,
)

__all__ = ["main", "register_target"]

Handler = Callable[[argparse.Namespace], int]

#: target name -> handler; populated by :func:`register_target`.
_HANDLERS: dict[str, Handler] = {}

#: target name -> one-line description shown by ``--list-targets``.
_DESCRIPTIONS: dict[str, str] = {}


def register_target(
    *names: str, description: str = ""
) -> Callable[[Handler], Handler]:
    """Register a handler for one or more CLI target names.

    *description* is the one-line blurb ``--list-targets`` shows for each
    of the names (falls back to the handler's first docstring line).
    """

    def decorate(handler: Handler) -> Handler:
        doc = (handler.__doc__ or "").strip()
        blurb = description or (doc.splitlines()[0] if doc else "")
        for name in names:
            if name in _HANDLERS:
                raise ValueError(f"duplicate CLI target {name!r}")
            _HANDLERS[name] = handler
            _DESCRIPTIONS[name] = blurb
        return handler

    return decorate


def list_targets() -> str:
    """The ``--list-targets`` index: every target with its description."""
    width = max(len(name) for name in _HANDLERS)
    lines = ["available targets:"]
    for name in sorted(_HANDLERS):
        lines.append(f"  {name:<{width}}  {_DESCRIPTIONS.get(name, '')}".rstrip())
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mobile-grid",
        description="Reproduce the ADF mobile-grid evaluation figures.",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        choices=sorted(_HANDLERS),
        help="what to regenerate (omit to list the available targets)",
    )
    parser.add_argument(
        "--list-targets",
        action="store_true",
        help="list every registered target with a one-line description",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=1800.0,
        help="simulated seconds (paper: 1800)",
    )
    parser.add_argument("--seed", type=int, default=42, help="experiment seed")
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[1, 2, 3],
        help="seeds for the replicate target",
    )
    parser.add_argument(
        "--general-df",
        action="store_true",
        help="also run the general (global-DTH) distance filter lanes",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render the figure as an ASCII chart instead of numbers",
    )
    parser.add_argument(
        "--config",
        type=str,
        default=None,
        help="load the experiment configuration from a .toml/.json file "
        "(CLI flags for duration/seed still override)",
    )
    parser.add_argument(
        "--export-json",
        type=str,
        default=None,
        metavar="PATH",
        help="additionally write the full run summary as JSON",
    )
    parser.add_argument(
        "--export-csv",
        type=str,
        default=None,
        metavar="PATH",
        help="additionally write the per-second LU series as CSV",
    )
    parser.add_argument(
        "--markdown",
        type=str,
        default=None,
        metavar="PATH",
        help="with `report`: also write the run as a Markdown document",
    )
    profile = parser.add_argument_group("profile", "options for the profile target")
    profile.add_argument(
        "--top",
        type=int,
        default=25,
        help="how many hot functions to print (profile target)",
    )
    profile.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "calls"),
        default="cumulative",
        help="profile stat ordering (profile target)",
    )
    profile.add_argument(
        "--profile-out",
        type=str,
        default=None,
        metavar="PATH",
        help="also dump the raw pstats file (profile target)",
    )
    sweep = parser.add_argument_group("sweep", "options for the sweep target")
    sweep.add_argument(
        "--grid",
        type=str,
        default=None,
        metavar="PATH",
        help="sweep definition file (.toml/.json with axes/replications/base)",
    )
    sweep.add_argument(
        "--set",
        dest="axes",
        action="append",
        default=[],
        metavar="FIELD=V1,V2",
        help="add a sweep axis inline, e.g. --set duration=300,600 "
        "(repeatable; overrides the same axis from --grid)",
    )
    sweep.add_argument(
        "--replications",
        type=int,
        default=None,
        help="replications per grid cell (seeds derived from the base seed)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial; results are identical)",
    )
    sweep.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="DIR",
        help="checkpoint directory (enables resume after an interrupt)",
    )
    sweep.add_argument(
        "--no-resume",
        action="store_true",
        help="recompute every run even when a checkpoint exists",
    )
    sweep.add_argument(
        "--smoke",
        action="store_true",
        help="run a tiny built-in scenario (CI smoke test; sweep, chaos "
        "and serving)",
    )
    scaling = parser.add_argument_group(
        "scaling", "options for the population-scaling target"
    )
    scaling.add_argument(
        "--node-counts",
        type=int,
        nargs="+",
        default=[1_000, 10_000, 100_000],
        metavar="N",
        help="fleet sizes to sweep through the columnar engine",
    )
    scaling.add_argument(
        "--sweep-duration",
        type=float,
        default=10.0,
        help="simulated seconds per scaling point (the columnar sweep "
        "ignores --duration so the 1800 s default cannot explode a "
        "100k-node run)",
    )
    scaling.add_argument(
        "--exact-kernel",
        action="store_true",
        help="use the bit-exact math kernel instead of the fast one",
    )
    scaling.add_argument(
        "--cluster-mode",
        choices=("exact", "batched"),
        default="exact",
        help="BSAS placement path: exact (bit-faithful sequential) or "
        "batched (epoch-chunked, for the 1M-node rung)",
    )
    scaling.add_argument(
        "--city-blocks",
        type=int,
        nargs=2,
        default=None,
        metavar=("NX", "NY"),
        help="sweep a generated NX x NY grid city instead of the "
        "default campus",
    )
    scaling.add_argument(
        "--block-size",
        type=float,
        default=150.0,
        metavar="M",
        help="city block edge length in metres (with --city-blocks)",
    )
    scaling.add_argument(
        "--record-trace",
        type=str,
        default=None,
        metavar="FILE",
        help="record the largest rung's ADF LU stream as a "
        "repro-lu-trace file (see --trace-lane)",
    )
    chaos = parser.add_argument_group("chaos", "options for the chaos target")
    chaos.add_argument(
        "--intensities",
        type=float,
        nargs="+",
        default=None,
        metavar="I",
        help="fault intensities in [0, 1] to sweep (chaos target)",
    )
    chaos.add_argument(
        "--churn",
        action="store_true",
        help="also inject node churn faults (chaos target)",
    )
    lint = parser.add_argument_group("lint", "options for the lint target")
    lint.add_argument(
        "--paths",
        type=str,
        nargs="+",
        default=None,
        metavar="PATH",
        help="files/directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--lint-format",
        choices=("text", "json"),
        default="text",
        help="lint report format (lint target)",
    )
    lint.add_argument(
        "--changed",
        action="store_true",
        help="lint only git-modified files (lint target)",
    )
    serving = parser.add_argument_group(
        "serving", "options for the serving target"
    )
    serving.add_argument(
        "--record",
        type=str,
        default=None,
        metavar="PATH",
        help="record the experiment's LU stream as a replayable trace "
        "(columnar engine; exits 2 on a config it does not support)",
    )
    serving.add_argument(
        "--replay",
        type=str,
        default=None,
        metavar="PATH",
        help="replay a recorded trace through the ingest service",
    )
    serving.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="MSG_PER_S",
        help="open-loop replay rate in msg/s (0 = as recorded)",
    )
    serving.add_argument(
        "--shards",
        type=int,
        default=4,
        help="location-store shard count (serving target)",
    )
    serving.add_argument(
        "--trace-lane",
        type=str,
        default="adf-1",
        metavar="LANE",
        help="which harness lane's LU stream to record (default adf-1)",
    )
    serving.add_argument(
        "--sweep-interval",
        type=float,
        default=0.0,
        metavar="SEC",
        help="trace-time seconds between estimation sweeps (0 = off)",
    )
    serving.add_argument(
        "--recovery",
        action="store_true",
        help="chaos lane: crash a shard mid-replay, recover from WAL + "
        "snapshot, and gate on convergence with the uncrashed run",
    )
    serving.add_argument(
        "--crash-shard",
        type=int,
        default=0,
        metavar="N",
        help="which store shard the recovery lane crashes (default 0)",
    )
    serving.add_argument(
        "--crash-at",
        type=float,
        default=0.45,
        metavar="FRAC",
        help="crash time as a fraction of the replay horizon (default 0.45)",
    )
    serving.add_argument(
        "--restart-at",
        type=float,
        default=0.75,
        metavar="FRAC",
        help="restart time as a fraction of the replay horizon (default 0.75)",
    )
    serving.add_argument(
        "--wal-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="directory for per-shard WALs and snapshots "
        "(default: a temporary directory)",
    )
    serving.add_argument(
        "--snapshot-every",
        type=int,
        default=2048,
        metavar="N",
        help="snapshot+compact a shard every N WAL'd LUs (0 = never)",
    )
    serving.add_argument(
        "--export-golden",
        type=str,
        default=None,
        metavar="PATH",
        help="write the uncrashed run's filtered store export (recovery lane)",
    )
    serving.add_argument(
        "--export-recovered",
        type=str,
        default=None,
        metavar="PATH",
        help="write the recovered run's filtered store export (recovery lane)",
    )
    return parser


@register_target(
    "table1", description="print the paper's Table 1 population specification"
)
def _table1_target(args: argparse.Namespace) -> int:
    for row in table1_specification():
        print(
            f"{row.region_kind:<9} x{row.region_count}  "
            f"{row.mobility_pattern:<4} {row.node_type:<8} "
            f"n={row.node_count:<4} VR={row.velocity_range}"
        )
    return 0


@register_target(
    "map", description="render the campus map with the node population"
)
def _map_target(args: argparse.Namespace) -> int:
    from repro.campus import default_campus
    from repro.mobility import build_population, table1_spec
    from repro.util.rng import RngRegistry
    from repro.viz import render_campus

    campus = default_campus()
    nodes = build_population(campus, table1_spec(), RngRegistry(args.seed))
    for node in nodes:
        node.advance(30.0)
    print(render_campus(campus, nodes))
    return 0


@register_target(
    "confusion",
    description="mobility-classifier confusion matrix on one run",
)
def _confusion_target(args: argparse.Namespace) -> int:
    from repro.analysis import evaluate_classifier

    duration = min(args.duration, 300.0)
    matrix = evaluate_classifier(ExperimentConfig(seed=args.seed), duration=duration)
    print(matrix.render())
    return 0


@register_target(
    "replicate",
    description="re-run key metrics across seeds with confidence intervals",
)
def _replicate_target(args: argparse.Namespace) -> int:
    from repro.analysis import replicate, summarize_metric

    config = ExperimentConfig(duration=args.duration, dth_factors=(1.0,))
    results = replicate(config, args.seeds)
    for metric, extractor in (
        ("reduction(adf-1)", lambda r: r.reduction_vs_ideal("adf-1")),
        ("rmse w/ LE", lambda r: r.lanes["adf-1"].mean_rmse(with_le=True)),
        ("rmse w/o LE", lambda r: r.lanes["adf-1"].mean_rmse(with_le=False)),
        ("classifier acc", lambda r: r.classification_accuracy),
    ):
        print(summarize_metric(results, extractor, metric=metric))
    return 0


@register_target(
    "lint",
    description="run the repo's determinism/invariant static analysis",
)
def _lint_target(args: argparse.Namespace) -> int:
    from repro.lint import main as lint_main

    argv = list(args.paths or ())
    argv += ["--format", args.lint_format]
    if args.changed:
        argv.append("--changed")
    return lint_main(argv)


@register_target(
    "profile",
    description="cProfile one experiment run and print the hottest functions",
)
def _profile_target(args: argparse.Namespace) -> int:
    """cProfile one experiment run and print the hottest functions.

    The run is ``run_experiment``'s, so it profiles the engine it picks:
    columnar for a supported config, the object harness otherwise.  The
    duration default (1800 s) is sized for figures, not profiling;
    20-30 simulated seconds is plenty to rank the hot paths.
    """
    import cProfile
    import pstats

    config = _build_config(args)
    profiler = cProfile.Profile()
    profiler.enable()
    run_experiment(config)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.profile_out:
        stats.dump_stats(args.profile_out)
        print(f"wrote {args.profile_out}")
    return 0


def _parse_axis_token(token: str) -> object:
    """One inline axis value: int, then float, then bare string."""
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            continue
    return token


def _smoke_spec() -> "SweepSpec":
    """A tiny 2x2 grid over a reduced population (the CI smoke sweep)."""
    from repro.experiments import SweepSpec
    from repro.mobility.population import PopulationSpec

    base = ExperimentConfig(
        duration=8.0,
        dth_factors=(1.0,),
        population=PopulationSpec(
            road_humans_per_road=1,
            road_vehicles_per_road=1,
            building_stop=1,
            building_random=1,
            building_linear=1,
        ),
    )
    return SweepSpec.from_axes(
        {"duration": (6.0, 8.0), "channel_loss": (0.0, 0.01)},
        base=base,
        replications=1,
    )


@register_target(
    "chaos",
    description="fault-intensity resilience sweep (loss/outage/churn)",
)
def _chaos_target(args: argparse.Namespace) -> int:
    """Fault-intensity sweep; prints (and optionally exports) the report."""
    from repro.experiments import ChaosConfig, chaos_sweep
    from repro.mobility.population import PopulationSpec

    if args.smoke:
        config = ExperimentConfig(
            duration=40.0,
            seed=args.seed,
            population=PopulationSpec(
                road_humans_per_road=1,
                road_vehicles_per_road=1,
                building_stop=1,
                building_random=1,
                building_linear=1,
            ),
        )
        intensities = tuple(args.intensities or (0.0, 0.6))
    else:
        config = _build_config(args)
        intensities = tuple(args.intensities or (0.0, 0.25, 0.5, 0.75, 1.0))
    report = chaos_sweep(intensities, config, chaos=ChaosConfig(churn=args.churn))
    print(report.render())
    if args.export_json:
        with open(args.export_json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"wrote {args.export_json}")
    return 0


@register_target(
    "sweep",
    description="parameter-grid sweep with checkpoint/resume and workers",
)
def _sweep_target(args: argparse.Namespace) -> int:
    from repro.experiments import SweepSpec, load_sweep_spec, run_sweep

    if args.smoke:
        spec = _smoke_spec()
    elif args.grid:
        spec = load_sweep_spec(args.grid)
    else:
        spec = SweepSpec(base=_build_config(args))
    if args.axes:
        inline = {
            name: tuple(_parse_axis_token(token) for token in values.split(","))
            for name, _, values in (item.partition("=") for item in args.axes)
        }
        merged = dict(spec.axes)
        merged.update(inline)
        spec = SweepSpec.from_axes(
            merged, base=spec.base, replications=spec.replications
        )
    if args.replications is not None:
        spec = SweepSpec(
            base=spec.base, axes=spec.axes, replications=args.replications
        )
    result = run_sweep(
        spec,
        out_dir=args.out,
        workers=args.workers,
        resume=not args.no_resume,
        progress=print,
    )
    print(result.render())
    return 0


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        from dataclasses import replace

        from repro.experiments.config_io import load_config

        config = load_config(args.config)
        return replace(
            config,
            duration=args.duration,
            seed=args.seed,
            include_general_df=args.general_df or config.include_general_df,
        )
    return ExperimentConfig(
        duration=args.duration,
        seed=args.seed,
        include_general_df=args.general_df,
    )


@register_target(
    "telemetry",
    description="run one experiment with telemetry on and dump the snapshot",
)
def _telemetry_target(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.experiments.harness import MobileGridExperiment
    from repro.telemetry import TelemetryConfig, write_snapshot_json

    config = replace(_build_config(args), telemetry=TelemetryConfig(enabled=True))
    experiment = MobileGridExperiment(config)
    experiment.run()
    print(experiment.telemetry.summary())
    if args.export_json:
        snapshot = experiment.telemetry.snapshot()
        print(f"wrote {write_snapshot_json(snapshot, args.export_json)}")
    return 0


@register_target(
    "energy",
    description="per-node-type transmission energy accounting report",
)
def _energy_target(args: argparse.Namespace) -> int:
    from repro.analysis import energy_report
    from repro.experiments.harness import MobileGridExperiment

    experiment = MobileGridExperiment(_build_config(args))
    result = experiment.run()
    print(energy_report(result, experiment.nodes).render())
    return 0


@register_target(
    "report",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    description="regenerate a paper figure (fig4..fig9) or the full report",
)
def _figure_target(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = run_experiment(config)
    if args.export_json:
        from repro.experiments.io import write_json

        print(f"wrote {write_json(result, args.export_json)}")
    if args.export_csv:
        from repro.experiments.io import write_series_csv

        print(f"wrote {write_series_csv(result, args.export_csv)}")
    if args.target == "report":
        print(render_report(result))
        if args.markdown:
            from repro.experiments.markdown_report import write_markdown_report

            print(f"wrote {write_markdown_report(result, args.markdown)}")
    elif args.target == "fig4":
        series = fig4_lus_per_second(result)
        if args.plot:
            from repro.viz import line_chart

            print(line_chart(series, title="Fig. 4: transmitted LUs per second"))
        else:
            for name, s in series.items():
                print(f"{name}: mean {s.mean():.1f} LU/s over {len(s)}s")
    elif args.target == "fig5":
        series = fig5_accumulated_lus(result)
        if args.plot:
            from repro.viz import line_chart

            print(line_chart(series, title="Fig. 5: accumulated LUs"))
        else:
            for name, s in series.items():
                _, total = s.last()
                print(f"{name}: {int(total)} accumulated LUs")
    elif args.target == "fig6":
        rates = fig6_transmission_rate_by_region(result)
        if args.plot:
            from repro.viz import bar_chart

            rows = [
                (f"{name}/{kind}", value * 100)
                for name, kinds in rates.items()
                for kind, value in kinds.items()
            ]
            print(bar_chart(rows, unit="%", title="Fig. 6: transmission rate"))
        else:
            for name, kinds in rates.items():
                print(
                    f"{name}: road {kinds['road']:.1%}, "
                    f"building {kinds['building']:.1%}"
                )
    elif args.target == "fig7":
        data = fig7_rmse_over_time(result)
        if args.plot:
            from repro.viz import line_chart

            flattened = {
                f"{name} ({mode})": series
                for name, modes in data.items()
                for mode, series in modes.items()
            }
            print(line_chart(flattened, title="Fig. 7: RMSE over time"))
        else:
            for name, series in data.items():
                print(
                    f"{name}: mean RMSE w/o LE "
                    f"{series['without_le'].mean():.2f} m, "
                    f"w/ LE {series['with_le'].mean():.2f} m"
                )
    elif args.target in ("fig8", "fig9"):
        data = (
            fig8_rmse_by_region_without_le(result)
            if args.target == "fig8"
            else fig9_rmse_by_region_with_le(result)
        )
        if args.plot:
            from repro.viz import bar_chart

            rows = [
                (f"{name}/{kind}", row[kind])
                for name, row in data.items()
                for kind in ("road", "building")
            ]
            print(bar_chart(rows, unit="m", title=f"{args.target}: RMSE by region"))
        else:
            for name, row in data.items():
                print(
                    f"{name}: road {row['road']:.2f} m, building "
                    f"{row['building']:.2f} m (ratio {row['ratio']:.2f}x)"
                )
    return 0


@register_target(
    "serving",
    description="broker-as-a-service: record / replay LU traces at rate",
)
def _serving_target(args: argparse.Namespace) -> int:
    """Record an LU trace and/or replay one through the ingest service."""
    from repro.serving import (
        ReplayConfig,
        ServingConfig,
        read_trace,
        record_columnar_trace,
        replay_trace,
    )
    from repro.telemetry import Telemetry, TelemetryConfig

    if args.smoke:
        from repro.mobility.population import PopulationSpec

        config = ExperimentConfig(
            duration=20.0,
            seed=args.seed,
            population=PopulationSpec(
                road_humans_per_road=1,
                road_vehicles_per_road=1,
                building_stop=1,
                building_random=1,
                building_linear=1,
            ),
        )
        meta, records = record_columnar_trace(
            config, lane=args.trace_lane, path=args.record
        )
        print(f"recorded {len(records)} LUs (lane {args.trace_lane})")
        rate = args.rate if args.rate is not None else 2000.0
        sweep = args.sweep_interval or 1.0
    elif args.replay:
        meta, records = read_trace(args.replay)
        print(f"loaded {len(records)} LUs from {args.replay}")
        rate = args.rate if args.rate is not None else 10_000.0
        sweep = args.sweep_interval
    elif args.record:
        from repro.core.columnar.engine import unsupported_reason

        config = _build_config(args)
        reason = unsupported_reason(config)
        if reason is not None:
            print(f"serving --record: {reason}", file=sys.stderr)
            return 2
        meta, records = record_columnar_trace(
            config, lane=args.trace_lane, path=args.record
        )
        print(
            f"wrote {args.record}: {len(records)} LUs "
            f"(lane {args.trace_lane}, seed {meta['seed']})"
        )
        return 0
    else:
        print(
            "serving needs --record PATH, --replay PATH or --smoke",
            file=sys.stderr,
        )
        return 2

    replay_config = ReplayConfig(
        rate=rate,
        sweep_interval=sweep,
        serving=ServingConfig(shards=args.shards),
    )
    if args.recovery:
        import tempfile

        from repro.serving import run_recovery_gate, write_filtered_export

        wal_dir = args.wal_dir or tempfile.mkdtemp(prefix="repro-wal-")
        gate, golden_export, recovered_export = run_recovery_gate(
            records,
            wal_dir,
            replay=replay_config,
            crash_shard=args.crash_shard,
            crash_fraction=args.crash_at,
            restart_fraction=args.restart_at,
            snapshot_every=args.snapshot_every,
            trace_meta=meta,
        )
        print(gate.summary())
        if args.export_golden:
            path = write_filtered_export(
                golden_export, gate.affected_nodes, args.export_golden
            )
            print(f"wrote {path}")
        if args.export_recovered:
            path = write_filtered_export(
                recovered_export, gate.affected_nodes, args.export_recovered
            )
            print(f"wrote {path}")
        if args.export_json:
            print(f"wrote {gate.write_json(args.export_json)}")
        if not gate.converged:
            print(
                "recovery DIVERGED on: "
                + ", ".join(gate.divergent_nodes),
                file=sys.stderr,
            )
            return 1
        return 0
    telemetry = Telemetry(TelemetryConfig(enabled=True))
    report = replay_trace(
        records, replay_config, trace_meta=meta, telemetry=telemetry
    )
    print(report.summary())
    if args.export_json:
        print(f"wrote {report.write_json(args.export_json)}")
    return 0


@register_target(
    "population-scaling",
    description="columnar-engine fleet-size sweep: LU rate & RMSE at 1k-100k+ nodes",
)
def _population_scaling_target(args: argparse.Namespace) -> int:
    """Sweep fleet sizes through the columnar engine and print the table."""
    from repro.core.columnar.kernels import EXACT_KERNEL, FAST_KERNEL
    from repro.experiments.scaling import population_sweep, render_population_table

    kernel = EXACT_KERNEL if args.exact_kernel else FAST_KERNEL
    campus = None
    if args.city_blocks is not None:
        import numpy as np

        from repro.campus.generator import generate_grid_campus

        nx, ny = args.city_blocks
        campus = generate_grid_campus(
            blocks_x=nx,
            blocks_y=ny,
            block_size=args.block_size,
            rng=np.random.default_rng(args.seed),
        )
    points = population_sweep(
        tuple(args.node_counts),
        duration=args.sweep_duration,
        seed=args.seed,
        kernel=kernel,
        campus=campus,
        cluster_mode=args.cluster_mode,
        trace_path=args.record_trace,
        trace_lane=args.trace_lane,
    )
    print(render_population_table(points))
    if args.record_trace:
        print(f"recorded trace to {args.record_trace}")
    if args.export_json:
        import json

        payload = [
            {
                "target_nodes": p.target_nodes,
                "node_count": p.node_count,
                "reduction": p.reduction,
                "lu_rate": p.lu_rate,
                "ideal_lu_rate": p.ideal_lu_rate,
                "rmse_with_le": p.rmse_with_le,
                "wall_seconds": p.wall_seconds,
                "steps": p.steps,
                "peak_rss_mb": p.peak_rss_mb,
                "node_steps_per_second": p.node_steps_per_second,
                "cluster_mode": args.cluster_mode,
            }
            for p in points
        ]
        with open(args.export_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.export_json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.target is None or args.list_targets:
        print(list_targets())
        return 0
    return _HANDLERS[args.target](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
