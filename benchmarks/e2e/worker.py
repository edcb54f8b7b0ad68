"""Child process of ``run.py``: one workload's repetitions, one JSON line.

Runs repetitions of the workload for about ``--seconds`` (at least
``MIN_REPS``), each with a fresh set-up from the same seed, and reports
the medians of their set-up time, timed phase and rate, scaled to the
reference speed of ``hostspeed.py`` so that load from other tenants of
the machine does not move them.  With ``--trace 1`` repetitions alternate
untraced and traced, so the tracing overhead is measured against
untraced repetitions of the same process.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``
with bare metric values; ``run.py`` attaches units and peak memory.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import SpeedProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Repetitions per untraced run, and traced + untraced pairs per traced run.
MIN_REPS = 3
MIN_TRACE_PAIRS = 2


def _repetitions(workload, seconds: float, trace: bool, tracer):
    """Yield ``(traced, setup_s, outcome, layer_totals)`` per repetition.

    All times it yields (set-up, the outcome's, the layers') are in
    seconds at the reference speed of ``hostspeed.py``.  Stops once the
    minimum is met and the next repetition (or pair, when tracing),
    predicted to last as long as the last one, would end past
    ``seconds``.
    """
    probe = SpeedProbe()
    started = time.perf_counter_ns()
    minimum = 2 * MIN_TRACE_PAIRS if trace else MIN_REPS
    step = 2 if trace else 1
    rep = 0
    with probe.running():
        while True:
            traced = trace and rep % 2 == 1
            begin = time.perf_counter_ns()
            prepared = workload.setup()
            ready = time.perf_counter_ns()
            totals = None
            if traced:
                tracer.reset()
                with tracer.installed():
                    outcome = workload.run(prepared)
                totals = tracer.totals()
            else:
                outcome = workload.run(prepared)
            done = time.perf_counter_ns()
            setup_s = (ready - begin) / 1e9 * probe.scale(begin, ready)
            factor = probe.scale(ready, done)
            outcome.wall_s *= factor
            outcome.work_s *= factor
            if totals is not None:
                totals = {
                    layer: (self_s * factor, calls)
                    for layer, (self_s, calls) in totals.items()
                }
            # Free this repetition's inputs before the next set-up builds
            # its own, so peak memory is one repetition's, not two.
            del prepared
            gc.collect()
            yield traced, setup_s, outcome, totals
            rep += 1
            now = time.perf_counter_ns()
            if rep >= minimum and rep % step == 0:
                if (now + step * (now - begin) - started) / 1e9 > seconds:
                    return


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run the repetitions and reduce them to the result document."""
    from workloads import COUNT_NAMES, RESIDUALS

    tracer = Tracer() if trace else None
    setups, walls, rates, traced_walls = [], [], [], []
    layer_runs: list[dict] = []
    residuals, coverages = [], []
    attempted = failed = 0
    problems: list[str] = []
    digests = set()
    counts: dict[str, float] = {}
    for traced, setup_s, outcome, totals in _repetitions(
        workload, seconds, trace, tracer
    ):
        print(
            f"{workload.name}: {'traced' if traced else 'untraced'} rep "
            f"setup {setup_s:.4f}s wall {outcome.wall_s:.4f}s "
            f"work {outcome.work_s:.4f}s msgs {outcome.msgs}",
            file=sys.stderr,
        )
        setups.append(setup_s)
        attempted += outcome.msgs
        failed += outcome.failed
        problems.extend(outcome.problems)
        digests.add(outcome.digest)
        counts = outcome.counts
        if traced:
            traced_walls.append(outcome.wall_s)
            layer_runs.append(totals)
            named = sum(self_s for self_s, _ in totals.values())
            residuals.append(outcome.wall_s - named)
            coverages.append(named / outcome.wall_s)
        else:
            walls.append(outcome.wall_s)
            rates.append(outcome.msgs / outcome.work_s)
    if len(digests) != 1:
        problems.append("repetitions of one seed produced different outputs")
    metrics: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
        metrics["wall_s"] = statistics.median(walls)
        metrics["msgs_per_s"] = statistics.median(rates)
    else:
        for layer in tracer.names:
            calls = {run[layer][1] for run in layer_runs}
            if len(calls) != 1:
                problems.append(f"{layer} call counts differ between repetitions")
            metrics[f"{layer}_s"] = statistics.median(run[layer][0] for run in layer_runs)
            metrics[f"{layer}.calls"] = max(calls)
        for name in RESIDUALS:
            metrics[name] = (
                statistics.median(residuals) if name == workload.residual else 0.0
            )
        metrics["trace.coverage"] = statistics.median(coverages)
        # Fastest against fastest: the correction for host load is not
        # exact, and load only ever adds time.
        metrics["trace.overhead"] = min(traced_walls) / min(walls) - 1.0
        for name in COUNT_NAMES:
            metrics[name] = counts.get(name, 0)
    for problem in dict.fromkeys(problems):
        print(f"{workload.name}: CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=ROOT) as scratch:
        workload = workloads.WORKLOADS[args.workload](
            sizes, args.seed, Path(scratch)
        )
        result = measure(workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
