"""End-to-end benchmark entry point.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a fresh child process (``worker.py``) with
``PYTHONHASHSEED=0`` and every BLAS/OpenMP pool pinned to one thread,
then prints, as the last stdout line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` set of BENCHMARK.json
(peak memory is the child's ``ru_maxrss``); with ``--trace 1`` they are
the ``per_layer`` set.  Units come from BENCHMARK.json, and a metric the
file does not declare, or a declared one the run did not produce, is an
error.  Exits non-zero when a correctness check fails or the child does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: The child must finish well inside the 180 s a run is allowed.
CHILD_TIMEOUT_S = 170.0


def declared_units(trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics BENCHMARK.json declares for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the tests"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    try:
        child = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{args.workload}: timed out after {CHILD_TIMEOUT_S:g}s", file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"{args.workload}: worker exited {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    values = result["metrics"]
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the only child is the worker.
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values["peak_rss_mb"] = peak / 1024.0
    if set(values) != set(units):
        print(
            f"{args.workload}: emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}",
            file=sys.stderr,
        )
        return 1
    result["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
