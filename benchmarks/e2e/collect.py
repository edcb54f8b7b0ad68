"""Collect benchmark results into a directory for ``compare.py``.

    python3 benchmarks/e2e/collect.py OUT_DIR [--runs 5] [--trace-runs 1]
        [--first-seed 1]

Runs ``run.py`` from this checkout ``--runs`` times per workload with
seeds ``first-seed, first-seed + 1, ...`` (workloads interleaved within
each seed), then ``--trace-runs`` traced runs.  A call always covers
every workload of BENCHMARK.json and each run lasts its ``run_seconds``,
so both sides of a comparison measure the same runs.  Each result's last line
is stored as ``OUT_DIR/<workload>.trace<0|1>.seed<n>.json``, and
``OUT_DIR/machine.json`` describes the machine.  For a parent/change
comparison, alternate single-seed calls between the two checkouts (see
README.md).  Exits non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def machine() -> dict:
    """CPU, memory and interpreter of this machine."""
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        mem_kb = next(
            int(line.split()[1])
            for line in Path("/proc/meminfo").read_text().splitlines()
            if line.startswith("MemTotal")
        )
    except (OSError, StopIteration):
        mem_kb = 0
    import numpy

    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "memory_gb": round(mem_kb / 1024 / 1024, 1),
        "os": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_one(workload: str, seed: int, trace: int, seconds: float) -> str | None:
    """One ``run.py`` call; its last stdout line, or None if it failed."""
    child = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return None
    return lines[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("out", type=Path)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "machine.json").write_text(
        json.dumps(machine(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    failures = 0
    plan = [(0, i) for i in range(args.runs)] + [(1, i) for i in range(args.trace_runs)]
    for trace, i in plan:
        seed = args.first_seed + i
        for workload in workloads:
            line = run_one(workload, seed, trace, seconds)
            if line is None:
                failures += 1
                print(f"FAILED {workload} trace={trace} seed={seed}", file=sys.stderr)
                continue
            name = f"{workload}.trace{trace}.seed{seed}.json"
            (args.out / name).write_text(line + "\n", encoding="utf-8")
            print(f"wrote {args.out / name}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
