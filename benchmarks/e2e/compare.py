"""Compare two result directories written by ``collect.py``.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

For each workload and end-to-end metric it prints both sides' median and
quartiles, the change in the median, and a verdict under the metric's
bound from BENCHMARK.json, decided in this order:

* ``worse``: the median moved the wrong way by more than the bound;
* ``unresolved``: either side's quartile spread is wider than the bound,
  unless every change run beats every parent run;
* ``better``: at least 10 seed-matched pairs, of which the change wins
  at least 9 in 10, and the median moved by more than the parent's own
  quartile spread;
* ``unchanged``: anything else.

Traced runs add a per-layer table of self-time medians and their
difference.  Exits 1 if any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RESULT_NAME = re.compile(r"(?P<workload>.+)\.trace(?P<trace>[01])\.seed(?P<seed>\d+)\.json")


def load(directory: Path) -> dict[tuple[str, int], dict[int, dict[str, float]]]:
    """``(workload, trace) -> seed -> metric -> value`` for one directory."""
    runs: dict[tuple[str, int], dict[int, dict[str, float]]] = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        match = RESULT_NAME.fullmatch(path.name)
        if match is None:
            continue
        result = json.loads(path.read_text(encoding="utf-8"))
        key = (match["workload"], int(match["trace"]))
        runs[key][int(match["seed"])] = {
            name: metric["value"] for name, metric in result["metrics"].items()
        }
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


#: A gain needs at least this many seed-matched parent/change pairs, and
#: the change must win this share of them.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(
    parent: dict[int, float], change: dict[int, float], bound: float, better: str
) -> str:
    """The verdict for one metric; values keyed by seed."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    p_values, c_values = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_values)
    c_q1, c_med, c_q3 = quartiles(c_values)
    worse_by = sign * (c_med - p_med) / abs(p_med)
    if worse_by > bound:
        return "worse"
    spread = (p_q3 - p_q1) / abs(p_med)
    noisy = max(spread, (c_q3 - c_q1) / abs(c_med)) > bound
    if noisy and not all(beats(c, p) for c in c_values for p in p_values):
        return "unresolved"
    pairs = [(change[s], parent[s]) for s in parent if s in change]
    wins = sum(beats(c, p) for c, p in pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and -worse_by > spread
    ):
        return "better"
    return "unchanged"


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:>12.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(args.parent), load(args.change)
    worse = 0
    print(f"{'workload':<22} {'metric':<12} {'parent median [Q1, Q3]':>36} "
          f"{'change median [Q1, Q3]':>36} {'change':>8}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = parent.get((workload, 0), {}), change.get((workload, 0), {})
        if not a or not b:
            print(f"{workload:<22} (no untraced runs on one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pa = {seed: run[name] for seed, run in a.items()}
            pb = {seed: run[name] for seed, run in b.items()}
            pa_med = statistics.median(pa.values())
            moved = (statistics.median(pb.values()) - pa_med) / abs(pa_med)
            result = verdict(pa, pb, metric["bound"], metric["better"])
            worse += result == "worse"
            print(f"{workload:<22} {name:<12} {_fmt(list(pa.values())):>36} "
                  f"{_fmt(list(pb.values())):>36} {moved:>+8.1%}  {result}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = parent.get((workload, 1), {}), change.get((workload, 1), {})
        if not a or not b:
            continue
        print(f"\n{workload}: per-layer medians (traced runs)")
        for name, unit in units.items():
            va = statistics.median(run[name] for run in a.values())
            vb = statistics.median(run[name] for run in b.values())
            if va == 0 and vb == 0:
                continue
            print(f"  {name:<32} {va:>14.6g} {vb:>14.6g} {vb - va:>+14.6g} {unit}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
