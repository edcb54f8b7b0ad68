"""Tests of the end-to-end benchmark, at smoke sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

_RUNS: dict[tuple[str, int, int], dict] = {}


def smoke_run(workload: str, trace: int, attempt: int = 0) -> dict:
    """The parsed last line of one smoke run (cached per attempt)."""
    key = (workload, trace, attempt)
    if key not in _RUNS:
        child = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", "42", "--seconds", "0",
                "--trace", str(trace), "--smoke",
            ],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
        )
        assert child.returncode == 0, child.stdout
        _RUNS[key] = json.loads(child.stdout.strip().splitlines()[-1])
    return _RUNS[key]


class TestSpec:
    def test_keys_and_caps(self):
        assert set(SPEC) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }
        assert 2 <= len(SPEC["workloads"]) <= 8
        assert 1 <= len(SPEC["end_to_end"]) <= 16
        assert 1 <= len(SPEC["per_layer"]) <= 128
        assert 1 <= SPEC["run_seconds"] <= 60
        for path in SPEC["paths"]:
            assert (ROOT / path).is_dir()

    def test_names_and_units(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in SPEC[group]]
            for metric in SPEC[group]:
                assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
                assert metric["better"] in ("lower", "higher")
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name

    def test_bounds(self):
        for metric in SPEC["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])

    def test_workloads_match_the_runner(self):
        assert WORKLOADS == list(workloads.WORKLOADS)
        for workload in SPEC["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_declared_metrics(workload, trace):
    result = smoke_run(workload, trace)
    declared = {
        m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_counts_exactly(workload):
    first = smoke_run(workload, 1)["metrics"]
    second = smoke_run(workload, 1, attempt=1)["metrics"]
    exact = [n for n in first if n.endswith(".calls")] + list(workloads.COUNT_NAMES)
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}


def test_traced_run_covers_the_wall_time():
    metrics = smoke_run("serving-city-wal", 1)["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.6
    assert metrics["durability.recover.calls"]["value"] == 1
    assert metrics["durability.snapshots"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    child = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", "paper-report",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""


class TestServingChecks:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.experiments import ExperimentConfig
        from repro.serving import ReplayConfig, record_trace, replay_trace

        meta, records = record_trace(
            ExperimentConfig(duration=10.0, dth_factors=(1.0,))
        )
        return replay_trace(records, ReplayConfig(), trace_meta=meta).to_json_dict()

    def test_real_report_passes(self, report):
        assert workloads.serving_problems(report, wal=False) == []

    @pytest.mark.parametrize(
        "field, delta", [("applied", -1), ("shed", 1), ("duplicates", 2)]
    )
    def test_doctored_report_trips_conservation(self, report, field, delta):
        doctored = dict(report, **{field: report[field] + delta})
        assert workloads.serving_problems(doctored, wal=False)

    def test_wal_must_log_every_applied_lu(self, report):
        doctored = dict(report, wal_appended=report["applied"] - 1)
        assert workloads.serving_problems(doctored, wal=True)


class TestCompareVerdict:
    PARENT = {seed: 100.0 + seed % 3 for seed in range(10)}

    def test_unchanged_within_bound(self):
        change = {s: v * 1.03 for s, v in self.PARENT.items()}
        assert compare.verdict(self.PARENT, change, 0.10, "lower") == "unchanged"

    def test_worse_past_bound(self):
        change = {s: v * 1.2 for s, v in self.PARENT.items()}
        assert compare.verdict(self.PARENT, change, 0.10, "lower") == "worse"
        assert compare.verdict(self.PARENT, change, 0.10, "higher") == "better"

    def test_better_needs_nine_of_ten_pairs(self):
        change = {s: v * 0.95 for s, v in self.PARENT.items()}
        assert compare.verdict(self.PARENT, change, 0.10, "lower") == "better"
        change[0], change[1] = self.PARENT[0] * 1.01, self.PARENT[1] * 1.01
        assert compare.verdict(self.PARENT, change, 0.10, "lower") == "unchanged"

    def test_one_pair_is_not_a_gain(self):
        assert compare.verdict({1: 100.0}, {1: 90.0}, 0.10, "lower") == "unchanged"

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = {s: 100.0 * (1 + 0.3 * (s % 2)) for s in range(10)}
        change = {s: v * 1.05 for s, v in noisy.items()}
        assert compare.verdict(noisy, change, 0.10, "lower") == "unresolved"

    def test_noise_does_not_hide_a_slowdown(self):
        noisy = {s: 100.0 * (1 + 0.3 * (s % 2)) for s in range(10)}
        change = {s: v * 2.0 for s, v in noisy.items()}
        assert compare.verdict(noisy, change, 0.10, "lower") == "worse"

    def test_every_run_beating_lifts_unresolved_but_is_no_gain(self):
        noisy = {s: 100.0 * (1 + 0.3 * (s % 2)) for s in range(4)}
        change = {s: 80.0 + s for s in range(4)}
        assert compare.verdict(noisy, change, 0.10, "lower") == "unchanged"

    def test_exit_code_flags_worse(self, tmp_path, capsys):
        for side, scale in (("a", 1.0), ("b", 2.0)):
            (tmp_path / side).mkdir()
            for seed, value in self.PARENT.items():
                metrics = {
                    m["name"]: {"value": value * scale, "unit": m["unit"]}
                    for m in SPEC["end_to_end"]
                }
                (tmp_path / side / f"paper-report.trace0.seed{seed}.json").write_text(
                    json.dumps({"metrics": metrics})
                )
        assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert "worse" in capsys.readouterr().out


class _Nested:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.01)


class _Signature:
    def call(self, a, b=2, *, c=3):
        return a, b, c

    def star(self, *args):
        return args


def test_tracer_forwards_every_argument():
    call = tracer.Boundary("t.call", __name__, "_Signature", "call")
    spans = tracer.Tracer((call,))
    with spans.installed():
        obj = _Signature()
        assert obj.call(1) == (1, 2, 3)
        assert obj.call(1, 5, c=6) == (1, 5, 6)
        assert obj.call(a=1, b=5) == (1, 5, 3)
    assert spans.totals()["t.call"][1] == 3
    star = tracer.Boundary("t.star", __name__, "_Signature", "star")
    with pytest.raises(TypeError):
        tracer.Tracer((star,)).install()


def test_tracer_self_time_excludes_children():
    boundaries = (
        tracer.Boundary("t.outer", __name__, "_Nested", "outer"),
        tracer.Boundary("t.inner", __name__, "_Nested", "inner"),
    )
    spans = tracer.Tracer(boundaries)
    original = _Nested.outer
    with spans.installed():
        start = time.perf_counter()
        _Nested().outer()
        wall = time.perf_counter() - start
    assert _Nested.outer is original
    totals = spans.totals()
    assert totals["t.outer"][1] == 1 and totals["t.inner"][1] == 2
    assert totals["t.inner"][0] >= 0.02
    assert 0.02 <= totals["t.outer"][0] < wall - 0.015
    assert totals["t.outer"][0] + totals["t.inner"][0] == pytest.approx(wall, rel=0.05)


def _probe(loop_ns, cost_ns=0, every=10_000_000, count=100):
    probe = hostspeed.SpeedProbe()
    probe.at = [i * every for i in range(count)]
    probe.loop_ns = [loop_ns] * count
    probe.cost_ns = [cost_ns] * count
    return probe


class TestSpeedProbe:
    def test_slow_host_halves_the_time(self):
        probe = _probe(2 * hostspeed.REFERENCE_NS)
        assert probe.scale(0, 500_000_000) == pytest.approx(0.5)

    def test_own_samples_are_not_workload_time(self):
        # One 1 ms sample per 10 ms: a tenth of the window was the probe.
        probe = _probe(hostspeed.REFERENCE_NS, cost_ns=1_000_000)
        assert probe.scale(0, 500_000_000) == pytest.approx(0.9)

    def test_short_window_borrows_neighbours_and_drops_outliers(self):
        probe = _probe(hostspeed.REFERENCE_NS)
        probe.loop_ns[50] = 100 * hostspeed.REFERENCE_NS
        assert probe.scale(500_000_000, 500_000_001) == pytest.approx(1.0)

    def test_samples_while_running(self):
        probe = hostspeed.SpeedProbe()
        with probe.running():
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        assert len(probe.at) >= 5
        assert probe.at == sorted(probe.at)
        assert all(0 < loop < cost for loop, cost in zip(probe.loop_ns, probe.cost_ns))
