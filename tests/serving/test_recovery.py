"""The crash-recovery convergence gate, end to end on recorded traces.

These are the tests the durability layer exists for: a mid-replay crash
and restart must converge to the uncrashed run's exact store state
outside the explicitly-accounted loss window — on more than one seed,
because sharding, crash placement, and queue contents all move with the
trace.
"""

from __future__ import annotations

import json

import pytest

from repro.serving import (
    ReplayConfig,
    ServingConfig,
    record_columnar_trace,
    run_recovery_gate,
    write_filtered_export,
)
from tests.serving.conftest import tiny_config


@pytest.fixture(scope="module")
def second_trace():
    """A second seed so convergence isn't an accident of one stream."""
    return record_columnar_trace(tiny_config(seed=7))


def gate(trace, tmp_path, **kw):
    meta, records = trace
    # flush_interval well under the crash offset, so the crash hits a
    # WAL that has real flushed state behind it (not an empty cold start).
    defaults = dict(
        replay=ReplayConfig(
            rate=2000.0,
            sweep_interval=1.0,
            serving=ServingConfig(shards=4, flush_interval=0.005),
        ),
        snapshot_every=8,
        crash_fraction=0.4,
        restart_fraction=0.7,
        trace_meta=meta,
    )
    defaults.update(kw)
    return run_recovery_gate(records, tmp_path, **defaults)


class TestConvergence:
    def test_seed_11_converges(self, tiny_trace, tmp_path):
        report, golden, crashed = gate(tiny_trace, tmp_path)
        assert report.converged
        assert report.divergent_nodes == ()
        assert report.compared_nodes > 0
        # The crash actually bit: the shard went down mid-stream...
        assert report.crashed.crashes == 1
        assert report.crashed.recoveries == 1
        # ...and recovery rebuilt it from the snapshot it had taken.
        assert report.snapshot_lsn > 0

    def test_seed_7_converges(self, second_trace, tmp_path):
        report, golden, crashed = gate(second_trace, tmp_path)
        assert report.converged
        assert report.crashed.crashes == 1

    def test_filtered_exports_byte_identical(self, tiny_trace, tmp_path):
        report, golden, crashed = gate(tiny_trace, tmp_path / "wal")
        a = write_filtered_export(
            golden, report.affected_nodes, tmp_path / "golden.json"
        )
        b = write_filtered_export(
            crashed, report.affected_nodes, tmp_path / "crashed.json"
        )
        assert a.read_bytes() == b.read_bytes()
        # The export is real content, not a vacuous empty set.
        assert len(json.loads(a.read_text())) == report.compared_nodes

    def test_no_snapshot_still_converges_via_full_log_replay(
        self, tiny_trace, tmp_path
    ):
        report, *_ = gate(tiny_trace, tmp_path, snapshot_every=0)
        assert report.converged
        assert report.snapshot_lsn == 0
        assert report.replayed > 0  # everything came back from the WAL

    def test_trace_time_replay_converges(self, tiny_trace, tmp_path):
        report, *_ = gate(
            tiny_trace,
            tmp_path,
            replay=ReplayConfig(
                rate=0.0, sweep_interval=1.0, serving=ServingConfig(shards=2)
            ),
        )
        assert report.converged

    def test_accounting_is_self_consistent(self, tiny_trace, tmp_path):
        report, golden, crashed = gate(tiny_trace, tmp_path)
        # Affected nodes cover every loss the crash inflicted; the
        # crashed run can never have applied MORE than the golden one.
        assert report.crashed_applied <= report.golden_applied
        assert report.recovery_wall_s >= 0.0
        assert set(report.divergent_nodes).isdisjoint(report.affected_nodes)

    def test_report_json_round_trips(self, tiny_trace, tmp_path):
        report, *_ = gate(tiny_trace, tmp_path / "wal")
        out = report.write_json(tmp_path / "gate.json")
        document = json.loads(out.read_text())
        assert document["converged"] is True
        assert document["records"] == report.records
        assert document["golden"]["applied"] == report.golden_applied


class TestValidation:
    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            run_recovery_gate([], tmp_path)

    def test_bad_fractions_rejected(self, tiny_trace, tmp_path):
        _, records = tiny_trace
        with pytest.raises(ValueError, match="fraction"):
            run_recovery_gate(
                records, tmp_path, crash_fraction=0.8, restart_fraction=0.5
            )
