"""Tests for the LU trace format and the harness capture hook."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.geometry import Vec2
from repro.network.messages import LocationUpdate
from repro.serving import (
    ColumnarTraceRecorder,
    TraceError,
    TraceRecord,
    TraceRecorder,
    read_trace,
    record_columnar_trace,
    record_trace,
    write_trace,
)

from tests.serving.conftest import tiny_config
from tests.serving.helpers import join_trace, packed_row, split_trace


def make_record(time=1.0, seq=0, node="n1", region="road-1"):
    return TraceRecord(
        time=time,
        seq=seq,
        node_id=node,
        x=10.0,
        y=20.0,
        vx=1.5,
        vy=-0.5,
        region_id=region,
        dth=4.0,
    )


class TestRoundTrip:
    def test_update_round_trip(self):
        update = LocationUpdate(
            sender="n1",
            timestamp=3.25,
            seq=17,
            node_id="n1",
            position=Vec2(1.125, 2.5),
            velocity=Vec2(-0.75, 0.25),
            region_id="bldg-2",
            dth=6.0,
        )
        rebuilt = TraceRecord.from_update(update).to_update()
        assert rebuilt == update

    def test_row_round_trip_exact_floats(self, tmp_path):
        record = make_record(time=0.1 + 0.2)  # a float with an ugly repr
        _, loaded = read_trace(write_trace([record], tmp_path / "t.trace"))
        assert loaded == [record]
        assert loaded[0].time == 0.1 + 0.2

    def test_file_round_trip(self, tmp_path):
        records = [make_record(time=float(t), seq=t) for t in range(5)]
        path = write_trace(records, tmp_path / "t.trace", meta={"seed": 1})
        meta, loaded = read_trace(path)
        assert meta == {"seed": 1}
        assert loaded == records

    def test_write_is_byte_deterministic(self, tmp_path):
        records = [make_record(seq=s) for s in range(3)]
        a = write_trace(records, tmp_path / "a.jsonl", meta={"z": 1, "a": 2})
        b = write_trace(records, tmp_path / "b.jsonl", meta={"a": 2, "z": 1})
        assert a.read_bytes() == b.read_bytes()

class TestValidation:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            read_trace(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(TraceError, match="not a repro-lu-trace"):
            read_trace(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        path.write_text(
            '{"format":"repro-lu-trace","meta":{},"records":0,"version":99}\n'
        )
        with pytest.raises(TraceError, match="version"):
            read_trace(path)

    @pytest.mark.parametrize(
        "version, records",
        [("true", "true"), ("true", "1"), ("1", "true"), ("1.0", "1")],
    )
    def test_version_and_count_must_be_ints(self, tmp_path, version, records):
        """``True == 1`` and ``2.0 == 2``: only the int 2 is a version,
        so each *version* here is refused (1 itself is no longer read),
        and under version 2 a non-int record count is refused."""
        path = write_trace([make_record()], tmp_path / "t.trace")
        head, rows = split_trace(path)

        def rewrite(version, records):
            header = json.loads(head)
            header["version"] = json.loads(version)
            header["records"] = json.loads(records)
            join_trace(path, json.dumps(header).encode() + b"\n", rows)

        rewrite(version, "1")
        with pytest.raises(TraceError, match="unsupported trace version"):
            read_trace(path)
        rewrite("2", records)
        if records == "1":
            assert len(read_trace(path)[1]) == 1
        else:
            with pytest.raises(TraceError, match="int record count"):
                read_trace(path)

    def _written(self, tmp_path):
        """A four-row trace file, its header line and its rows."""
        records = [make_record(time=float(t), seq=t) for t in range(4)]
        path = write_trace(records, tmp_path / "t.trace")
        return (path, *split_trace(path))

    def test_truncation_detected(self, tmp_path):
        path, head, rows = self._written(tmp_path)
        join_trace(path, head, rows[:-1])  # drop the last row
        with pytest.raises(TraceError, match="truncated"):
            read_trace(path)

    def test_torn_final_row_recoverable_with_allow_partial(self, tmp_path):
        """A writer killed mid-row leaves a torn tail; ``allow_partial``
        recovers the valid prefix instead of refusing the whole file."""
        path, head, rows = self._written(tmp_path)
        rows[-1] = rows[-1][:-10]  # tear the last row
        join_trace(path, head, rows)
        with pytest.raises(TraceError, match="allow_partial"):
            read_trace(path)
        meta, got = read_trace(path, allow_partial=True)
        assert [r.seq for r in got] == [0, 1, 2]
        assert meta == {}

    def test_allow_partial_does_not_mask_mid_file_damage(self, tmp_path):
        path, head, rows = self._written(tmp_path)
        # Damage a row that is NOT the last one: point it past the node table.
        rows[1] = packed_row(node=7)
        join_trace(path, head, rows)
        with pytest.raises(TraceError, match="unreadable row"):
            read_trace(path, allow_partial=True)

    def test_allow_partial_tolerates_missing_rows(self, tmp_path):
        # Declared count 4, only 2 intact rows left: strict mode refuses,
        # partial mode returns what survived.
        path, head, rows = self._written(tmp_path)
        join_trace(path, head, rows[:2])
        with pytest.raises(TraceError, match="truncated"):
            read_trace(path)
        _, got = read_trace(path, allow_partial=True)
        assert len(got) == 2


class TestNonFiniteRows:
    """Rows with NaN/Infinity or a negative dth never reach replay: one
    such LU would poison its node's tracker for the rest of the run."""

    def test_zero_dth_and_large_finite_values_accepted(self, tmp_path):
        record = replace(make_record(), x=1e308, dth=0.0)
        _, loaded = read_trace(write_trace([record], tmp_path / "t.trace"))
        assert loaded == [record]

    def _with_bad_row(self, tmp_path, index):
        """A four-row trace whose row *index* holds a NaN and an inf."""
        records = [make_record(time=float(t), seq=t) for t in range(4)]
        path = write_trace(records, tmp_path / "t.trace")
        head, rows = split_trace(path)
        rows[index] = packed_row(x=float("nan"), vx=float("inf"))
        join_trace(path, head, rows)
        return path

    def test_bad_middle_row_raises(self, tmp_path):
        path = self._with_bad_row(tmp_path, 1)
        with pytest.raises(TraceError, match="unreadable row"):
            read_trace(path)
        with pytest.raises(TraceError, match="unreadable row"):
            read_trace(path, allow_partial=True)

    def test_bad_final_row_is_a_torn_tail(self, tmp_path):
        path = self._with_bad_row(tmp_path, -1)
        with pytest.raises(TraceError, match="allow_partial"):
            read_trace(path)
        _, got = read_trace(path, allow_partial=True)
        assert [r.seq for r in got] == [0, 1, 2]


class TestRecorder:
    def test_lane_filtering(self):
        recorder = TraceRecorder("adf-1")
        update = LocationUpdate(sender="n", timestamp=0.0, seq=0, node_id="n")
        recorder("ideal", update)
        recorder("adf-1", update)
        assert len(recorder.records) == 1

    def test_unknown_lane_fails_fast(self):
        with pytest.raises(KeyError):
            record_trace(tiny_config(duration=5.0), lane="no-such-lane")


class TestRecordTrace:
    def test_capture_is_seed_deterministic(self, tmp_path, tiny_trace):
        meta, records = tiny_trace
        path = tmp_path / "again.jsonl"
        meta2, records2 = record_trace(tiny_config(), path=path)
        assert meta2 == meta
        assert records2 == records
        # and the on-disk form round-trips the in-memory capture
        meta3, records3 = read_trace(path)
        assert (meta3, records3) == (meta, records)

    def test_meta_provenance(self, tiny_trace):
        meta, records = tiny_trace
        assert meta["lane"] == "adf-1"
        assert meta["seed"] == 11
        assert meta["node_count"] > 0
        assert records, "the ADF lane should transmit at least some LUs"

    def test_per_node_time_and_seq_monotone(self, tiny_trace):
        """The trace invariant the store's duplicate gate relies on."""
        _, records = tiny_trace
        last = {}
        for record in records:
            if record.node_id in last:
                prev_seq, prev_time = last[record.node_id]
                assert record.seq > prev_seq
                assert record.time >= prev_time
            last[record.node_id] = (record.seq, record.time)

    def test_ideal_lane_records_superset(self):
        config = tiny_config(duration=6.0)
        _, adf = record_trace(config, lane="adf-1")
        _, ideal = record_trace(config, lane="ideal")
        assert len(ideal) > len(adf)


class TestRecordColumnarTrace:
    def test_capture_is_seed_deterministic(self, tmp_path):
        config = tiny_config(duration=6.0)
        path = tmp_path / "columnar.jsonl"
        meta, records = record_columnar_trace(config, path=path)
        meta2, records2 = record_columnar_trace(config)
        assert meta2 == meta
        assert records2 == records
        meta3, records3 = read_trace(path)
        assert (meta3, records3) == (meta, records)

    def test_meta_provenance(self):
        meta, records = record_columnar_trace(tiny_config(duration=6.0))
        assert meta["engine"] == "columnar"
        assert meta["cluster_mode"] == "exact"
        assert meta["lane"] == "adf-1"
        assert meta["node_count"] > 0
        assert records, "the ADF lane should transmit at least some LUs"

    def test_per_node_time_and_seq_monotone(self):
        """The synthesised seq must satisfy the store's duplicate gate."""
        _, records = record_columnar_trace(tiny_config(duration=6.0))
        last = {}
        for record in records:
            if record.node_id in last:
                prev_seq, prev_time = last[record.node_id]
                assert record.seq > prev_seq
                assert record.time >= prev_time
            last[record.node_id] = (record.seq, record.time)

    def test_unknown_lane_fails_fast(self):
        with pytest.raises(ValueError):
            record_columnar_trace(tiny_config(duration=5.0), lane="nope")

    def test_unbound_recorder_fails_loudly(self):
        recorder = ColumnarTraceRecorder("adf-1")
        with pytest.raises(TraceError):
            recorder(
                "adf-1", 1.0, np.arange(1), np.zeros(1), np.zeros(1),
                np.zeros(1), np.zeros(1), np.zeros(1, dtype=np.int64),
                np.zeros(1),
            )

    def test_matches_object_recorder_on_exact_kernel(self):
        """Same config, same lane: the columnar capture transmits the
        same (time, node) events as the object harness (seq numbering
        differs by design — the columnar engine synthesises it)."""
        config = tiny_config(duration=6.0)
        _, obj = record_trace(config, lane="adf-1")
        _, col = record_columnar_trace(config, lane="adf-1")
        obj_events = [(r.time, r.node_id, r.x, r.y, r.region_id) for r in obj]
        col_events = [(r.time, r.node_id, r.x, r.y, r.region_id) for r in col]
        assert sorted(col_events) == sorted(obj_events)
