"""Tests for the LU trace format and the harness capture hook."""

import json

import numpy as np
import pytest

from repro.geometry import Vec2
from repro.network.messages import LocationUpdate
from repro.serving import (
    ColumnarTraceRecorder,
    TraceBatch,
    TraceError,
    TraceRecord,
    TraceRecorder,
    read_trace,
    record_columnar_trace,
    record_trace,
    write_trace,
)
from repro.serving.durability import WriteAheadLog, read_wal

from tests.serving.conftest import tiny_config
from tests.serving.helpers import (
    WRITERS,
    join_trace,
    packed_row,
    split_trace,
    write_v1_trace,
)


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

    def test_row_round_trip_exact_floats(self):
        record = make_record(time=0.1 + 0.2)  # a float with an ugly repr
        row = json.loads(json.dumps(record.to_row()))
        assert TraceRecord.from_row(row) == record

    def test_file_round_trip(self, tmp_path):
        records = [make_record(time=float(t), seq=t) for t in range(5)]
        for write in WRITERS:
            path = write(records, tmp_path / "t.trace", meta={"seed": 1})
            meta, loaded = read_trace(path)
            assert meta == {"seed": 1}
            assert loaded == records

    def test_write_is_byte_deterministic(self, tmp_path):
        records = [make_record(seq=s) for s in range(3)]
        a = write_trace(records, tmp_path / "a.jsonl", meta={"z": 1, "a": 2})
        b = write_trace(records, tmp_path / "b.jsonl", meta={"a": 2, "z": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_spelling_does_not_change_the_logged_bytes(self, tmp_path):
        """The WAL logs each row's decoded values, whatever spacing
        and number spelling the trace file used: a re-spaced copy, and a
        copy with one float spelt as an int, log the same bytes, and so
        does the version-2 file of the same records."""
        records = [make_record(time=0.1 + 0.2, seq=3), make_record(time=3.0, seq=4)]
        path = write_v1_trace(records, tmp_path / "t.jsonl")
        text = path.read_text()
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text(text.replace(",", ", "))
        respelled = tmp_path / "respelled.jsonl"
        respelled.write_text(text.replace("[3.0,4,", "[3,4,"))
        assert respelled.read_text() != text
        packed = write_trace(records, tmp_path / "packed.trace")
        logged = []
        for source in (path, spaced, respelled, packed):
            _, loaded = read_trace(source)
            assert isinstance(loaded, TraceBatch)
            assert loaded == records
            wal = WriteAheadLog(tmp_path / f"{source.stem}.wal")
            wal.append_update(loaded, np.arange(len(loaded)))
            wal.close()
            logged.append(wal.path.read_bytes())
        assert logged[1:] == [logged[0]] * 3
        entries = read_wal(tmp_path / "t.wal").entries
        assert entries == [["lu", *record.to_row()] for record in records]


class TestValidation:
    def test_row_arity_checked(self):
        with pytest.raises(TraceError, match="9 fields"):
            TraceRecord.from_row([1.0, 2])

    def test_row_id_types_checked(self):
        row = make_record().to_row()
        row[2] = 42  # node_id must be a string
        with pytest.raises(TraceError, match="ids must be strings"):
            TraceRecord.from_row(row)

    def test_row_seq_type_checked(self):
        row = make_record().to_row()
        row[1] = "7"
        with pytest.raises(TraceError, match="seq must be an int"):
            TraceRecord.from_row(row)
        # ``true`` decodes to a bool, an int subclass: it is not a seq.
        row[1] = True
        with pytest.raises(TraceError, match="seq must be an int"):
            TraceRecord.from_row(row)
        with pytest.raises(TraceError, match="seq must be an int"):
            TraceRecord.from_row(
                [True, True, "n1", "5.0", " 2 ", False, "1e3", "R1", True]
            )

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
        """``True == 1`` (and ``1.0 == 1``): a version-1 header whose
        version or record count is not an int is refused, as version 2
        refuses a non-int count."""
        path = tmp_path / "v1.jsonl"
        header = (
            f'{{"format":"repro-lu-trace","meta":{{}},"records":{records},'
            f'"version":{version}}}'
        )
        path.write_text(header + '\n[0.0,0,"n1",1.0,2.0,0.0,0.0,"R1",1.0]\n')
        with pytest.raises(TraceError):
            read_trace(path)
        path.write_text(
            '{"format":"repro-lu-trace","meta":{},"records":1,"version":1}\n'
            '[0.0,0,"n1",1.0,2.0,0.0,0.0,"R1",1.0]\n'
        )
        assert len(read_trace(path)[1]) == 1

    def test_truncation_detected(self, tmp_path):
        records = [make_record(time=float(t), seq=t) for t in range(4)]
        for write in WRITERS:
            path = write(records, tmp_path / "t.trace")
            head, rows = split_trace(path)
            join_trace(path, head, rows[:-1])  # drop the last row
            with pytest.raises(TraceError, match="truncated"):
                read_trace(path)

    def test_torn_final_row_recoverable_with_allow_partial(self, tmp_path):
        """A writer killed mid-row leaves a torn tail; ``allow_partial``
        recovers the valid prefix instead of refusing the whole file."""
        records = [make_record(time=float(t), seq=t) for t in range(4)]
        for write in WRITERS:
            path = write(records, tmp_path / "t.trace")
            head, rows = split_trace(path)
            rows[-1] = rows[-1][:-10]  # tear the last row
            join_trace(path, head, rows)
            with pytest.raises(TraceError, match="allow_partial"):
                read_trace(path)
            meta, got = read_trace(path, allow_partial=True)
            assert [r.seq for r in got] == [0, 1, 2]
            assert meta == {}

    def test_allow_partial_does_not_mask_mid_file_damage(self, tmp_path):
        records = [make_record(time=float(t), seq=t) for t in range(4)]
        for write in WRITERS:
            path = write(records, tmp_path / "t.trace")
            head, rows = split_trace(path)
            # Damage a row that is NOT the last one: cut a line short, or
            # point a packed row past the node table.
            if write is write_v1_trace:
                rows[1] = rows[1][:-5] + b"\n"
            else:
                rows[1] = packed_row(node=7)
            join_trace(path, head, rows)
            with pytest.raises(TraceError, match="unreadable row"):
                read_trace(path, allow_partial=True)

    def test_allow_partial_tolerates_missing_rows(self, tmp_path):
        # Declared count 4, only 2 intact rows left: strict mode refuses,
        # partial mode returns what survived.
        records = [make_record(time=float(t), seq=t) for t in range(4)]
        for write in WRITERS:
            path = write(records, tmp_path / "t.trace")
            head, rows = split_trace(path)
            join_trace(path, head, rows[:2])
            with pytest.raises(TraceError, match="truncated"):
                read_trace(path)
            _, got = read_trace(path, allow_partial=True)
            assert len(got) == 2


class TestNonFiniteRows:
    """Rows with NaN/Infinity tokens or a negative dth never reach replay:
    one such LU would poison its node's tracker for the rest of the run."""

    BAD_ROW = '[1.0,1,"n1",NaN,2.0,Infinity,0.0,"R1",0.0]'

    @pytest.mark.parametrize(
        "field, value",
        [
            (0, float("nan")),
            (3, float("nan")),
            (4, float("-inf")),
            (5, float("inf")),
            (6, float("nan")),
            (8, float("inf")),
            (8, -0.5),
            (3, "nan"),
            (0, True),
            (3, "5.0"),
            (4, " 2 "),
            (5, False),
            (6, "1e3"),
            (8, True),
            (3, None),
            (0, [1.0]),
        ],
        ids=[
            "time-nan",
            "x-nan",
            "y-neg-inf",
            "vx-inf",
            "vy-nan",
            "dth-inf",
            "dth-negative",
            "x-nan-string",
            "time-bool",
            "x-number-string",
            "y-padded-string",
            "vx-bool",
            "vy-exponent-string",
            "dth-bool",
            "x-null",
            "time-array",
        ],
    )
    def test_from_row_rejects(self, field, value):
        row = make_record().to_row()
        row[field] = value
        with pytest.raises(TraceError, match="finite numbers and dth >= 0"):
            TraceRecord.from_row(row)

    def test_from_row_rejects_the_json_tokens(self):
        with pytest.raises(TraceError, match="finite"):
            TraceRecord.from_row(json.loads(self.BAD_ROW))

    def test_zero_dth_and_large_finite_values_accepted(self):
        row = make_record().to_row()
        row[3] = 1e308
        row[8] = 0.0
        assert TraceRecord.from_row(row).x == 1e308

    def _with_bad_row(self, tmp_path, write, index):
        """A four-row trace whose row *index* holds a NaN and an inf."""
        records = [make_record(time=float(t), seq=t) for t in range(4)]
        path = write(records, tmp_path / "t.trace")
        head, rows = split_trace(path)
        if write is write_v1_trace:
            rows[index] = self.BAD_ROW.encode() + b"\n"
        else:
            rows[index] = packed_row(x=float("nan"), vx=float("inf"))
        join_trace(path, head, rows)
        return path

    def test_bad_middle_row_raises(self, tmp_path):
        for write in WRITERS:
            path = self._with_bad_row(tmp_path, write, 1)
            with pytest.raises(TraceError, match="unreadable row"):
                read_trace(path)
            with pytest.raises(TraceError, match="unreadable row"):
                read_trace(path, allow_partial=True)

    def test_bad_final_row_is_a_torn_tail(self, tmp_path):
        for write in WRITERS:
            path = self._with_bad_row(tmp_path, write, -1)
            with pytest.raises(TraceError, match="allow_partial"):
                read_trace(path)
            _, got = read_trace(path, allow_partial=True)
            assert [r.seq for r in got] == [0, 1, 2]


class TestDecodeChunks:
    """Every spelling of the same values in a version-1 file loads the
    same records, and a bad line is reported on its own."""

    def _mixed_lines(self):
        lines = [
            json.dumps(
                make_record(time=0.1 * t + 0.2, seq=t, node=f"n{t % 7}").to_row(),
                separators=(",", ":"),
            )
            for t in range(2600)
        ]
        # An int for a float, an exponent, spaced separators, and a raw
        # non-ASCII id (the canonical form escapes it), in three chunks.
        lines[5] = '[0.7,5,"n5",5,20.0,1.5,-0.5,"road-1",4]'
        lines[1500] = '[150.2,1500,"n2",1e2,20.0,1.5,-0.5,"road-1",4.0]'
        lines[1501] = '[150.3, 1501, "n3", 10.0, 20.0, 1.5, -0.5, "road-1", 4.0]'
        lines[2590] = '[259.2,2590,"n\\u00f8",10.0,20.0,1.5,-0.5,"road-1",4.0]'
        lines[2591] = '[259.3,2591,"nø",10.0,20.0,1.5,-0.5,"road-1",4.0]'
        return lines

    def test_matches_per_row_parse(self, tmp_path):
        lines = self._mixed_lines()
        body = list(lines)
        body.insert(1200, "")
        body.insert(10, "   ")
        header = json.dumps(
            {"format": "repro-lu-trace", "meta": {}, "records": len(lines),
             "version": 1},
            sort_keys=True,
            separators=(",", ":"),
        )
        path = tmp_path / "mixed.jsonl"
        path.write_bytes("\r\n".join([header, *body, ""]).encode("utf-8"))
        _, loaded = read_trace(path)
        expected = [TraceRecord.from_row(json.loads(line)) for line in lines]
        assert loaded == expected
        assert loaded[5].x == 5.0 and type(loaded[5].x) is float
        assert loaded[1500].x == 100.0
        assert loaded[2590].node_id == loaded[2591].node_id == "nø"

    def test_row_split_across_lines_is_unreadable(self, tmp_path):
        """Joined with a comma, the two halves would parse as one row;
        each line on its own does not, and the first half is reported."""
        records = [make_record(time=float(t), seq=t) for t in range(4)]
        path = write_v1_trace(records, tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        row = lines[2]
        cut = row.index(",", row.index(",") + 1)
        lines[2:3] = [row[:cut], row[cut + 1 :]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match=r"t\.jsonl:3: unreadable row"):
            read_trace(path)
        with pytest.raises(TraceError, match=r"t\.jsonl:3: unreadable row"):
            read_trace(path, allow_partial=True)


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
        import numpy as np

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
