"""WAL framing, snapshots, and snapshot+tail-replay equivalence.

The framing properties are the load-bearing ones: recovery's whole
contract rests on ``scan_frames`` returning exactly the longest valid
prefix of a possibly-torn file, never decoding a corrupt frame and never
discarding an intact one.
"""

from __future__ import annotations

import json
import operator
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Vec2
from repro.network.messages import LocationUpdate
from repro.serving import (
    IngestOutcome,
    ShardedLocationStore,
    TraceRecord,
)
from repro.serving.durability import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    WAL_FORMAT,
    WAL_VERSION,
    DurabilityConfig,
    DurabilityManager,
    WalError,
    WriteAheadLog,
    frame,
    load_snapshot,
    read_wal,
    scan_frames,
    write_snapshot,
)

from tests.serving.helpers import apply_one, log_one, rows_of

# WAL entries in their list shapes.  Ids include non-ASCII text and a
# lone surrogate, which a JSON trace can carry.
_ids = st.one_of(st.text(max_size=8), st.sampled_from(["\ud800x", "é-节点", ""]))
_floats = st.floats(allow_nan=False, allow_infinity=False)
_lu_entries = st.builds(
    lambda time, seq, node, x, y, vx, vy, region, dth: [
        "lu", time, seq, node, x, y, vx, vy, region, dth
    ],
    _floats,
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    _ids,
    _floats,
    _floats,
    _floats,
    _floats,
    _ids,
    _floats,
)
_tick_entries = st.builds(lambda now: ["tick", now], _floats)
_entry = st.one_of(_lu_entries, _tick_entries)
_entries = st.lists(_entry, max_size=8)


def _payload(entry):
    """The version-2 payload of one list-shaped entry, built from the
    documented layout."""
    if entry[0] == "tick":
        return b"T" + struct.pack("<d", entry[1])
    _, time, seq, node, x, y, vx, vy, region, dth = entry
    node = node.encode("utf-8", "surrogatepass")
    return (
        b"L"
        + struct.pack("<dqdddddI", time, seq, x, y, vx, vy, dth, len(node))
        + node
        + region.encode("utf-8", "surrogatepass")
    )


def _encode(entries):
    return b"".join(frame(_payload(e)) for e in entries)


def lu(node="n1", t=0.0, seq=0, x=0.0, region="road-1", vx=1.0):
    return LocationUpdate(
        sender=node,
        timestamp=t,
        seq=seq,
        node_id=node,
        position=Vec2(x, 0.0),
        velocity=Vec2(vx, 0.0),
        region_id=region,
        dth=4.0,
    )


def split_frames(data):
    """Raw frames of an intact WAL image, parsed from the length fields."""
    frames = []
    offset = 0
    while offset < len(data):
        end = offset + 8 + int.from_bytes(data[offset : offset + 4], "little")
        frames.append(data[offset:end])
        offset = end
    return frames


def wal_header(shard, base_lsn):
    document = {
        "base_lsn": base_lsn,
        "format": WAL_FORMAT,
        "shard": shard,
        "version": WAL_VERSION,
    }
    return frame(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    )


class TestFraming:
    @settings(max_examples=60, deadline=None)
    @given(_entries)
    def test_round_trip(self, entries):
        data = _encode(entries)
        payloads, valid = scan_frames(data)
        assert payloads == entries
        assert valid == len(data)

    @settings(max_examples=60, deadline=None)
    @given(_entries, st.data())
    def test_truncation_at_any_offset_yields_longest_valid_prefix(
        self, entries, data
    ):
        """Crash-at-every-byte-offset: the scan never loses an intact
        frame and never fabricates one from a torn tail."""
        encoded = _encode(entries)
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded)))
        payloads, valid = scan_frames(encoded[:cut])
        # The survivors are a prefix of the original entries...
        assert payloads == entries[: len(payloads)]
        # ...the valid offset is consistent (rescanning reproduces it)...
        assert scan_frames(encoded[:valid]) == (payloads, valid)
        # ...and every frame wholly inside the cut survived: the valid
        # prefix can only fall short of the cut by less than one frame.
        assert valid <= cut
        whole, _ = scan_frames(encoded)
        frame_ends = []
        offset = 0
        for entry in whole:
            offset += 8 + len(_payload(entry))
            frame_ends.append(offset)
        assert valid == max(
            [end for end in frame_ends if end <= cut], default=0
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_entry, min_size=1, max_size=8), st.data())
    def test_single_byte_corruption_never_decodes_past_it(
        self, entries, data
    ):
        """CRC32 catches any single-byte flip: frames before the damage
        survive untouched, nothing at or past it is ever returned."""
        encoded = bytearray(_encode(entries))
        pos = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1)
        )
        flip = data.draw(st.integers(min_value=1, max_value=255))
        encoded[pos] ^= flip
        payloads, valid = scan_frames(bytes(encoded))
        assert payloads == entries[: len(payloads)]
        assert valid <= pos  # the corrupt frame itself never validates

    def test_empty_and_header_only_inputs(self):
        assert scan_frames(b"") == ([], 0)
        assert scan_frames(b"\x07\x00\x00") == ([], 0)  # short header

    def test_non_json_payload_rejected_even_with_valid_crc(self):
        import zlib

        payload = b"\xff\xfe not json"
        bogus = (
            len(payload).to_bytes(4, "little")
            + zlib.crc32(payload).to_bytes(4, "little")
            + payload
        )
        assert scan_frames(bogus) == ([], 0)


_FIXED = struct.pack("<dqddddd", 1.0, 1, 0.0, 0.0, 1.0, 0.0, 4.0)

#: CRC-valid entry payloads that do not decode.
_MALFORMED = {
    "unknown tag": b"X" + _FIXED + struct.pack("<I", 2) + b"n1road-1",
    "short fixed block": b"L" + _FIXED[:30],
    "id length past the end": b"L" + _FIXED + struct.pack("<I", 9) + b"n1road-1",
    "tick with trailing bytes": b"T" + struct.pack("<d", 2.0) + b"\x00",
    "id not UTF-8": b"L" + _FIXED + struct.pack("<I", 2) + b"\xffnroad-1",
}


class TestMalformedEntries:
    """A CRC-valid payload that does not decode ends the valid prefix,
    exactly as a torn frame does, and recovery never applies it."""

    def _write(self, path, bad):
        good = [["lu", 1.0, 1, "n1", 0.0, 0.0, 1.0, 0.0, "road-1", 4.0], ["tick", 2.0]]
        after = frame(_payload(["lu", 3.0, 2, "n1", 5.0, 0.0, 1.0, 0.0, "road-1", 4.0]))
        path.write_bytes(
            wal_header(0, 0) + _encode(good) + frame(bad) + after
        )
        return good, len(frame(bad) + after)

    @pytest.mark.parametrize("bad", _MALFORMED.values(), ids=_MALFORMED.keys())
    def test_read_stops_at_the_frame(self, tmp_path, bad):
        good, torn = self._write(tmp_path / "s.wal", bad)
        contents = read_wal(tmp_path / "s.wal")
        assert contents.entries == good
        assert contents.torn_bytes == torn
        assert scan_frames(_encode(good) + frame(bad)) == (good, len(_encode(good)))

    @pytest.mark.parametrize("bad", _MALFORMED.values(), ids=_MALFORMED.keys())
    def test_recovery_never_applies_it(self, tmp_path, bad):
        manager = DurabilityManager(tmp_path)
        _, torn = self._write(manager.wal_path(0), bad)
        recovered = manager.recover_shard(0)
        assert (recovered.replayed, recovered.torn_bytes) == (2, torn)
        restored = ShardedLocationStore(1)
        restored.crash_shard(0)
        assert restored.restore_shard(0, image=None, tail=recovered.tail) == 2
        golden = ShardedLocationStore(1)
        apply_one(golden, lu(t=1.0, seq=1))
        golden.tick(2.0)
        assert restored.shard(0).state_dict() == golden.shard(0).state_dict()
        assert restored.export_state() == golden.export_state()

    def test_version_1_wal_is_refused(self, tmp_path):
        """A version-1 WAL (JSON entries) raises, naming its version."""
        document = {"base_lsn": 0, "format": WAL_FORMAT, "shard": 0, "version": 1}
        manager = DurabilityManager(tmp_path)
        manager.wal_path(0).write_bytes(
            frame(json.dumps(document, sort_keys=True).encode())
            + frame(b'["tick",2.0]')
        )
        with pytest.raises(WalError, match="unsupported WAL version 1"):
            read_wal(manager.wal_path(0))
        with pytest.raises(WalError, match="unsupported WAL version 1"):
            manager.recover_shard(0)


class TestWriteAheadLog:
    def test_append_flush_read_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "s.wal", shard=3)
        assert wal.append_update(*rows_of(lu(t=1.0, seq=1))) == 1
        assert wal.append_tick(2.0) == 2
        wal.flush()
        wal.close()
        contents = read_wal(tmp_path / "s.wal")
        assert contents.shard == 3
        assert contents.base_lsn == 0
        assert contents.torn_bytes == 0
        assert contents.entries[0][:4] == ["lu", 1.0, 1, "n1"]
        assert contents.entries[1] == ["tick", 2.0]
        assert contents.next_lsn == 3

    def test_unflushed_entries_die_with_the_buffer(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "s.wal")
        wal.append_update(*rows_of(lu(seq=1)))
        wal.flush()
        wal.append_update(*rows_of(lu(seq=2)))
        wal.append_update(*rows_of(lu(seq=3)))
        assert wal.drop_buffer() == 2
        assert wal.last_lsn == 1
        wal.close()
        assert len(read_wal(tmp_path / "s.wal").entries) == 1

    def test_torn_tail_tolerated_on_read(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "s.wal")
        wal.append_update(*rows_of(lu(seq=1)))
        wal.close()
        with (tmp_path / "s.wal").open("ab") as fh:
            fh.write(b"\x40\x00\x00\x00 torn")  # header promising 64 bytes
        contents = read_wal(tmp_path / "s.wal")
        assert len(contents.entries) == 1
        assert contents.torn_bytes == len(b"\x40\x00\x00\x00 torn")

    def test_compaction_preserves_absolute_lsns(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "s.wal")
        for seq in range(1, 6):
            wal.append_update(*rows_of(lu(seq=seq, t=float(seq))))
        wal.flush()
        assert wal.compact(3) == 3  # entries with LSN 1..3 dropped
        wal.append_update(*rows_of(lu(seq=6, t=6.0)))
        assert wal.last_lsn == 6
        wal.close()
        contents = read_wal(tmp_path / "s.wal")
        assert contents.base_lsn == 3
        assert [e[2] for e in contents.entries] == [4, 5, 6]  # seqs
        assert contents.next_lsn == 7

    def test_compact_past_end_is_bounded(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "s.wal")
        wal.append_update(*rows_of(lu(seq=1)))
        assert wal.compact(99) == 1
        assert wal.base_lsn == 1
        wal.close()
        assert read_wal(tmp_path / "s.wal").entries == []

    def test_not_a_wal_rejected(self, tmp_path):
        (tmp_path / "junk.wal").write_bytes(b"not framed at all")
        with pytest.raises(WalError, match="no intact WAL header"):
            read_wal(tmp_path / "junk.wal")
        (tmp_path / "other.wal").write_bytes(
            frame(b'{"format":"something-else"}')
        )
        with pytest.raises(WalError, match="not a repro-shard-wal"):
            read_wal(tmp_path / "other.wal")

    def test_wals_logging_one_batch_share_its_frames(self, tmp_path):
        """A batch is framed once: every WAL that logs its rows appends
        the same frame objects."""
        batch, rows = rows_of(lu(seq=1), lu(seq=2, t=1.0))
        first = WriteAheadLog(tmp_path / "first.wal")
        second = WriteAheadLog(tmp_path / "second.wal")
        first.append_update(batch, rows)
        second.append_update(batch, rows[::-1])
        assert all(map(operator.is_, first._buffer, second._buffer[::-1]))
        first.close()
        second.close()

    def test_batch_and_single_row_appends_byte_identical(self, tmp_path):
        """Rows appended as one batch log the exact frames appended one
        by one, and each payload is the documented ``L`` layout of the
        row — whichever way a record went in, recovery and the
        determinism gates see one encoding."""
        updates = [
            lu(node=f"n{i}", t=0.1 + i / 3.0, seq=i, x=i / 7.0, vx=-i / 11.0)
            for i in range(5)
        ]
        batched = WriteAheadLog(tmp_path / "batched.wal")
        assert batched.append_update(*rows_of(*updates)) == len(updates)
        batched.close()
        single = WriteAheadLog(tmp_path / "single.wal")
        for update in updates:
            single.append_update(*rows_of(update))
        single.close()
        data = (tmp_path / "batched.wal").read_bytes()
        assert data == (tmp_path / "single.wal").read_bytes()
        payloads = [frame_bytes[8:] for frame_bytes in split_frames(data)[1:]]
        assert payloads == [
            _payload(["lu", *TraceRecord.from_update(u).to_row()]) for u in updates
        ]


# One WAL entry: an LU or a tick.
_wal_ops = st.lists(
    st.tuples(
        st.sampled_from(["lu", "lu", "tick"]),
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
    ),
    max_size=12,
)


def _fill(wal, ops):
    for seq, (kind, value) in enumerate(ops, start=1):
        if kind == "tick":
            wal.append_tick(value)
            continue
        update = lu(node=f"n{seq % 3}", t=float(seq), seq=seq, x=value)
        wal.append_update(*rows_of(update))
    wal.flush()


class TestVerbatimCompaction:
    """Compaction copies the surviving frames' bytes, never re-encodes."""

    @settings(max_examples=60, deadline=None)
    @given(_wal_ops, st.data())
    def test_survivors_are_the_original_frame_bytes(self, ops, data):
        upto = data.draw(st.integers(min_value=-1, max_value=len(ops) + 2))
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "s.wal"
            wal = WriteAheadLog(path, shard=2)
            _fill(wal, ops)
            original = path.read_bytes()
            before = read_wal(path)
            dropped = wal.compact(upto)
            wal.close()
            compacted = path.read_bytes()
            after = read_wal(path)
        frames = split_frames(original)
        if upto <= 0:
            assert dropped == 0
            assert compacted == original
            return
        kept = min(upto, len(ops))
        assert dropped == kept
        assert compacted == wal_header(2, kept) + b"".join(frames[1 + kept :])
        assert after.base_lsn == kept
        assert after.entries == before.entries[kept:]
        assert after.next_lsn == before.next_lsn

    def test_torn_tail_dropped_valid_prefix_kept(self, tmp_path):
        path = tmp_path / "s.wal"
        wal = WriteAheadLog(path, shard=1)
        _fill(wal, [("wire", 1.5), ("tick", 2.0), ("plain", 3.5)] * 2)
        intact = path.read_bytes()
        with path.open("ab") as fh:
            fh.write(b"\x40\x00\x00\x00 torn")  # header promising 64 bytes
        before = read_wal(path)
        assert before.torn_bytes == len(b"\x40\x00\x00\x00 torn")
        assert wal.compact(2) == 2
        assert path.read_bytes() == wal_header(1, 2) + b"".join(
            split_frames(intact)[3:]
        )
        after = read_wal(path)
        assert after.torn_bytes == 0
        assert after.base_lsn == 2
        assert after.entries == before.entries[2:]
        assert after.next_lsn == before.next_lsn
        # The live log appends after the valid prefix, at the next LSN.
        assert wal.append_tick(9.0) == before.next_lsn
        wal.close()
        assert read_wal(path).entries[-1] == ["tick", 9.0]

    def test_compaction_at_every_lsn_keeps_exactly_the_surviving_frames(
        self, tmp_path
    ):
        """From a WAL compacted once already, compacting at each LSN from
        its base to its last leaves a fresh header followed by exactly the
        frames of the entries ``read_wal`` returned past that LSN."""
        ops = [("lu", 1.5), ("tick", 2.0), ("lu", -3.25), ("lu", 4.0)] * 3

        def build(path):
            wal = WriteAheadLog(path, shard=5)
            _fill(wal, ops[:5])
            wal.compact(3)
            _fill(wal, ops[5:])
            return wal

        first = build(tmp_path / "probe.wal")
        base, last = first.base_lsn, first.last_lsn
        first.close()
        assert (base, last) == (3, len(ops))
        for upto in range(base, last + 1):
            path = tmp_path / f"upto-{upto}.wal"
            wal = build(path)
            before = read_wal(path)
            assert wal.compact(upto) == upto - base
            wal.close()
            survivors = before.entries[upto - base :]
            assert path.read_bytes() == wal_header(5, upto) + b"".join(
                frame(_payload(entry)) for entry in survivors
            )
            after = read_wal(path)
            assert (after.base_lsn, after.entries) == (upto, survivors)


def _realistic_shard():
    """A one-shard store with Brown trackers, a quarantined node, nodes
    updated since the last tick, and gates."""
    store = ShardedLocationStore(
        1, max_extrapolation_intervals=2.0, quarantine_intervals=4.0
    )
    for t in range(1, 11):
        for node in ("a", "b", "c"):
            if node == "a" and t > 2:
                continue  # "a" falls silent and ages into quarantine
            apply_one(store, lu(node=node, t=t + 0.1, seq=t, x=t * 1.5, vx=0.5))
        store.tick(t + 0.5)
    apply_one(store, lu(node="b", t=11.1, seq=11, x=16.5, vx=0.5))
    state = store.shard(0).state_dict()
    assert state["trackers"] and state["quarantined"] == ["a"]
    assert state["updated_since_tick"] == ["b"]
    return store


class TestSnapshotFile:
    def test_bytes_are_a_sorted_header_then_the_raw_columns(self, tmp_path):
        """A snapshot is a sorted-key compact JSON header frame, then one
        frame holding every column's raw little-endian bytes."""
        store = _realistic_shard()
        image = store.shard_image(0)
        assert image.gate_ids
        path = write_snapshot(tmp_path / "s.snap", shard=0, lsn=7, image=image)
        header = {
            "alpha": 0.4,
            "columns": [
                [name, column.dtype.str, len(column)]
                for name, column in image.columns.items()
            ],
            "counters": image.counters,
            "format": SNAPSHOT_FORMAT,
            "gate_nodes": image.gate_ids,
            "kind": "brown",
            "lsn": 7,
            "nodes": image.node_ids,
            "shard": 0,
            "version": SNAPSHOT_VERSION,
        }
        assert path.read_bytes() == frame(
            json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        ) + frame(b"".join(column.tobytes() for column in image.columns.values()))

    def test_snapshot_restores_and_version_1_is_refused(self, tmp_path):
        """A snapshot restores a fresh store to the same broker state,
        gates and row order as the shard it was taken from; the old JSON
        snapshot document, however written, is refused by version."""
        store = _realistic_shard()
        path = write_snapshot(
            tmp_path / "s.snap", shard=0, lsn=7, image=store.shard_image(0)
        )
        lsn, image = load_snapshot(path)
        assert lsn == 7
        restored = ShardedLocationStore(
            1, max_extrapolation_intervals=2.0, quarantine_intervals=4.0
        )
        restored.crash_shard(0)
        restored.restore_shard(0, image=image, tail=[])
        assert restored.shard(0).state_dict() == store.shard(0).state_dict()
        assert restored.export_state() == store.export_state()
        document = {
            "format": SNAPSHOT_FORMAT,
            "gates": store.export_state(),
            "lsn": 7,
            "shard": 0,
            "state": store.shard(0).state_dict(),
            "version": 1,
        }
        legacy = tmp_path / "legacy.snap.json"
        with legacy.open("w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
        with pytest.raises(WalError, match="unsupported snapshot version 1"):
            load_snapshot(legacy)

    def test_rows_are_reborn_in_a_brokers_restore_order(self):
        """Restored rows are born as a broker restores its document:
        tracked nodes by id, then nodes with only a DB record by id."""
        store = ShardedLocationStore(1)
        for seq, node in enumerate(("c", "a", "b", "d"), start=1):
            apply_one(store, lu(node=node, t=float(seq), seq=seq))
        image = store.shard_image(0)
        assert image.node_ids == ["c", "a", "b", "d"]
        image.columns["known"] = np.array([True, False, True, True])
        restored = ShardedLocationStore(1)
        restored.crash_shard(0)
        restored.restore_shard(0, image=image, tail=[])
        shard = restored.shard(0)
        assert restored.shard_image(0).node_ids == ["b", "c", "d", "a"]
        assert shard.born[: shard.n].tolist() == [0, 1, 2, 3]

    def test_snapshot_refuses_another_trackers_kind(self, tmp_path):
        image = _realistic_shard().shard_image(0)
        path = write_snapshot(tmp_path / "s.snap", shard=0, lsn=7, image=image)
        restored = ShardedLocationStore(1, use_location_estimator=False)
        restored.crash_shard(0)
        with pytest.raises(ValueError, match="do not match this shard"):
            restored.restore_shard(0, image=load_snapshot(path)[1], tail=[])

    @pytest.mark.parametrize("fsync", [False, True])
    def test_snapshot_fsynced_before_compaction(
        self, tmp_path, monkeypatch, fsync
    ):
        """With ``fsync`` on, the snapshot and its rename are on disk
        before the WAL it covers is compacted away, and the compacted
        WAL's rename is fsynced too; with it off, nothing is fsynced."""
        manager = DurabilityManager(tmp_path, DurabilityConfig(fsync=fsync))
        manager.bind(1)
        store = ShardedLocationStore(1)
        for seq in range(1, 6):
            update = lu(seq=seq, t=float(seq), x=float(seq))
            apply_one(store, update)
            log_one(manager, 0, update)
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        manager.snapshot_now(0, store.shard_image(0))
        manager.close()
        if not fsync:
            assert synced == []
            return
        snapshot = manager.snapshot_path(0).stat().st_ino
        compacted = manager.wal_path(0).stat().st_ino
        directory = tmp_path.stat().st_ino
        assert snapshot in synced and compacted in synced
        assert directory in synced
        assert (
            synced.index(snapshot)
            < synced.index(directory)
            < synced.index(compacted)
        )
        assert synced[-1] == directory


class TestSnapshotCorruption:
    """A damaged snapshot never loads: every truncation and every
    single-byte flip raises :class:`WalError` instead of an image."""

    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("snap") / "s.snap"
        image = _realistic_shard().shard_image(0)
        write_snapshot(path, shard=0, lsn=7, image=image)
        return path.read_bytes()

    def test_truncation_at_every_offset_rejected(self, snapshot, tmp_path):
        path = tmp_path / "cut.snap"
        for cut in range(len(snapshot)):
            path.write_bytes(snapshot[:cut])
            with pytest.raises(WalError):
                load_snapshot(path)

    def test_any_single_byte_flip_rejected(self, snapshot, tmp_path):
        path = tmp_path / "flipped.snap"
        for pos in range(len(snapshot)):
            for flip in (0x01, 0x80, 0xFF):
                damaged = bytearray(snapshot)
                damaged[pos] ^= flip
                path.write_bytes(bytes(damaged))
                with pytest.raises(WalError):
                    load_snapshot(path)

    def test_trailing_bytes_rejected(self, snapshot, tmp_path):
        path = tmp_path / "long.snap"
        path.write_bytes(snapshot + b"\x00")
        with pytest.raises(WalError, match="not an intact"):
            load_snapshot(path)


class TestSnapshotTailReplay:
    """Snapshot + WAL-tail replay reproduces a shard bit-exactly."""

    def _stream(self, n=30):
        # Two nodes reporting interleaved, region pinned to one shard.
        return [
            lu(
                node=f"n{i % 2}",
                t=1.0 + i * 0.5,
                seq=1 + i // 2,
                x=float(i),
                vx=0.5,
            )
            for i in range(n)
        ]

    @pytest.mark.parametrize("snapshot_after", [0, 10, 29])
    def test_recovered_shard_matches_uncrashed(
        self, tmp_path, snapshot_after
    ):
        golden = ShardedLocationStore(1)
        durable = ShardedLocationStore(1)
        manager = DurabilityManager(tmp_path, DurabilityConfig())
        manager.bind(1)
        stream = self._stream()
        for i, update in enumerate(stream):
            apply_one(golden, update)
            if apply_one(durable, update) is IngestOutcome.APPLIED:
                log_one(manager, 0, update)
            if i % 7 == 6:
                now = update.timestamp + 0.1
                golden.tick(now)
                durable.tick(now)
                manager.log_tick(0, now)
            manager.flush_shard(0)
            if snapshot_after and i == snapshot_after:
                manager.snapshot_now(0, durable.shard_image(0))

        # Crash and recover from disk only.
        recovered_store = ShardedLocationStore(1)
        recovered_store.crash_shard(0)
        recovered = manager.recover_shard(0)
        recovered_store.restore_shard(
            0, image=recovered.image, tail=recovered.tail
        )
        manager.close()

        assert (
            recovered_store.shard(0).state_dict()
            == golden.shard(0).state_dict()
        )
        assert recovered_store.export_state() == golden.export_state()
        if snapshot_after:
            assert recovered.snapshot_lsn > 0
            assert recovered.replayed < len(stream)

    @pytest.mark.parametrize("compacted_at", [None, 10])
    def test_crash_between_snapshot_and_compaction(
        self, tmp_path, monkeypatch, compacted_at
    ):
        """A crash after ``write_snapshot`` but before ``compact`` leaves
        WAL frames the snapshot covers; recovery skips them undecoded."""

        class Crash(Exception):
            pass

        def crash(self, upto_lsn):
            raise Crash

        golden = ShardedLocationStore(1)
        durable = ShardedLocationStore(1)
        manager = DurabilityManager(tmp_path, DurabilityConfig())
        manager.bind(1)
        for i, update in enumerate(self._stream()[:21]):
            apply_one(golden, update)
            if apply_one(durable, update) is IngestOutcome.APPLIED:
                log_one(manager, 0, update)
            if i % 7 == 6:
                now = update.timestamp + 0.1
                golden.tick(now)
                durable.tick(now)
                manager.log_tick(0, now)
            manager.flush_shard(0)
            if i == compacted_at:
                manager.snapshot_now(0, durable.shard_image(0))
        with monkeypatch.context() as patch:
            patch.setattr(WriteAheadLog, "compact", crash)
            with pytest.raises(Crash):
                manager.snapshot_now(0, durable.shard_image(0))
        last_lsn = manager.wal(0).last_lsn
        left = read_wal(manager.wal_path(0))
        assert left.next_lsn == last_lsn + 1
        assert left.base_lsn < last_lsn  # covered frames are still there

        decoded = []
        real_loads = json.loads

        def counting_loads(text, *args, **kwargs):
            decoded.append(text)
            return real_loads(text, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(json, "loads", counting_loads)
            recovered = manager.recover_shard(0)
        manager.close()
        assert recovered.snapshot_lsn == last_lsn
        assert recovered.tail == []
        assert len(decoded) == 2  # the snapshot and WAL header frames

        recovered_store = ShardedLocationStore(1)
        recovered_store.crash_shard(0)
        recovered_store.restore_shard(
            0, image=recovered.image, tail=recovered.tail
        )
        assert (
            recovered_store.shard(0).state_dict()
            == golden.shard(0).state_dict()
        )
        assert recovered_store.export_state() == golden.export_state()

    def test_unflushed_window_is_the_only_loss(self, tmp_path):
        manager = DurabilityManager(tmp_path, DurabilityConfig())
        manager.bind(1)
        store = ShardedLocationStore(1)
        stream = self._stream(10)
        for update in stream[:6]:
            apply_one(store, update)
            log_one(manager, 0, update)
        manager.flush_shard(0)
        for update in stream[6:]:
            apply_one(store, update)
            log_one(manager, 0, update)
        # Crash before the second flush: exactly 4 entries evaporate.
        assert manager.on_crash(0) == 4
        assert manager.stats.dropped_unflushed == 4
        recovered = manager.recover_shard(0)
        assert recovered.replayed == 6
        manager.close()

    def test_snapshot_cadence_compacts(self, tmp_path):
        manager = DurabilityManager(
            tmp_path, DurabilityConfig(snapshot_every=5)
        )
        manager.bind(1)
        store = ShardedLocationStore(1)
        took = 0
        for update in self._stream(12):
            apply_one(store, update)
            log_one(manager, 0, update)
            manager.flush_shard(0)
            if manager.maybe_snapshot(
                0,
                lambda: store.shard_image(0),
            ):
                took += 1
        assert took == 2
        assert manager.stats.snapshots_written == 2
        assert manager.stats.compacted_entries == 10
        contents = read_wal(manager.wal_path(0))
        assert contents.base_lsn == 10
        assert len(contents.entries) == 2
        manager.close()

    def test_bad_snapshot_rejected(self, tmp_path):
        path = tmp_path / "s.snap"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(WalError, match="not an intact"):
            load_snapshot(path)
        write_snapshot(
            path, shard=0, lsn=3, image=ShardedLocationStore(1).shard_image(0)
        )
        lsn, image = load_snapshot(path)
        assert lsn == 3
        assert image.node_ids == image.gate_ids == []

    def test_double_bind_rejected(self, tmp_path):
        manager = DurabilityManager(tmp_path)
        manager.bind(2)
        with pytest.raises(RuntimeError, match="already bound"):
            manager.bind(2)
        manager.close()
