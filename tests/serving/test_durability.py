"""WAL framing, snapshots, and snapshot+tail-replay equivalence.

The framing properties are the load-bearing ones: recovery's whole
contract rests on ``scan_frames`` returning exactly the longest valid
prefix of a possibly-torn file, never decoding a corrupt frame and never
discarding an intact one.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Vec2
from repro.network.messages import LocationUpdate
from repro.serving import (
    IngestOutcome,
    IngestService,
    ReplayConfig,
    ServingConfig,
    ShardedLocationStore,
    TraceRecord,
    replay_trace_full,
)
from repro.serving import durability
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
# WAL frames in their list shapes: a tick, or a group of ``lu`` entries.
_frame = st.one_of(_tick_entries, st.lists(_lu_entries, min_size=1, max_size=4))
_frames = st.lists(_frame, max_size=6)


def _entries_of(frames):
    """The entries *frames* hold, in order."""
    return [
        entry
        for item in frames
        for entry in ([item] if item[0] == "tick" else item)
    ]


def _payload(item):
    """The version-3 payload of one frame in its list shape (a tick, or a
    list of ``lu`` entries for a group), built from the documented
    layout."""
    if item[0] == "tick":
        return b"T" + struct.pack("<d", item[1])
    nodes = [entry[3].encode("utf-8", "surrogatepass") for entry in item]
    regions = [entry[8].encode("utf-8", "surrogatepass") for entry in item]
    fixed = b"".join(
        struct.pack(
            "<dqdddddII", time, seq, x, y, vx, vy, dth, len(node), len(region)
        )
        for (_, time, seq, _, x, y, vx, vy, _, dth), node, region in zip(
            item, nodes, regions
        )
    )
    return b"B" + struct.pack("<I", len(item)) + fixed + b"".join(nodes + regions)


def _encode(frames):
    return b"".join(frame(_payload(item)) for item in frames)


def _frame_ends(frames):
    """The byte offset where each of *frames* ends, encoded, and the
    entry count up to there."""
    ends = []
    offset = count = 0
    for item in frames:
        offset += 8 + len(_payload(item))
        count += 1 if item[0] == "tick" else len(item)
        ends.append((offset, count))
    return ends


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


def as_entry(update):
    """*update* as the ``lu`` entry list :func:`read_wal` returns."""
    return ["lu", *TraceRecord.from_update(update).to_row()]


def split_frames(data):
    """Raw frames of an intact WAL image, parsed from the length fields."""
    frames = []
    offset = 0
    while offset < len(data):
        end = offset + 8 + int.from_bytes(data[offset : offset + 4], "little")
        frames.append(data[offset:end])
        offset = end
    return frames


def wal_header(shard, base_lsn, version=WAL_VERSION):
    document = {
        "base_lsn": base_lsn,
        "format": WAL_FORMAT,
        "shard": shard,
        "version": version,
    }
    return frame(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    )


class TestFraming:
    @settings(max_examples=60, deadline=None)
    @given(_frames)
    def test_round_trip(self, frames):
        data = _encode(frames)
        payloads, valid = scan_frames(data)
        assert payloads == _entries_of(frames)
        assert valid == len(data)

    @settings(max_examples=60, deadline=None)
    @given(_frames, st.data())
    def test_truncation_at_any_offset_yields_longest_valid_prefix(
        self, frames, data
    ):
        """Crash-at-every-byte-offset: the scan never loses an intact
        frame and never fabricates one from a torn tail; a torn group
        loses all of its entries."""
        encoded = _encode(frames)
        entries = _entries_of(frames)
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded)))
        payloads, valid = scan_frames(encoded[:cut])
        # The valid prefix is exactly the frames wholly inside the cut...
        valid_end, kept = max(
            [(end, n) for end, n in _frame_ends(frames) if end <= cut],
            default=(0, 0),
        )
        assert valid == valid_end
        assert payloads == entries[:kept]
        # ...and rescanning it reproduces it.
        assert scan_frames(encoded[:valid]) == (payloads, valid)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_frame, min_size=1, max_size=6), st.data())
    def test_single_byte_corruption_never_decodes_past_it(
        self, frames, data
    ):
        """CRC32 catches any single-byte flip: frames before the damage
        survive untouched, nothing at or past it is ever returned."""
        encoded = bytearray(_encode(frames))
        pos = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1)
        )
        flip = data.draw(st.integers(min_value=1, max_value=255))
        encoded[pos] ^= flip
        payloads, valid = scan_frames(bytes(encoded))
        assert valid <= pos  # the corrupt frame itself never validates
        assert (valid, len(payloads)) in [(0, 0), *_frame_ends(frames)]
        assert payloads == _entries_of(frames)[: len(payloads)]

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


_NUMBERS = struct.pack("<dqddddd", 1.0, 1, 0.0, 0.0, 1.0, 0.0, 4.0)


def _group(*rows, count=None):
    """A group payload of *rows*, each ``(node_len, region_len, ids)``:
    its head, its fixed blocks, then every row's id bytes."""
    head = b"B" + struct.pack("<I", len(rows) if count is None else count)
    fixed = b"".join(_NUMBERS + struct.pack("<II", n, r) for n, r, _ in rows)
    return head + fixed + b"".join(ids for _, _, ids in rows)


#: CRC-valid entry payloads that do not decode.
_MALFORMED = {
    "unknown tag": b"X" + _group((2, 6, b"n1road-1"))[1:],
    "short group head": b"B\x01\x00",
    "short fixed block": _group((2, 6, b"n1road-1"))[: 5 + 30],
    "rows past the payload": _group((2, 6, b"n1road-1"), count=2),
    "id length past the end": _group((9, 6, b"n1road-1")),
    "trailing bytes": _group((2, 6, b"n1road-1")) + b"\x00",
    "tick with trailing bytes": b"T" + struct.pack("<d", 2.0) + b"\x00",
    "id not UTF-8": _group((2, 6, b"\xffnroad-1")),
    "region id not UTF-8": _group((2, 6, b"n1road\xff1"), (2, 6, b"n2road-1")),
}


class TestMalformedEntries:
    """A CRC-valid payload that does not decode ends the valid prefix,
    exactly as a torn frame does, and recovery never applies it."""

    def _write(self, path, bad):
        good = [
            [as_entry(lu(t=1.0, seq=1)), as_entry(lu(node="n2", t=1.5, seq=1))],
            ["tick", 2.0],
        ]
        after = frame(_payload([as_entry(lu(t=3.0, seq=2, x=5.0))]))
        path.write_bytes(
            wal_header(0, 0) + _encode(good) + frame(bad) + after
        )
        return _entries_of(good), len(frame(bad) + after)

    @pytest.mark.parametrize("bad", _MALFORMED.values(), ids=_MALFORMED.keys())
    def test_read_stops_at_the_frame(self, tmp_path, bad):
        good, torn = self._write(tmp_path / "s.wal", bad)
        contents = read_wal(tmp_path / "s.wal")
        assert contents.entries == good
        assert contents.torn_bytes == torn
        encoded = (tmp_path / "s.wal").read_bytes()[len(wal_header(0, 0)) :]
        valid = len(encoded) - torn
        assert scan_frames(encoded[:valid] + frame(bad)) == (good, valid)

    @pytest.mark.parametrize("bad", _MALFORMED.values(), ids=_MALFORMED.keys())
    def test_recovery_never_applies_it(self, tmp_path, bad):
        manager = DurabilityManager(tmp_path)
        _, torn = self._write(manager.wal_path(0), bad)
        recovered = manager.recover_shard(0)
        assert (recovered.replayed, recovered.torn_bytes) == (3, torn)
        restored = ShardedLocationStore(1)
        restored.crash_shard(0)
        assert restored.restore_shard(0, image=None, tail=recovered.tail) == 3
        golden = ShardedLocationStore(1)
        golden.apply(*rows_of(lu(t=1.0, seq=1), lu(node="n2", t=1.5, seq=1)))
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

    def test_version_2_wal_is_refused(self, tmp_path):
        """A version-2 WAL (one ``L`` frame per LU) raises, naming its
        version."""
        node, region = b"n1", b"road-1"
        entry = b"L" + _NUMBERS + struct.pack("<I", len(node)) + node + region
        manager = DurabilityManager(tmp_path)
        manager.wal_path(0).write_bytes(wal_header(0, 0, version=2) + frame(entry))
        with pytest.raises(WalError, match="unsupported WAL version 2"):
            read_wal(manager.wal_path(0))
        with pytest.raises(WalError, match="unsupported WAL version 2"):
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

    def test_wals_logging_one_batch_pack_it_once(self, tmp_path, monkeypatch):
        """A batch is packed once: every WAL that logs its rows, in any
        order, gathers them from the same packed rows."""
        packed = []

        def counting_pack(batch):
            packed.append(batch)
            return pack_rows(batch)

        pack_rows = durability._pack_rows
        monkeypatch.setattr(durability, "_pack_rows", counting_pack)
        updates = [lu(seq=1), lu(node="é-节点", seq=2, t=1.0)]
        batch, rows = rows_of(*updates)
        first = WriteAheadLog(tmp_path / "first.wal")
        second = WriteAheadLog(tmp_path / "second.wal")
        first.append_update(batch, rows)
        second.append_update(batch, rows[::-1])
        first.close()
        second.close()
        assert len(packed) == 1 and packed[0] is batch
        entries = read_wal(tmp_path / "first.wal").entries
        assert entries == [as_entry(update) for update in updates]
        assert read_wal(tmp_path / "second.wal").entries == entries[::-1]

    def test_group_and_single_row_appends_decode_alike(self, tmp_path):
        """Rows appended as one group decode to the entries, and take the
        LSNs, that appending them one by one gives, and the group's
        payload is the documented ``B`` layout of the rows — whichever
        way a record went in, recovery and the determinism gates see the
        same entries."""
        updates = [
            lu(
                node=f"n{i}" if i % 2 else "\ud800é",
                t=0.1 + i / 3.0,
                seq=i,
                x=i / 7.0,
                vx=-i / 11.0,
                region=f"road-{i % 3}",
            )
            for i in range(5)
        ]
        grouped = WriteAheadLog(tmp_path / "grouped.wal")
        assert grouped.append_update(*rows_of(*updates)) == len(updates)
        grouped.close()
        single = WriteAheadLog(tmp_path / "single.wal")
        assert [single.append_update(*rows_of(u)) for u in updates] == [1, 2, 3, 4, 5]
        single.close()
        from_group = read_wal(tmp_path / "grouped.wal")
        from_singles = read_wal(tmp_path / "single.wal")
        assert from_group.entries == from_singles.entries
        assert from_group.entries == [as_entry(u) for u in updates]
        assert from_group.next_lsn == from_singles.next_lsn == len(updates) + 1
        data = (tmp_path / "grouped.wal").read_bytes()
        payloads = [frame_bytes[8:] for frame_bytes in split_frames(data)[1:]]
        assert payloads == [_payload([as_entry(u) for u in updates])]


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
    """Append *ops* and flush: a ``tick`` op's value is its time, a
    ``group`` op's a list of x positions logged as one group, and any
    other op's the x of one LU.  Every entry's LSN is its seq."""
    seq = wal.last_lsn
    for kind, value in ops:
        if kind == "tick":
            seq += 1
            wal.append_tick(value)
            continue
        xs = value if kind == "group" else [value]
        seqs = range(seq + 1, seq + 1 + len(xs))
        seq += len(xs)
        updates = [
            lu(node=f"n{n % 3}", t=float(n), seq=n, x=x) for n, x in zip(seqs, xs)
        ]
        wal.append_update(*rows_of(*updates))
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
        """From a WAL compacted once already (inside a group), compacting
        at each LSN from its base to its last leaves a fresh header
        followed by exactly the frames of the entries ``read_wal``
        returned past that LSN: whole frames past the cut as they were,
        and a group the cut falls inside with its surviving rows only."""
        ops = [("group", [1.5, -2.0, 0.5]), ("tick", 2.0), ("lu", -3.25)] * 2
        ops += [("group", [4.0, 5.5])] * 2

        def build(path):
            wal = WriteAheadLog(path, shard=5)
            _fill(wal, ops[:4])
            assert wal.compact(2) == 2
            _fill(wal, ops[4:])
            return wal

        sizes = [len(value) if kind == "group" else 1 for kind, value in ops]
        first = build(tmp_path / "probe.wal")
        base, last = first.base_lsn, first.last_lsn
        first.close()
        assert (base, last) == (2, sum(sizes))
        for upto in range(base, last + 1):
            path = tmp_path / f"upto-{upto}.wal"
            wal = build(path)
            before = read_wal(path)
            assert wal.compact(upto) == upto - base
            wal.close()
            survivors = before.entries[upto - base :]
            # The surviving entries, cut into the frames that hold them.
            frames, start = [], 0
            for end in accumulate(sizes):
                if end > upto:
                    kept = survivors[max(start - upto, 0) : end - upto]
                    frames.append(kept[0] if kept[0][0] == "tick" else kept)
                start = end
            assert path.read_bytes() == wal_header(5, upto) + _encode(frames)
            after = read_wal(path)
            assert (after.base_lsn, after.entries) == (upto, survivors)
            assert after.next_lsn == before.next_lsn


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

    @pytest.mark.parametrize("snapshot_lsn", [2, 3, 4, 6])
    def test_covered_frames_skipped_by_their_row_counts(
        self, tmp_path, snapshot_lsn
    ):
        """Frames a snapshot covers (a crash between snapshot and
        compaction leaves them) are skipped by their heads' entry counts,
        and a snapshot inside a group replays only the group's later rows.
        The WAL holds a 3-row group (LSNs 1-3), a tick (4) and a 5-row
        group (5-9)."""
        stream = self._stream(8)
        now = stream[2].timestamp + 0.1
        manager = DurabilityManager(tmp_path)
        manager.bind(1)
        wal = manager.wal(0)
        wal.append_update(*rows_of(*stream[:3]))
        wal.append_tick(now)
        wal.append_update(*rows_of(*stream[3:]))
        manager.close()
        entries = [*stream[:3], now, *stream[3:]]

        def applied(upto):
            store = ShardedLocationStore(1)
            for entry in entries[:upto]:
                if isinstance(entry, float):
                    store.tick(entry)
                else:
                    apply_one(store, entry)
            return store

        write_snapshot(
            manager.snapshot_path(0),
            shard=0,
            lsn=snapshot_lsn,
            image=applied(snapshot_lsn).shard_image(0),
        )
        recovered = manager.recover_shard(0)
        assert recovered.snapshot_lsn == snapshot_lsn
        assert recovered.replayed == len(entries) - snapshot_lsn
        restored = ShardedLocationStore(1)
        restored.crash_shard(0)
        restored.restore_shard(0, image=recovered.image, tail=recovered.tail)
        golden = applied(len(entries))
        assert restored.shard(0).state_dict() == golden.shard(0).state_dict()
        assert restored.export_state() == golden.export_state()

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


class TestTornFlush:
    """A crash mid-write tears the last group frame: recovery loses that
    whole flush, which was never durable, and nothing flushed before it."""

    def test_every_cut_inside_the_last_group_recovers_the_frame_before(
        self, tmp_path, monkeypatch, tiny_trace
    ):
        meta, records = tiny_trace
        # Each shard's state at each LSN its WAL reached at the end of a
        # flush window or a sweep, as the uncrashed shard had it.
        states = {}
        flush, tick = IngestService._flush, IngestService.tick

        def capture(service):
            for index in range(service.config.shards):
                lsn = service.durability.wal(index).last_lsn
                states[index, lsn] = service.store.shard(index).state_dict()

        def flush_and_capture(service):
            flush(service)
            capture(service)

        def tick_and_capture(service, now):
            swept = tick(service, now)
            capture(service)
            return swept

        monkeypatch.setattr(IngestService, "_flush", flush_and_capture)
        monkeypatch.setattr(IngestService, "tick", tick_and_capture)
        live = DurabilityManager(
            tmp_path / "live", DurabilityConfig(snapshot_every=32, fsync=True)
        )
        replay = ReplayConfig(
            rate=2000.0, sweep_interval=1.0, serving=ServingConfig(flush_interval=0.005)
        )
        _, service = replay_trace_full(
            records, replay, trace_meta=meta, durability=live
        )
        live.close()
        assert live.stats.snapshots_written > 0
        store = service.store
        torn = DurabilityManager(tmp_path / "torn")
        torn.directory.mkdir()
        for index in range(service.config.shards):
            data = live.wal_path(index).read_bytes()
            frames = split_frames(data)
            last = max(i for i, raw in enumerate(frames) if raw[8:9] == b"B")
            # The LSN of the frame before the last group.
            previous_lsn = read_wal(live.wal_path(index)).base_lsn + sum(
                1 if raw[8:9] == b"T" else int.from_bytes(raw[9:13], "little")
                for raw in frames[1:last]
            )
            start = sum(map(len, frames[:last]))
            snapshot = live.snapshot_path(index).read_bytes()
            torn.snapshot_path(index).write_bytes(snapshot)
            for cut in range(start, start + len(frames[last])):
                torn.wal_path(index).write_bytes(data[:cut])
                recovered = torn.recover_shard(index)
                assert recovered.torn_bytes == cut - start
                assert recovered.snapshot_lsn + recovered.replayed == previous_lsn
                store.crash_shard(index)
                store.restore_shard(index, image=recovered.image, tail=recovered.tail)
                assert store.shard(index).state_dict() == states[index, previous_lsn]
