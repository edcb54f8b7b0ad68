"""Per-shard durability: write-ahead log + snapshots + compaction.

A :class:`~repro.serving.store.ShardedLocationStore` shard lives
entirely in memory — a crash loses its location DB, tracker states and
quarantine sets.  This module makes that state *reconstructible*: every
applied LU and every estimation sweep is appended to a per-shard
write-ahead log before the flush window ends, and periodic snapshots
dump the shard's columns and owned store gates
(:class:`~repro.serving.store.ShardImage`) so the log can be compacted.
Recovery is then

    snapshot image  +  WAL tail replay (entries past the snapshot LSN)

which reproduces the shard bit-exactly, because a shard is a
deterministic function of its applied-LU/tick sequence and
:meth:`~repro.serving.store.ColumnShard.load_image` restores the
snapshot point exactly.

WAL format (``repro-shard-wal`` version 2)
------------------------------------------

A flat sequence of length+checksum framed records::

    [u32 length (LE)] [u32 crc32(payload) (LE)] [payload bytes]

Frame 0 is the file header, UTF-8 JSON
``{"base_lsn": N, "format": "repro-shard-wal", "shard": i, "version": 2}``;
every further frame is one entry, a binary payload whose first byte is
its tag:

* ``L`` — one *applied* LU (post-dedup: the WAL records what the shard
  actually absorbed, so replay needs no gate logic).  Little-endian
  ``<d q d d d d d`` (time, seq, x, y, vx, vy, dth), then the ``u32``
  byte length of the node id, the node id, and the region id filling
  the rest of the payload.  Ids are UTF-8 with ``surrogatepass``, so
  any id a JSON trace can carry (a lone surrogate included) is logged.
* ``T`` — one estimation sweep boundary: ``<d`` (now).

An applied batch's fixed blocks are packed at once from its columns
(one structured array and ``tobytes``), so the logged bytes depend only
on the decoded values, never on the trace file's spelling.  Recovery
reads the fixed blocks of a tail back with one ``numpy.frombuffer``.
:func:`read_wal` also returns each entry in its diagnostic list shape,
``["lu", time, seq, node_id, x, y, vx, vy, region_id, dth]`` or
``["tick", now]``.  A version-1 (JSON entry) WAL raises
:class:`WalError`.

Entries carry implicit log sequence numbers: the first entry frame in a
file has LSN ``base_lsn + 1``.  Compaction rewrites the file with a new
``base_lsn`` (atomically, via a temp file and ``os.replace``), so LSNs
are absolute across the shard's lifetime and a snapshot taken at LSN
``k`` pairs with any WAL whose ``base_lsn <= k``.  The writer keeps the
end offset of every frame it flushed, so compaction copies the
surviving frames' bytes from there without reading the rest back.

Torn tails are expected, not fatal: :func:`read_wal` scans frames and
stops at the first incomplete or checksum-failing one, or at the first
CRC-valid payload that does not decode, returning the longest valid
prefix plus how many trailing bytes it discarded — exactly the contract
a killed writer needs.  One walker, :func:`_frame_spans`, owns the
framing rules; it checks lengths and CRCs only, so recovery (which
skips the frames a snapshot covers) decodes no entry it does not
return.  One decoder, :func:`_decode_entries`, owns the entry layout.

Snapshot format (``repro-shard-snapshot`` version 2)
----------------------------------------------------

Two frames: a sorted-key JSON header (``format``, ``version``,
``shard``, ``lsn``, the shard's ``counters``, its trackers' ``kind`` and
``alpha``, the node ids of its rows and of its owned gates, and
``[name, dtype, length]`` per column), then every column's raw
little-endian bytes.  It is loaded with ``numpy.frombuffer`` (no
pickle); a truncated, corrupt or version-1 (JSON) file raises
:class:`WalError`.

Durability versus determinism: WAL/snapshot writes happen inside
simulator events and never read a wall clock (DET001); ``fsync`` is
policy (:class:`DurabilityConfig`), batched at flush-window boundaries.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from itertools import accumulate, islice
from pathlib import Path
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

from repro.serving.store import ShardImage
from repro.serving.trace import LU_NUMBERS, TraceBatch
from repro.telemetry import NULL_TELEMETRY

__all__ = [
    "WAL_FORMAT",
    "WAL_VERSION",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "WalError",
    "WalContents",
    "RecoveredShard",
    "WriteAheadLog",
    "DurabilityConfig",
    "DurabilityManager",
    "frame",
    "read_wal",
    "scan_frames",
    "load_snapshot",
    "write_snapshot",
]

WAL_FORMAT = "repro-shard-wal"
WAL_VERSION = 2
SNAPSHOT_FORMAT = "repro-shard-snapshot"
SNAPSHOT_VERSION = 2

#: Frame header: little-endian u32 payload length + u32 CRC32(payload).
_FRAME_HEADER = struct.Struct("<II")

#: Entry tags: the first byte of every entry payload.
_LU_TAG = ord("L")
_TICK_TAG = ord("T")

#: An ``lu`` entry's fixed block: the tag, the row's numbers and the byte
#: length of its node id (packed, so 61 bytes); the ids follow it.
_LU_BLOCK = np.dtype([("tag", "u1"), *LU_NUMBERS, ("node_len", "<u4")])

#: A ``tick`` entry: the tag and the sweep's time.
_TICK = struct.Struct("<Bd")

#: The row columns an ``lu`` entry's fixed block carries.
_LU_COLUMNS = tuple(name for name, _ in LU_NUMBERS)

#: Every column of a :class:`TraceBatch`.
_BATCH_COLUMNS = (*_LU_COLUMNS, "node", "region")


class WalError(ValueError):
    """A structurally invalid WAL or snapshot (beyond a torn tail)."""


def frame(payload: bytes) -> bytes:
    """Wrap *payload* in the length+checksum frame."""
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _fsync_directory(directory: Path) -> None:
    """Fsync *directory* so a rename inside it survives a power loss."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _frame_spans(data: bytes) -> tuple[list[tuple[int, int]], int]:
    """Walk the longest prefix of *data* whose frames are whole and intact.

    Returns the ``(start, end)`` payload offsets of those frames and the
    byte offset the walk stopped at.  Only lengths and CRCs are checked;
    nothing is decoded.
    """
    spans: list[tuple[int, int]] = []
    view = memoryview(data)
    offset = 0
    header_size = _FRAME_HEADER.size
    total = len(data)
    while offset + header_size <= total:
        length, checksum = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + header_size
        end = start + length
        if end > total or zlib.crc32(view[start:end]) != checksum:
            break
        spans.append((start, end))
        offset = end
    return spans, offset


def _lu_frames(batch: TraceBatch) -> list[bytes]:
    """The ``lu`` entry frame of every row of *batch*.

    The fixed blocks of all rows are packed at once from the columns;
    each id is encoded once, per id table entry.
    """
    node_ids = [node.encode("utf-8", "surrogatepass") for node in batch.node_ids]
    region_ids = [r.encode("utf-8", "surrogatepass") for r in batch.region_ids]
    block = np.empty(len(batch), _LU_BLOCK)
    block["tag"] = _LU_TAG
    for name in _LU_COLUMNS:
        block[name] = getattr(batch, name)
    block["node_len"] = np.fromiter(map(len, node_ids), np.uint32, len(node_ids))[
        batch.node
    ]
    fixed = block.tobytes()
    width = _LU_BLOCK.itemsize
    pack = _FRAME_HEADER.pack
    crc32 = zlib.crc32
    frames = []
    for start, node, region in zip(
        range(0, len(fixed), width),
        map(node_ids.__getitem__, batch.node.tolist()),
        map(region_ids.__getitem__, batch.region.tolist()),
    ):
        payload = fixed[start : start + width] + node + region
        frames.append(pack(len(payload), crc32(payload)) + payload)
    return frames


@dataclass(frozen=True)
class _Entries:
    """Decoded WAL entries, in append order, held as columns."""

    #: Per entry: True for a ``tick``, False for an ``lu``.
    is_tick: NDArray[Any]
    #: The ``lu`` entries' rows (a :class:`TraceBatch` of all of them).
    lus: TraceBatch
    #: The ``tick`` entries' times.
    ticks: list[float]

    def __len__(self) -> int:
        return len(self.is_tick)

    def lists(self) -> list[list[Any]]:
        """Each entry in its diagnostic list shape."""
        lus = (["lu", *record.to_row()] for record in self.lus)
        ticks = (["tick", now] for now in self.ticks)
        return [next(ticks) if tick else next(lus) for tick in self.is_tick.tolist()]

    def runs(self) -> list[TraceBatch | float]:
        """The entries as runs of ``lu`` rows split at ``tick`` times."""
        lus = self.lus
        tick_at = np.flatnonzero(self.is_tick)
        cuts = (tick_at - np.arange(len(tick_at))).tolist() + [len(lus)]
        runs: list[TraceBatch | float] = []
        start = 0
        for cut, now in zip(cuts, [*self.ticks, None]):
            if cut > start:
                runs.append(_slice(lus, start, cut))
            if now is not None:
                runs.append(now)
            start = cut
        return runs


def _slice(batch: TraceBatch, start: int, stop: int) -> TraceBatch:
    """Rows *start* to *stop* of *batch*, sharing its id tables."""
    return TraceBatch(
        **{name: getattr(batch, name)[start:stop] for name in _BATCH_COLUMNS},
        node_ids=batch.node_ids,
        region_ids=batch.region_ids,
    )


def _decode_entries(
    data: bytes, spans: list[tuple[int, int]], end: int
) -> tuple[_Entries, int]:
    """Decode the entry payloads at *spans*, in order.

    Stops at the first payload that does not decode — an unknown tag, a
    short block, a node id running past the payload, a tick of the wrong
    size or an id that is not UTF-8 — and returns the entries before it
    with the offset of that frame's start, or *end*, the walk's stopping
    offset, when every payload decodes.
    """
    count = len(spans)
    start, stop = np.array(spans, dtype=np.int64).reshape(count, 2).T
    size = stop - start
    tag = np.zeros(count, np.uint8)
    tag[size > 0] = np.frombuffer(data, np.uint8)[start[size > 0]]
    is_tick = (tag == _TICK_TAG) & (size == _TICK.size)
    width = _LU_BLOCK.itemsize
    lu_at = np.flatnonzero((tag == _LU_TAG) & (size >= width))
    block = np.frombuffer(
        b"".join([data[s : s + width] for s in start[lu_at].tolist()]), _LU_BLOCK
    )
    valid = is_tick.copy()
    valid[lu_at] = start[lu_at] + width + block["node_len"] <= stop[lu_at]
    decoded = count if valid.all() else int(np.argmin(valid))
    node_table: dict[str, int] = {}
    region_table: dict[str, int] = {}
    pairs: dict[bytes, tuple[int, int]] = {}
    codes: list[tuple[int, int]] = []
    # Each row's id bytes (the node id's length, the node id, the region
    # id) are decoded once per distinct value.
    for entry, id_start, id_stop in zip(
        lu_at.tolist(), (start[lu_at] + width - 4).tolist(), stop[lu_at].tolist()
    ):
        if entry >= decoded:
            break
        key = data[id_start:id_stop]
        pair = pairs.get(key)
        if pair is None:
            try:
                pair = pairs[key] = _intern_ids(key, node_table, region_table)
            except UnicodeDecodeError:
                decoded = entry
                break
        codes.append(pair)
    block = block[: len(codes)]
    is_tick = is_tick[:decoded]
    tick_start = start[:decoded][is_tick] + 1
    ticks = np.frombuffer(
        b"".join([data[s : s + 8] for s in tick_start.tolist()]), "<f8"
    )
    ids = np.array(codes, dtype=np.int64).reshape(len(codes), 2)
    lus = TraceBatch(
        **{name: block[name].copy() for name in _LU_COLUMNS},
        node=ids[:, 0].copy(),
        region=ids[:, 1].copy(),
        node_ids=tuple(node_table),
        region_ids=tuple(region_table),
    )
    if decoded < count:
        end = spans[decoded][0] - _FRAME_HEADER.size
    return _Entries(is_tick=is_tick, lus=lus, ticks=ticks.tolist()), end


def _intern_ids(
    key: bytes, node_table: dict[str, int], region_table: dict[str, int]
) -> tuple[int, int]:
    """The node and region codes of an ``lu`` entry's id bytes *key*."""
    split = 4 + int.from_bytes(key[:4], "little")
    node = key[4:split].decode("utf-8", "surrogatepass")
    region = key[split:].decode("utf-8", "surrogatepass")
    return (
        node_table.setdefault(node, len(node_table)),
        region_table.setdefault(region, len(region_table)),
    )


def scan_frames(data: bytes) -> tuple[list[Any], int]:
    """Decode the longest valid entry-frame prefix of *data*.

    Returns ``(entries, valid_length)`` where *entries* are the
    diagnostic lists of every intact frame and *valid_length* is the byte
    offset the scan stopped at — anything past it is a torn or corrupt
    tail.  A frame is intact only when its length fits, its CRC matches
    and its payload decodes as a WAL entry.
    """
    entries, valid = _decode_entries(data, *_frame_spans(data))
    return entries.lists(), valid


@dataclass(frozen=True)
class WalContents:
    """A WAL file's decoded contents (longest valid prefix)."""

    shard: int
    base_lsn: int
    entries: list[Any]
    torn_bytes: int

    @property
    def next_lsn(self) -> int:
        """The LSN the next appended entry would get."""
        return self.base_lsn + len(self.entries) + 1


@dataclass(frozen=True)
class _WalFrames:
    """A WAL file's bytes, its validated header and its intact entry frames."""

    data: bytes
    shard: int
    base_lsn: int
    #: Payload spans of the CRC-checked entry frames, header excluded.
    entry_spans: list[tuple[int, int]]
    #: Offset the frame walk stopped at.
    end: int

    def decode(self, skip: int = 0) -> tuple[_Entries, int]:
        """Decode the entries past the first *skip*; returns them and the
        torn-tail byte count.

        The writer frames only well-formed entries, so a frame whose CRC
        matches decodes: the skipped frames are trusted on their CRC alone.
        """
        entries, valid = _decode_entries(
            self.data, self.entry_spans[skip:], self.end
        )
        return entries, len(self.data) - valid


def _read_frames(path: str | Path) -> _WalFrames:
    """Read a WAL file and walk its frames, decoding only the header.

    Raises :class:`WalError` when the file has no intact, well-formed
    header frame — that is not a torn write, it is not a WAL — or when
    it is not a version-2 WAL.
    """
    data = Path(path).read_bytes()
    spans, end = _frame_spans(data)
    header = None
    if spans:
        start, stop = spans[0]
        try:
            header = json.loads(data[start:stop].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            pass
    if header is None:
        raise WalError(f"{path}: no intact WAL header frame")
    if not isinstance(header, dict) or header.get("format") != WAL_FORMAT:
        raise WalError(f"{path}: not a {WAL_FORMAT} file")
    if header.get("version") != WAL_VERSION:
        raise WalError(
            f"{path}: unsupported WAL version {header.get('version')!r}"
        )
    return _WalFrames(
        data=data,
        shard=int(header.get("shard", 0)),
        base_lsn=int(header.get("base_lsn", 0)),
        entry_spans=spans[1:],
        end=end,
    )


def read_wal(path: str | Path) -> WalContents:
    """Read a WAL file from disk, tolerating a torn tail.

    Raises :class:`WalError` when the file has no intact, well-formed
    header frame — that is not a torn write, it is not a WAL.
    """
    wal = _read_frames(path)
    entries, torn_bytes = wal.decode()
    return WalContents(
        shard=wal.shard,
        base_lsn=wal.base_lsn,
        entries=entries.lists(),
        torn_bytes=torn_bytes,
    )


class WriteAheadLog:
    """Append-only, length+checksum framed per-shard log.

    Appends are buffered in memory and written on :meth:`flush` — the
    service calls it once per flush window, so one window's records cost
    one ``write`` (and, with ``fsync=True``, one ``fsync``).  The crash
    model matches: anything appended but not yet flushed dies with the
    process, which is exactly the "queued-but-unflushed window" the
    recovery accounting charges to the crash.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        shard: int = 0,
        base_lsn: int = 0,
        fsync: bool = False,
    ) -> None:
        self.path = Path(path)
        self.shard = shard
        self.base_lsn = base_lsn
        self.fsync = fsync
        self.appended = 0
        self.flushes = 0
        self.fsyncs = 0
        self._buffer: list[bytes] = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("wb")
        header = frame(self._header_payload())
        self._fh.write(header)
        self._fh.flush()
        #: File offset where the header and each flushed entry frame end.
        self._ends = [len(header)]
        if self.fsync:
            os.fsync(self._fh.fileno())
            self.fsyncs += 1

    def _header_payload(self) -> bytes:
        header = {
            "base_lsn": self.base_lsn,
            "format": WAL_FORMAT,
            "shard": self.shard,
            "version": WAL_VERSION,
        }
        return json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    @property
    def next_lsn(self) -> int:
        """LSN the next appended entry will get (buffered ones included).

        Entry LSNs start at ``base_lsn + 1`` — the base names the last
        LSN already compacted *into* a snapshot, so "entries strictly
        past LSN k" is always ``entries[k - base_lsn:]``.
        """
        return self.base_lsn + len(self._ends) + len(self._buffer)

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended entry (``base_lsn`` if none)."""
        return self.next_lsn - 1

    def append_update(self, batch: TraceBatch, rows: NDArray[Any]) -> int:
        """Append *batch*'s *rows* (applied LUs), in order; returns the
        last one's LSN.

        Each entry is the row's ``L`` payload, packed from the batch's
        columns.  A batch is framed once, with the batch, however many
        shards and replays log its rows.
        """
        frames = batch.memo(_lu_frames)
        self._buffer += map(frames.__getitem__, rows.tolist())
        self.appended += len(rows)
        return self.last_lsn

    def append_tick(self, now: float) -> int:
        """Append one estimation-sweep boundary; returns its LSN."""
        self._buffer.append(frame(_TICK.pack(_TICK_TAG, now)))
        self.appended += 1
        return self.last_lsn

    def flush(self) -> int:
        """Write buffered frames; returns how many entries became durable."""
        if not self._buffer:
            return 0
        flushed = len(self._buffer)
        self._fh.write(b"".join(self._buffer))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
            self.fsyncs += 1
        self._ends += islice(
            accumulate(map(len, self._buffer), initial=self._ends[-1]), 1, None
        )
        self._buffer.clear()
        self.flushes += 1
        return flushed

    def drop_buffer(self) -> int:
        """Discard appended-but-unflushed entries (the crash's lost window)."""
        dropped = len(self._buffer)
        self._buffer.clear()
        self.appended -= dropped
        return dropped

    def compact(self, upto_lsn: int) -> int:
        """Drop durable entries with LSN <= *upto_lsn*; returns how many.

        Rewrites the file as header(base_lsn=*upto_lsn*) + the surviving
        frames' bytes, read from the offsets this writer recorded, via a
        temp file and an atomic ``os.replace``, so a crash mid-compaction
        leaves either the old or the new file intact; with ``fsync`` the
        directory is fsynced after the rename.
        """
        self.flush()
        ends = self._ends
        keep_from = min(upto_lsn - self.base_lsn, len(ends) - 1)
        if keep_from <= 0:
            return 0
        survivors = b""
        if keep_from < len(ends) - 1:
            with self.path.open("rb") as source:
                source.seek(ends[keep_from])
                survivors = source.read(ends[-1] - ends[keep_from])
        self._fh.close()
        self.base_lsn += keep_from
        header = frame(self._header_payload())
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with tmp.open("wb") as out:
            out.write(header)
            out.write(survivors)
            out.flush()
            if self.fsync:
                os.fsync(out.fileno())
                self.fsyncs += 1
        os.replace(tmp, self.path)
        if self.fsync:
            _fsync_directory(self.path.parent)
        shift = len(header) - ends[keep_from]
        self._ends = [end + shift for end in ends[keep_from:]]
        self._fh = self.path.open("ab")
        return keep_from

    def close(self) -> None:
        """Flush and close the underlying file."""
        self.flush()
        self._fh.close()


# -- snapshots ----------------------------------------------------------------
def write_snapshot(
    path: str | Path,
    *,
    shard: int,
    lsn: int,
    image: ShardImage,
    fsync: bool = False,
) -> Path:
    """Atomically write one shard snapshot: a header frame, then the
    columns of *image* as one raw-bytes frame.

    *lsn* names the last WAL entry the snapshot includes — recovery
    replays strictly-later entries only.  With *fsync*, the temp file is
    fsynced before it replaces the old snapshot and the directory after,
    so a WAL compacted afterwards never outlives its snapshot.
    """
    columns = [
        (name, column.astype(column.dtype.newbyteorder("<"), copy=False))
        for name, column in image.columns.items()
    ]
    header = {
        "alpha": image.alpha,
        "columns": [[name, column.dtype.str, len(column)] for name, column in columns],
        "counters": image.counters,
        "format": SNAPSHOT_FORMAT,
        "gate_nodes": image.gate_ids,
        "kind": image.kind,
        "lsn": lsn,
        "nodes": image.node_ids,
        "shard": shard,
        "version": SNAPSHOT_VERSION,
    }
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_suffix(out.suffix + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(frame(text.encode("utf-8")))
        handle.write(frame(b"".join(column.tobytes() for _, column in columns)))
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, out)
    if fsync:
        _fsync_directory(out.parent)
    return out


def load_snapshot(path: str | Path) -> tuple[int, ShardImage]:
    """Load and validate one shard snapshot; returns its LSN and image.

    Raises :class:`WalError` for a truncated, corrupt or version-1 file.
    """
    source = Path(path)
    data = source.read_bytes()
    spans, end = _frame_spans(data)
    if len(spans) != 2 or end != len(data):
        try:  # a version-1 snapshot was one JSON document
            document = json.loads(data)
        except ValueError:
            document = None
        if isinstance(document, dict) and document.get("format") == SNAPSHOT_FORMAT:
            raise WalError(
                f"{source}: unsupported snapshot version {document.get('version')!r}"
            )
        raise WalError(f"{source}: not an intact {SNAPSHOT_FORMAT} file")
    (start, stop), (offset, body_end) = spans
    header = json.loads(data[start:stop])
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise WalError(f"{source}: not a {SNAPSHOT_FORMAT} file")
    if header.get("version") != SNAPSHOT_VERSION:
        raise WalError(
            f"{source}: unsupported snapshot version {header.get('version')!r}"
        )
    columns: dict[str, NDArray[Any]] = {}
    for name, dtype, length in header["columns"]:
        columns[name] = np.frombuffer(data, np.dtype(dtype), length, offset)
        offset += columns[name].nbytes
    if offset != body_end:
        raise WalError(f"{source}: snapshot columns do not fill its body")
    image = ShardImage(
        node_ids=header["nodes"],
        columns=columns,
        counters=header["counters"],
        kind=header["kind"],
        alpha=header["alpha"],
        gate_ids=header["gate_nodes"],
    )
    return int(header["lsn"]), image


@dataclass(frozen=True)
class RecoveredShard:
    """Everything recovery needs to rebuild one shard from disk."""

    shard: int
    #: The snapshot's shard image, or None (cold start).
    image: ShardImage | None
    #: WAL tail past the snapshot LSN, in append order: runs of ``lu``
    #: rows split at ``tick`` times.
    tail: list[TraceBatch | float]
    snapshot_lsn: int
    torn_bytes: int
    #: How many WAL entries the tail holds (``lu`` rows and ticks).
    replayed: int


@dataclass(frozen=True)
class DurabilityConfig:
    """Durability tunables.

    ``snapshot_every`` snapshots a shard (and compacts its WAL) once
    that many LU entries accumulate past the last snapshot; ``0``
    disables periodic snapshots, leaving recovery to full-log replay.
    ``fsync`` batches an ``os.fsync`` per flush window, and fsyncs each
    snapshot (file, then directory) before its WAL is compacted — off by
    default
    because the deterministic replay harness cares about write *order*,
    not storage-power-loss semantics.
    """

    snapshot_every: int = 0
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )


@dataclass
class DurabilityStats:
    """Counters accumulated by a durability manager."""

    wal_appended: int = 0
    wal_flushes: int = 0
    snapshots_written: int = 0
    compacted_entries: int = 0
    recoveries: int = 0
    recovered_entries: int = 0
    dropped_unflushed: int = 0
    lsn_per_shard: list[int] = field(default_factory=list)


class DurabilityManager:
    """Owns the per-shard WALs and snapshots under one directory.

    Layout: ``shard-000.wal`` / ``shard-000.snap`` (index
    zero-padded to three digits).  Bind to a shard count once (the
    :class:`~repro.serving.service.IngestService` does this at
    construction), then the service appends each applied batch on
    :meth:`wal` and settles it through :meth:`note_appended`, logs sweeps
    with :meth:`log_tick`, calls :meth:`flush_shard` per flush, and
    :meth:`maybe_snapshot` at window boundaries.
    """

    def __init__(
        self,
        directory: str | Path,
        config: DurabilityConfig | None = None,
        *,
        telemetry: Any = None,
    ) -> None:
        self.directory = Path(directory)
        self.config = config or DurabilityConfig()
        self.stats = DurabilityStats()
        self._wals: list[WriteAheadLog] = []
        self._lus_since_snapshot: list[int] = []
        self._snapshot_lsn: list[int] = []
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._instrumented = tm.enabled
        self._t_appended = tm.counter("serving.wal.appended")
        self._t_flushes = tm.counter("serving.wal.flushes")
        self._t_snapshots = tm.counter("serving.snapshot.written")
        self._t_recovered = tm.counter("serving.recovery.replayed")

    # -- layout ---------------------------------------------------------------
    def wal_path(self, index: int) -> Path:
        """The shard's WAL file path."""
        return self.directory / f"shard-{index:03d}.wal"

    def snapshot_path(self, index: int) -> Path:
        """The shard's snapshot file path."""
        return self.directory / f"shard-{index:03d}.snap"

    @property
    def shard_count(self) -> int:
        """How many shards are bound (0 before :meth:`bind`)."""
        return len(self._wals)

    def bind(self, shard_count: int) -> None:
        """Create fresh WALs for *shard_count* shards."""
        if self._wals:
            raise RuntimeError("DurabilityManager is already bound")
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.directory.mkdir(parents=True, exist_ok=True)
        self._wals = [
            WriteAheadLog(
                self.wal_path(index),
                shard=index,
                fsync=self.config.fsync,
            )
            for index in range(shard_count)
        ]
        self._lus_since_snapshot = [0] * shard_count
        self._snapshot_lsn = [0] * shard_count
        self.stats.lsn_per_shard = [0] * shard_count

    def wal(self, index: int) -> WriteAheadLog:
        """The shard's live WAL."""
        return self._wals[index]

    # -- the write path -------------------------------------------------------
    def note_appended(self, index: int, count: int) -> None:
        """Account *count* LU appends made directly on :meth:`wal` (the
        service appends each applied batch there, then settles it here)."""
        self._lus_since_snapshot[index] += count
        self.stats.wal_appended += count
        if self._instrumented:
            self._t_appended.inc(count)

    def log_tick(self, index: int, now: float) -> int:
        """Append one estimation-sweep boundary to the shard's WAL."""
        lsn = self._wals[index].append_tick(now)
        self.stats.wal_appended += 1
        if self._instrumented:
            self._t_appended.inc()
        return lsn

    def flush_shard(self, index: int) -> int:
        """Make the shard's buffered entries durable."""
        wal = self._wals[index]
        flushed = wal.flush()
        if flushed:
            self.stats.wal_flushes += 1
            self.stats.lsn_per_shard[index] = wal.last_lsn
            if self._instrumented:
                self._t_flushes.inc()
        return flushed

    def maybe_snapshot(
        self, index: int, image_fn: Callable[[], ShardImage]
    ) -> bool:
        """Snapshot + compact the shard if its cadence is due.

        *image_fn* is called only when a snapshot is actually taken; it
        returns the shard's :class:`~repro.serving.store.ShardImage`.
        """
        every = self.config.snapshot_every
        if every <= 0 or self._lus_since_snapshot[index] < every:
            return False
        self.snapshot_now(index, image_fn())
        return True

    def snapshot_now(self, index: int, image: ShardImage) -> int:
        """Write the shard's snapshot at its current LSN, then compact."""
        wal = self._wals[index]
        wal.flush()
        lsn = wal.last_lsn
        write_snapshot(
            self.snapshot_path(index),
            shard=index,
            lsn=lsn,
            image=image,
            fsync=self.config.fsync,
        )
        self._snapshot_lsn[index] = lsn
        self._lus_since_snapshot[index] = 0
        self.stats.snapshots_written += 1
        if self._instrumented:
            self._t_snapshots.inc()
        self.stats.compacted_entries += wal.compact(lsn)
        return lsn

    # -- the crash / recovery path --------------------------------------------
    def on_crash(self, index: int) -> int:
        """Drop the shard's unflushed WAL window; returns entries lost."""
        dropped = self._wals[index].drop_buffer()
        self.stats.dropped_unflushed += dropped
        return dropped

    def recover_shard(self, index: int) -> RecoveredShard:
        """Read the shard's snapshot + WAL tail back from disk.

        Reads the *files*, not in-memory state — the recovery path is
        the same whether the shard died in-process (chaos lane) or the
        whole process restarted.  WAL frames the snapshot covers (left
        behind by a crash between snapshot and compaction) are
        CRC-checked but not decoded; the tail's ``lu`` frames are decoded
        into columns.
        """
        snapshot_lsn = 0
        image: ShardImage | None = None
        snap_path = self.snapshot_path(index)
        if snap_path.exists():
            snapshot_lsn, image = load_snapshot(snap_path)
        wal = _read_frames(self.wal_path(index))
        entries, torn_bytes = wal.decode(max(snapshot_lsn - wal.base_lsn, 0))
        recovered = RecoveredShard(
            shard=index,
            image=image,
            tail=entries.runs(),
            snapshot_lsn=snapshot_lsn,
            torn_bytes=torn_bytes,
            replayed=len(entries),
        )
        self.stats.recoveries += 1
        self.stats.recovered_entries += recovered.replayed
        if self._instrumented:
            self._t_recovered.inc(recovered.replayed)
        return recovered

    def close(self) -> None:
        """Flush and close every WAL."""
        for wal in self._wals:
            wal.close()
