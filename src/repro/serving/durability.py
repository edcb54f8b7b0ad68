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

WAL format (``repro-shard-wal`` version 1)
------------------------------------------

A flat sequence of length+checksum framed records::

    [u32 length (LE)] [u32 crc32(payload) (LE)] [payload bytes]

Payloads are UTF-8 JSON.  Frame 0 is the file header
``{"base_lsn": N, "format": "repro-shard-wal", "shard": i, "version": 1}``;
every further frame is one entry:

* ``["lu", time, seq, node_id, x, y, vx, vy, region_id, dth]`` — the
  ``repro-lu-trace`` row encoding of one *applied* LU (post-dedup: the
  WAL records what the shard actually absorbed, so replay needs no
  gate logic);
* ``["tick", now]`` — one estimation sweep boundary.

Entries carry implicit log sequence numbers: the first entry frame in a
file has LSN ``base_lsn + 1``.  Compaction rewrites the file with a new
``base_lsn`` (atomically, via a temp file and ``os.replace``), so LSNs
are absolute across the shard's lifetime and a snapshot taken at LSN
``k`` pairs with any WAL whose ``base_lsn <= k``.  The writer keeps the
end offset of every frame it flushed, so compaction copies the
surviving frames' bytes from there without reading the rest back.

Torn tails are expected, not fatal: :func:`read_wal` scans frames and
stops at the first incomplete or checksum-failing one, returning the
longest valid prefix plus how many trailing bytes it discarded —
exactly the contract a killed writer needs.  One walker,
:func:`_frame_spans`, owns those framing rules; it checks lengths and
CRCs only, so recovery (which skips the frames a snapshot covers)
decodes no JSON it does not return.

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
from repro.serving.trace import TraceBatch
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
WAL_VERSION = 1
SNAPSHOT_FORMAT = "repro-shard-snapshot"
SNAPSHOT_VERSION = 2

#: Frame header: little-endian u32 payload length + u32 CRC32(payload).
_FRAME_HEADER = struct.Struct("<II")

#: What an applied LU's entry puts before its row's fields.
_LU_PREFIX = b'["lu",'


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


def _decode_frames(
    data: bytes, spans: list[tuple[int, int]], end: int
) -> tuple[list[Any], int]:
    """JSON-decode the payloads at *spans* in order.

    Stops at the first payload that is not UTF-8 JSON and returns the
    decoded payloads with the offset of that frame's start — or *end*,
    the walk's stopping offset, when every payload decodes.
    """
    payloads: list[Any] = []
    for start, stop in spans:
        try:
            payloads.append(json.loads(data[start:stop].decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return payloads, start - _FRAME_HEADER.size
    return payloads, end


def scan_frames(data: bytes) -> tuple[list[Any], int]:
    """Decode the longest valid frame prefix of *data*.

    Returns ``(payloads, valid_length)`` where *payloads* are the decoded
    JSON documents of every intact frame and *valid_length* is the byte
    offset the scan stopped at — anything past it is a torn or corrupt
    tail.  A frame is intact only when its length fits, its CRC matches
    and its payload decodes as JSON.
    """
    spans, end = _frame_spans(data)
    return _decode_frames(data, spans, end)


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

    def decode(self, skip: int = 0) -> tuple[list[Any], int]:
        """Decode the entries past the first *skip*; returns them and the
        torn-tail byte count.

        The writer frames only JSON, so a frame whose CRC matches decodes:
        the skipped frames are trusted on their CRC alone.
        """
        entries, valid = _decode_frames(
            self.data, self.entry_spans[skip:], self.end
        )
        return entries, len(self.data) - valid


def _read_frames(path: str | Path) -> _WalFrames:
    """Read a WAL file and walk its frames, decoding only the header.

    Raises :class:`WalError` when the file has no intact, well-formed
    header frame — that is not a torn write, it is not a WAL.
    """
    data = Path(path).read_bytes()
    spans, end = _frame_spans(data)
    decoded, _ = _decode_frames(data, spans[:1], end)
    if not decoded:
        raise WalError(f"{path}: no intact WAL header frame")
    header = decoded[0]
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
        entries=entries,
        torn_bytes=torn_bytes,
    )


def _lu_frames(batch: TraceBatch) -> list[bytes]:
    """The ``lu`` entry frame of every row of *batch*."""
    return [frame(_LU_PREFIX + row[1:]) for row in batch.encoded()]


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

    def append(self, entry: list[Any]) -> int:
        """Buffer one entry; returns its LSN (durable only after flush)."""
        payload = json.dumps(
            entry, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        self._buffer.append(frame(payload))
        self.appended += 1
        return self.last_lsn

    def append_update(self, batch: TraceBatch, rows: NDArray[Any]) -> int:
        """Append *batch*'s *rows* (applied LUs), in order; returns the
        last one's LSN.

        Each entry is the row's canonical encoding
        (:meth:`~repro.serving.trace.TraceBatch.encoded`) with the
        ``"lu"`` tag in front.  A batch is framed once, with the batch,
        however many shards and replays log its rows.
        """
        frames = batch.memo(_lu_frames)
        self._buffer += map(frames.__getitem__, rows.tolist())
        self.appended += len(rows)
        return self.last_lsn

    def append_tick(self, now: float) -> int:
        """Append one estimation-sweep boundary."""
        return self.append(["tick", now])

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
    #: WAL tail entries past the snapshot LSN, in append order.
    entries: list[Any]
    snapshot_lsn: int
    torn_bytes: int

    @property
    def replayed(self) -> int:
        """How many WAL entries recovery will replay."""
        return len(self.entries)


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
        CRC-checked but not decoded.
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
            entries=entries,
            snapshot_lsn=snapshot_lsn,
            torn_bytes=torn_bytes,
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
