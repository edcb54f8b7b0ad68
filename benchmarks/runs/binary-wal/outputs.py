"""Digest every serving output of one checkout, for a byte-identity check.

Run from the root of a checkout with ``PYTHONPATH=src``::

    python3 benchmarks/runs/binary-wal/outputs.py [--seed 1]

The replays and digests of ``benchmarks/runs/column-snapshots/outputs.py``
(reports, shard ``state_dict``, convergence exports, event logs, and the
WAL replay's files before and after a crash and restart of shard 0),
with one more rendering: a version-2 WAL (``shard-*.wal``, binary
entries) is digested as the version-1 file it stands for — its JSON
header frame with ``"version": 1``, then one frame per entry
``read_wal`` returns, holding ``json.dumps(entry, separators=(",",
":"))``.  A version-1 WAL is digested as it is.  Two checkouts that
print the same lines log the same entries, whichever WAL format each
writes.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "column-snapshots"))

import outputs as base  # noqa: E402
from repro.serving import ShardedLocationStore  # noqa: E402
from repro.serving.durability import (  # noqa: E402
    _frame_spans,
    frame,
    load_snapshot,
    read_wal,
)


def wal_file(path: Path) -> tuple[str, str]:
    """The name and version-1 bytes' digest of the WAL at *path*."""
    data = path.read_bytes()
    (start, stop), *_ = _frame_spans(data)[0]
    header = json.loads(data[start:stop])
    if header["version"] == 1:
        return path.name, base.digest(data)
    contents = read_wal(path)
    assert contents.torn_bytes == 0
    documents = [{**header, "version": 1}, *contents.entries]
    text = b"".join(
        frame(json.dumps(document, sort_keys=True, separators=(",", ":")).encode())
        for document in documents
    )
    return path.name, base.digest(text)


def snapshot_file(path: Path) -> tuple[str, str]:
    """The version-1 name and bytes' digest of the snapshot at *path*."""
    index = int(path.name[len("shard-") :].split(".")[0])
    lsn, image = load_snapshot(path)
    store = ShardedLocationStore(
        base.BENCH.shards,
        smoothing_alpha=base.BENCH.smoothing_alpha,
        use_location_estimator=base.BENCH.use_location_estimator,
    )
    store.crash_shard(index)
    # The empty WAL tail: ``entries=`` before the binary WAL, ``tail=`` after.
    empty = "tail" if "tail" in inspect.signature(store.restore_shard).parameters else "entries"
    store.restore_shard(index, image=image, **{empty: []})
    document = {
        "format": "repro-shard-snapshot",
        "gates": store.export_state(),
        "lsn": lsn,
        "shard": index,
        "state": store.shard(index).state_dict(),
        "version": 1,
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    return f"{path.name}.json", base.digest(text)


def files(wal: Path) -> list[tuple[str, str]]:
    """(name, digest) of every WAL and snapshot file in *wal*."""
    return sorted(
        snapshot_file(path) if ".snap" in path.name else wal_file(path)
        for path in wal.iterdir()
    )


if __name__ == "__main__":
    base.files = files
    base.main()
