"""Digest every serving output of one checkout, for a byte-identity check.

Run from the root of a checkout with ``PYTHONPATH=src``::

    python3 benchmarks/runs/binary-trace/outputs.py [--seed 1]

Prints the lines of ``benchmarks/runs/binary-wal/outputs.py`` (reports,
shard ``state_dict``, convergence exports, event logs, and every WAL and
snapshot rendered in its version-1 form), and before them three lines
per recorded trace, whichever trace version the checkout writes:

* ``batch``: a digest of the batch ``read_trace`` decodes, its nine
  columns' bytes and dtypes and its two id tables;
* ``v1-rendering batch``: the same digest for the trace rendered as its
  compact version-1 (JSON lines) file and read back;
* ``re-recorded identical``: whether recording the trace again writes
  the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

_spec = importlib.util.spec_from_file_location(
    "binary_wal_outputs", HERE.parent / "binary-wal" / "outputs.py"
)
assert _spec is not None and _spec.loader is not None
wal_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wal_outputs)
base = wal_outputs.base

from repro.serving import read_trace  # noqa: E402

COLUMNS = ("time", "seq", "node", "x", "y", "vx", "vy", "region", "dth")
#: The traces ``base.main`` reads, in its order, and the workloads that
#: record them.
WORKLOADS = {
    "campus": base.workloads.ServingCampusSweep,
    "city": base.workloads.ServingCityWal,
}
NAMES = iter(WORKLOADS)
SEED = 1


def batch_digest(batch) -> str:
    """A digest of *batch*'s columns (bytes and dtype) and id tables."""
    hashed = hashlib.sha256()
    for name in COLUMNS:
        column = getattr(batch, name)
        hashed.update(column.dtype.str.encode() + column.tobytes())
    hashed.update(json.dumps([batch.node_ids, batch.region_ids]).encode())
    return hashed.hexdigest()[:16]


def render_v1(meta, batch, path: Path) -> None:
    """Write *batch* as its compact version-1 (JSON lines) file."""
    header = {
        "format": "repro-lu-trace",
        "meta": meta,
        "records": len(batch),
        "version": 1,
    }
    with path.open("w", encoding="utf-8") as out:
        out.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for record in batch:
            out.write(json.dumps(record.to_row(), separators=(",", ":")) + "\n")


def read_and_digest(path: Path):
    """``read_trace(path)``, printing the three trace lines first."""
    name = next(NAMES)
    meta, batch = read_trace(path)
    print(f"trace {name} batch {batch_digest(batch)}")
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "v1.jsonl"
        render_v1(meta, batch, copy)
        rendered = batch_digest(read_trace(copy)[1])
        print(f"trace {name} v1-rendering batch {rendered}")
        again = WORKLOADS[name](base.workloads.FULL, SEED, Path(scratch)).setup()
        same = (again / "trace.jsonl").read_bytes() == path.read_bytes()
        print(f"trace {name} re-recorded identical {same}")
    return meta, batch


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    SEED = parser.parse_args().seed
    base.files = wal_outputs.files
    base.read_trace = read_and_digest  # base.main reads both traces through it
    base.main()
