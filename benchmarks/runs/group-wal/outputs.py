"""Print the serving golden-digest test's digests for one checkout.

Run from the root of a checkout::

    PYTHONPATH=src:. python3 benchmarks/runs/group-wal/outputs.py

Prints one ``name digest`` line for each output that
``tests/serving/test_golden_digests.py`` pins: the smoke replay's
report, its ``shard-*.wal`` files, each WAL rendered back as the
version-1 file of the entries ``read_wal`` returns (``*.wal.v1``), its
snapshots and their version-1 renderings (``*.snap.json``), with
telemetry off and on.  The digests are computed from the checkout's
own code, not read from the test's pinned table.
"""

from __future__ import annotations

import tempfile

from tests.serving.test_golden_digests import smoke_digests

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for name, digest in sorted(smoke_digests(scratch).items()):
            print(name, digest)
