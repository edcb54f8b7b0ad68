"""Golden digests of a serving smoke replay: report, WALs, snapshots.

The replay records the ``serving --smoke`` trace (20 s, a one-per-kind
population, seed 42), replays it at 2000 msg/s with a sweep per trace
second, a WAL with a snapshot every 32 LUs, and shard 0 crashed and
restarted mid-replay — once with telemetry off and once on.  The
sha256 of the report JSON and of every ``shard-*.wal`` and
``shard-*.snap`` is pinned: any change to what the serving path
computes, logs or snapshots changes a digest.

Each WAL is also rendered back as the version-1 file it stands for
(``shard-*.wal.v1``: a JSON header frame, then each entry
:func:`~repro.serving.durability.read_wal` returns framed as compact
JSON).  Those digests were taken from the version-1 writer, which
logged JSON entries: the binary WALs hold exactly what it logged.  The
eight ``shard-*.wal`` digests were re-taken when the WAL became version
3 (one group frame per applied batch instead of one frame per LU); the
renderings did not move.

Each snapshot is also loaded into a fresh shard and rendered as the
version-1 snapshot document (``shard-*.snap.json``: the shard's
``GridBroker.state_dict`` and its gates as sorted-key JSON).  The
column store first reproduced, byte for byte, the digests taken from
the object store (one ``GridBroker`` per shard) and from the JSON
snapshots that the column dumps replaced.  They were re-taken once, from
the column store, when the document dropped its constant
``"history_length"`` key (neither store keeps history);
``test_store_parity.py`` still holds that document equal to
``GridBroker.state_dict``.

The trace is recorded on the columnar engine, whose stream is the object
harness's byte for byte.  The two ``report.json`` digests were re-taken
when the recorder moved there: the report's ``trace_meta`` gained
``cluster_mode`` and ``kernel``, and nothing else in it changed.
"""

import hashlib
import json
from pathlib import Path

from repro.experiments import ExperimentConfig
from repro.faults.schedule import FaultSchedule, ShardCrash
from repro.mobility.population import PopulationSpec
from repro.serving import (
    DurabilityConfig,
    DurabilityManager,
    ReplayConfig,
    ShardedLocationStore,
    record_columnar_trace,
    replay_trace_full,
)
from repro.serving.durability import (
    SNAPSHOT_FORMAT,
    WAL_FORMAT,
    frame,
    load_snapshot,
    read_wal,
)
from repro.telemetry import Telemetry, TelemetryConfig

GOLDEN = {
    "plain/report.json": (
        "2aee60406c4dfbdd671ebd7ccb68791d1023fcfebbb809af332d6774d4297053"
    ),
    "plain/shard-000.snap": (
        "804369d70c3a6f67a0eb851285e6546db0ee9b6ca4e17fe0e5b4c5c10d662422"
    ),
    "plain/shard-000.snap.json": (
        "711056b543c171914df180b275475013993c06e61243ee1ac25d3a44a381d86b"
    ),
    "plain/shard-000.wal": (
        "a237c9fca1aa818f54d12cd212e8bb1146f781293654a3c96daf607682c6fd96"
    ),
    "plain/shard-000.wal.v1": (
        "a7237c19532b4efcc0db5234cf4bd1ef501aa04eadc77d194b44fe8662d6b1bb"
    ),
    "plain/shard-001.snap": (
        "9bf46f2d63c49d25598d331aad9f538b1eb8e8bfe4eb2f618db13bfd1d2c1513"
    ),
    "plain/shard-001.snap.json": (
        "965c585733bf42001a547399555b361346d1574c033aff6eee4d15434fa972e6"
    ),
    "plain/shard-001.wal": (
        "cab50a12515a53cf29b492a60b7fc341f795219c91d9d9264b7a29d6b7af01e9"
    ),
    "plain/shard-001.wal.v1": (
        "430fff160ad6f1b1381f5b0ca7f1148b48797212c24ce04f8aee45627d575773"
    ),
    "plain/shard-002.snap": (
        "75a36c1bc6f8805fb1cb9937a036c3dc42c4dd88bde4ae571d5873d2bda895e6"
    ),
    "plain/shard-002.snap.json": (
        "7a83e735d9653197203be5b69f39113ac74ad241d0b4273bcb0bad19011f182b"
    ),
    "plain/shard-002.wal": (
        "b4d2e9b06d241f0e186e0bb3ab899059ae959f2c7f5fd2a8e3258692f8155c74"
    ),
    "plain/shard-002.wal.v1": (
        "4868f1e8b3b7859700c834cb2ca32a196cf1b306a5a917748592a85352f00941"
    ),
    "plain/shard-003.snap": (
        "76f27d6f6e77803a96c9551acaf0a2949ca30a4bb9ca2bcdd5dc015e3da6e377"
    ),
    "plain/shard-003.snap.json": (
        "1a452f92c3a06fffcd4097983803af110fa7d35d9639673c4afbd1a6754a3556"
    ),
    "plain/shard-003.wal": (
        "e392a25d031d734f83f852ad33d5cbb9418fc9207b1fa9fd79b0573e044e339e"
    ),
    "plain/shard-003.wal.v1": (
        "841a13d5eb69333d8d544448ddd9e4223b3ef38127ab4bd9f6028e6b7cf1b0da"
    ),
    "telemetry/report.json": (
        "973fcdc885ee83c83132a81ef02c07aeddb2514082395d7efca2d96248361fa2"
    ),
    "telemetry/shard-000.snap": (
        "804369d70c3a6f67a0eb851285e6546db0ee9b6ca4e17fe0e5b4c5c10d662422"
    ),
    "telemetry/shard-000.snap.json": (
        "711056b543c171914df180b275475013993c06e61243ee1ac25d3a44a381d86b"
    ),
    "telemetry/shard-000.wal": (
        "a237c9fca1aa818f54d12cd212e8bb1146f781293654a3c96daf607682c6fd96"
    ),
    "telemetry/shard-000.wal.v1": (
        "a7237c19532b4efcc0db5234cf4bd1ef501aa04eadc77d194b44fe8662d6b1bb"
    ),
    "telemetry/shard-001.snap": (
        "9bf46f2d63c49d25598d331aad9f538b1eb8e8bfe4eb2f618db13bfd1d2c1513"
    ),
    "telemetry/shard-001.snap.json": (
        "965c585733bf42001a547399555b361346d1574c033aff6eee4d15434fa972e6"
    ),
    "telemetry/shard-001.wal": (
        "cab50a12515a53cf29b492a60b7fc341f795219c91d9d9264b7a29d6b7af01e9"
    ),
    "telemetry/shard-001.wal.v1": (
        "430fff160ad6f1b1381f5b0ca7f1148b48797212c24ce04f8aee45627d575773"
    ),
    "telemetry/shard-002.snap": (
        "75a36c1bc6f8805fb1cb9937a036c3dc42c4dd88bde4ae571d5873d2bda895e6"
    ),
    "telemetry/shard-002.snap.json": (
        "7a83e735d9653197203be5b69f39113ac74ad241d0b4273bcb0bad19011f182b"
    ),
    "telemetry/shard-002.wal": (
        "b4d2e9b06d241f0e186e0bb3ab899059ae959f2c7f5fd2a8e3258692f8155c74"
    ),
    "telemetry/shard-002.wal.v1": (
        "4868f1e8b3b7859700c834cb2ca32a196cf1b306a5a917748592a85352f00941"
    ),
    "telemetry/shard-003.snap": (
        "76f27d6f6e77803a96c9551acaf0a2949ca30a4bb9ca2bcdd5dc015e3da6e377"
    ),
    "telemetry/shard-003.snap.json": (
        "1a452f92c3a06fffcd4097983803af110fa7d35d9639673c4afbd1a6754a3556"
    ),
    "telemetry/shard-003.wal": (
        "e392a25d031d734f83f852ad33d5cbb9418fc9207b1fa9fd79b0573e044e339e"
    ),
    "telemetry/shard-003.wal.v1": (
        "841a13d5eb69333d8d544448ddd9e4223b3ef38127ab4bd9f6028e6b7cf1b0da"
    ),
}


def version_1_document(path, index, replay):
    """The version-1 bytes of shard *index*'s snapshot at *path*: the
    image loaded into a fresh shard, rendered as a sorted-key document."""
    lsn, image = load_snapshot(path)
    store = ShardedLocationStore(
        replay.serving.shards,
        smoothing_alpha=replay.serving.smoothing_alpha,
        use_location_estimator=replay.serving.use_location_estimator,
    )
    store.crash_shard(index)
    store.restore_shard(index, image=image, tail=[])
    document = {
        "format": SNAPSHOT_FORMAT,
        "gates": store.export_state(),
        "lsn": lsn,
        "shard": index,
        "state": store.shard(index).state_dict(),
        "version": 1,
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def version_1_wal(path):
    """The version-1 bytes of the WAL at *path*: its JSON header frame as
    version 1, then each entry :func:`read_wal` returns framed as compact
    JSON, as the version-1 writer logged it."""
    contents = read_wal(path)
    assert contents.torn_bytes == 0
    header = {
        "base_lsn": contents.base_lsn,
        "format": WAL_FORMAT,
        "shard": contents.shard,
        "version": 1,
    }
    return b"".join(
        frame(json.dumps(document, sort_keys=True, separators=(",", ":")).encode())
        for document in (header, *contents.entries)
    )


def smoke_digests(directory):
    config = ExperimentConfig(
        duration=20.0,
        seed=42,
        population=PopulationSpec(
            road_humans_per_road=1,
            road_vehicles_per_road=1,
            building_stop=1,
            building_random=1,
            building_linear=1,
        ),
    )
    meta, records = record_columnar_trace(config)
    replay = ReplayConfig(rate=2000.0, sweep_interval=1.0)
    horizon = (len(records) - 1) / replay.rate
    faults = FaultSchedule(
        (ShardCrash(shard_index=0, start=0.45 * horizon, duration=0.3 * horizon),)
    )
    digests = {}
    for label, telemetry in (
        ("plain", None),
        ("telemetry", Telemetry(TelemetryConfig(enabled=True))),
    ):
        wal_dir = Path(directory) / label
        durability = DurabilityManager(
            wal_dir, DurabilityConfig(snapshot_every=32), telemetry=telemetry
        )
        report, _ = replay_trace_full(
            records,
            replay,
            trace_meta=meta,
            telemetry=telemetry,
            durability=durability,
            faults=faults,
        )
        durability.close()
        digests[f"{label}/report.json"] = report.to_json()
        for path in sorted(wal_dir.iterdir()):
            digests[f"{label}/{path.name}"] = path.read_bytes()
            if path.suffix == ".wal":
                digests[f"{label}/{path.name}.v1"] = version_1_wal(path)
        for index in range(replay.serving.shards):
            path = durability.snapshot_path(index)
            digests[f"{label}/{path.name}.json"] = version_1_document(
                path, index, replay
            )
    return {
        name: hashlib.sha256(
            data.encode("utf-8") if isinstance(data, str) else data
        ).hexdigest()
        for name, data in digests.items()
    }


def test_smoke_replay_outputs_match_the_golden_digests(tmp_path):
    assert smoke_digests(tmp_path) == GOLDEN
