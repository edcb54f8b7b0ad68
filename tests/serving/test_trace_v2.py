"""The packed trace format (``repro-lu-trace`` version 2).

A version-2 file must load to exactly the batch (columns, dtypes and id
tables) its records make in memory, and its reader keeps one contract:
a torn tail is dropped only with ``allow_partial``, damage before the
last row always raises, and any byte string after a valid header either
loads a valid batch or raises :class:`TraceError`.  No other version is
read.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import TraceBatch, TraceError, TraceRecord, read_trace, write_trace
from repro.serving.trace import PACKED_TRACE_VERSION, TRACE_FORMAT

from tests.serving.helpers import packed_row

COLUMNS = ("time", "seq", "node", "x", "y", "vx", "vy", "region", "dth")


def assert_same_batch(got, expected):
    """Equal columns (bit for bit, same dtypes) and equal id tables."""
    for name in COLUMNS:
        mine, theirs = getattr(got, name), getattr(expected, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name
    assert got.node_ids == expected.node_ids
    assert got.region_ids == expected.region_ids


def assert_valid(batch):
    """*batch* passes every check the reader makes."""
    numbers = np.array([batch.time, batch.x, batch.y, batch.vx, batch.vy, batch.dth])
    assert np.isfinite(numbers).all() and (batch.dth >= 0.0).all()
    for codes, ids in ((batch.node, batch.node_ids), (batch.region, batch.region_ids)):
        assert all(type(i) is str for i in ids) and len(set(ids)) == len(ids)
        _, first = np.unique(codes, return_index=True)
        assert np.array_equal(np.unique(codes), np.arange(len(ids)))
        assert (np.diff(first) > 0).all()


def write_packed(path, rows, *, node_ids=("n1",), region_ids=("R1",), records=None):
    """A hand-built version-2 file: *node_ids*/*region_ids* as the header
    tables, *rows* (packed bytes) as the body."""
    header = {
        "format": TRACE_FORMAT,
        "meta": {},
        "node_ids": list(node_ids),
        "records": len(rows) if records is None else records,
        "region_ids": list(region_ids),
        "version": PACKED_TRACE_VERSION,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(head + b"\n" + b"".join(rows))
    return path


#: A fixed record list and meta, with the awkward values of each field.
PINNED = [
    TraceRecord(0.1 + 0.2, 0, "n1", 10.0, 20.0, 1.5, -0.5, "road-1", 4.0),
    TraceRecord(1.0, 1, "nø", -0.0, 1e308, 5e-324, -2.25, "bldg-2", 0.0),
    TraceRecord(
        2.5, 2**63 - 1, "n\ud800", 123456789.125, -1e-300, 0.0, 7.0, "road-1", 12.5
    ),
    TraceRecord(3.0, -(2**63), "n1", 1.0, 2.0, 3.0, 4.0, 'r,"3', 1e-5),
]
PINNED_META = {"seed": 1, "lane": "adf-1", "nested": {"b": [1, 2.5], "a": "x"}}


def test_header_is_one_ascii_line(tmp_path):
    path = write_trace(PINNED, tmp_path / "t.trace", meta=PINNED_META)
    data = path.read_bytes()
    head, _, body = data.partition(b"\n")
    head.decode("ascii")
    header = json.loads(head)
    assert head == json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    assert header["node_ids"] == ["n1", "nø", "n\ud800"]
    assert header["region_ids"] == ["road-1", "bldg-2", 'r,"3']
    assert header["records"] == 4 and header["version"] == 2
    assert len(body) == 4 * 64


_ids = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["n1", "nø", "東京", "n\ud800", "\udfff", ""]),
)
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, 2.2250738585072014e-308]),
)
_records = st.builds(
    TraceRecord,
    time=_floats,
    seq=st.one_of(
        st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1])
    ),
    node_id=_ids,
    x=_floats,
    y=_floats,
    vx=_floats,
    vy=_floats,
    region_id=_ids,
    dth=st.one_of(
        st.floats(min_value=0.0, allow_infinity=False), st.sampled_from([-0.0, 5e-324])
    ),
)


@settings(max_examples=150, deadline=None)
@given(records=st.lists(_records, max_size=12))
def test_round_trip_matches_the_in_memory_batch(records, tmp_path_factory):
    directory = tmp_path_factory.mktemp("round-trip")
    _, packed = read_trace(write_trace(records, directory / "t.trace"))
    assert_same_batch(packed, TraceBatch.from_records(records))
    assert packed == records


def test_list_batch_and_slice_write_the_same_bytes(tmp_path):
    wide = [
        TraceRecord(0.0, 0, "x-only", 0.0, 0.0, 0.0, 0.0, "R-only", 0.0),
        *PINNED,
        TraceRecord(9.0, 9, "late", 0.0, 0.0, 0.0, 0.0, "R-late", 0.0),
    ]
    batch = TraceBatch.from_records(wide)
    sliced = TraceBatch(
        **{name: getattr(batch, name)[1:-1] for name in COLUMNS},
        node_ids=batch.node_ids,
        region_ids=batch.region_ids,
    )
    written = [
        write_trace(source, tmp_path / f"{name}.trace", meta={"k": 1}).read_bytes()
        for name, source in (
            ("list", PINNED),
            ("iter", iter(PINNED)),
            ("batch", TraceBatch.from_records(PINNED)),
            ("slice", sliced),
        )
    ]
    assert written[1:] == [written[0]] * 3


def test_truncation_at_every_byte(tmp_path):
    records = [*PINNED, PINNED[0]]
    data = write_trace(records, tmp_path / "whole.trace").read_bytes()
    body_start = data.index(b"\n") + 1
    path = tmp_path / "cut.trace"
    for offset in range(len(data)):
        path.write_bytes(data[:offset])
        with pytest.raises(TraceError):
            read_trace(path)
        if offset < body_start:
            with pytest.raises(TraceError):
                read_trace(path, allow_partial=True)
            continue
        _, got = read_trace(path, allow_partial=True)
        whole = (offset - body_start) // 64
        assert_same_batch(got, TraceBatch.from_records(records[:whole]))
    path.write_bytes(data)
    _, got = read_trace(path)
    assert_same_batch(got, TraceBatch.from_records(records))


@pytest.mark.parametrize(
    "bad",
    [
        dict(x=float("nan")),
        dict(time=float("inf")),
        dict(vy=float("-inf")),
        dict(dth=-0.5),
        dict(dth=float("nan")),
        dict(node=2),
        dict(region=1),
        dict(node=2**32 - 1),
    ],
    ids=["x-nan", "time-inf", "vy-neg-inf", "dth-negative", "dth-nan",
         "node-out-of-range", "region-out-of-range", "node-max"],
)
def test_bad_middle_row_raises(tmp_path, bad):
    rows = [packed_row(node=0), packed_row(node=1), packed_row(node=1)]
    rows[1] = packed_row(**{"node": 1, **bad})
    path = write_packed(tmp_path / "t.trace", rows, node_ids=("n1", "n2"))
    for allow_partial in (False, True):
        with pytest.raises(TraceError, match=r"record 1: unreadable row"):
            read_trace(path, allow_partial=allow_partial)


def test_bad_row_before_a_torn_tail_raises(tmp_path):
    """With a torn row after it, the last whole row is not the last row."""
    rows = [packed_row(), packed_row(x=float("nan")), packed_row()[:10]]
    path = write_packed(tmp_path / "t.trace", rows)
    for allow_partial in (False, True):
        with pytest.raises(TraceError, match=r"record 1: unreadable row"):
            read_trace(path, allow_partial=allow_partial)


def test_bad_last_row_drops_the_ids_only_it_used(tmp_path):
    rows = [packed_row(node=0), packed_row(node=0), packed_row(node=1, x=float("nan"))]
    path = write_packed(tmp_path / "t.trace", rows, node_ids=("n1", "n2"))
    with pytest.raises(TraceError, match="record 2: truncated final row"):
        read_trace(path)
    _, got = read_trace(path, allow_partial=True)
    assert len(got) == 2 and got.node_ids == ("n1",)


@pytest.mark.parametrize(
    "node_ids, codes",
    [
        (("n1", "n1"), (0, 1, 1)),
        ((1, "n2"), (0, 1, 1)),
        ((None,), (0, 0, 0)),
        (("n1", "n2"), (0, 0, 0)),
        (("n2", "n1"), (1, 0, 0)),
        (("n1", "n2", "n3"), (0, 2, 1)),
    ],
    ids=["duplicate", "non-string", "null", "unused", "out-of-order", "skipped"],
)
def test_bad_id_tables_refused(tmp_path, node_ids, codes):
    rows = [packed_row(node=code) for code in codes]
    path = write_packed(tmp_path / "t.trace", rows, node_ids=node_ids)
    for allow_partial in (False, True):
        with pytest.raises(TraceError):
            read_trace(path, allow_partial=allow_partial)


@pytest.mark.parametrize(
    "change",
    [
        dict(node_ids="n1"),
        dict(region_ids=None),
        dict(records="3"),
        dict(records=True),
    ],
)
def test_bad_header_fields_refused(tmp_path, change):
    path = write_packed(tmp_path / "t.trace", [packed_row()])
    head, _, body = path.read_bytes().partition(b"\n")
    header = {**json.loads(head), **change}
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(TraceError):
        read_trace(path, allow_partial=True)


def test_torn_header_is_unreadable(tmp_path):
    data = write_trace(PINNED, tmp_path / "t.trace").read_bytes()
    path = tmp_path / "torn.trace"
    for cut in (10, data.index(b"\n")):
        path.write_bytes(data[:cut])
        with pytest.raises(TraceError, match="unreadable trace header"):
            read_trace(path, allow_partial=True)


def test_version_1_file_is_refused(tmp_path):
    """The retired JSON-lines version: a valid header and one valid row
    are still refused, whatever ``allow_partial`` says."""
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"format":"repro-lu-trace","meta":{},"records":1,"version":1}\n'
        '[0.0,0,"n1",1.0,2.0,0.0,0.0,"R1",1.0]\n'
    )
    for allow_partial in (False, True):
        with pytest.raises(TraceError, match="unsupported trace version 1"):
            read_trace(path, allow_partial=allow_partial)


_FLIP_RECORDS = [
    TraceRecord(float(t), t, f"n{t % 3}", 1.5 * t, -2.0, 0.25, 0.0, f"R{t % 2}", 1.0)
    for t in range(6)
]


@settings(max_examples=300, deadline=None)
@given(
    flips=st.lists(
        st.tuples(st.integers(0, 6 * 64 - 1), st.integers(0, 255)),
        min_size=1,
        max_size=4,
    ),
    cut=st.one_of(st.none(), st.integers(0, 6 * 64)),
    allow_partial=st.booleans(),
)
def test_byte_flips_load_a_valid_batch_or_raise_trace_error(
    flips, cut, allow_partial, tmp_path_factory
):
    directory = tmp_path_factory.mktemp("flips")
    data = bytearray(write_trace(_FLIP_RECORDS, directory / "t.trace").read_bytes())
    body_start = data.index(b"\n") + 1
    for offset, value in flips:
        data[body_start + offset] = value
    if cut is not None:
        del data[body_start + cut :]
    path = directory / "flipped.trace"
    path.write_bytes(bytes(data))
    try:
        _, got = read_trace(path, allow_partial=allow_partial)
    except TraceError:
        return
    assert_valid(got)
    assert len(got) <= len(_FLIP_RECORDS)
