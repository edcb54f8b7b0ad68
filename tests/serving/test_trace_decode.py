"""Decoder parity: ``read_trace``'s bulk decode accepts exactly what the
per-line rule accepts.

The rule is one ``json.loads`` per non-blank line plus
:func:`repro.serving.trace._row_values`; a bad line raises ``TraceError``
naming it, and a bad *final* line is a torn tail that ``allow_partial``
drops.  Seeded random files of mutated lines — a BOM, ``", "``
separators, CRLF endings, ``NaN``/``Infinity``/``-0.0``, ``true`` in a
numeric field, arity 8 and 10, blank lines, rows split or joined across
lines, torn last lines — must load to the same records, or fail with the
same message, as the rule applied line by line.
"""

import json
import random

import pytest

from repro.serving import TraceError, TraceRecord, read_trace
from repro.serving.trace import TRACE_FORMAT, TRACE_VERSION, _row_values

SEED = 20261018
FILES = 250
LINES_PER_FILE = 16
MUTATED = 0.5


def reference_read(path, *, allow_partial):
    """The per-line rule: ``(records, None)`` or ``(None, error text)``."""
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        lines = handle.readlines()
    records = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            if not isinstance(row, list):
                raise TraceError("row is not an array")
            records.append(TraceRecord(*_row_values(row)))
        except (json.JSONDecodeError, TraceError):
            if lineno == 1 + len(lines):
                if allow_partial:
                    break
                return None, (
                    f"{path}:{lineno}: truncated final row (torn write "
                    f"from a crashed writer?) — pass allow_partial=True to "
                    f"recover the {len(records)}-record valid prefix"
                )
            return None, f"{path}:{lineno}: unreadable row"
    declared = header["records"]
    if declared != len(records) and not (allow_partial and declared > len(records)):
        return None, (
            f"{path}: header declares {declared} records, file has "
            f"{len(records)} (truncated?)"
        )
    return records, None


def _row(rng, i):
    node = rng.choice(["n1", "n2", "bus-7", 'odd"id', "a],[b", "nø", "n "])
    return [
        round(rng.uniform(0, 100), rng.choice([0, 1, 3, 17])),
        i,
        node,
        rng.uniform(-1e3, 1e3),
        rng.choice([0.0, 1.5, -2.25, 1e-300, 123456789.125]),
        rng.uniform(-5, 5),
        rng.choice([0, 1, -3]),
        rng.choice(["road-1", "bldg-2", "r,3"]),
        rng.choice([0.0, 0, 4.0, 12.5]),
    ]


_TOKENS = [
    "NaN", "Infinity", "-Infinity", "-0.0", "true", "false", "null", '"1"',
    "1e400", "-1e400", "100000000000000000000000", "9223372036854775808",
    "1E2", "0.10000000000000001", "[]", "{}",
]


#: Spellings of valid numbers, for the float fields.
_BENIGN = ["-0.0", "1E2", "0.10000000000000001", "7", "2.5e-3"]


def _mutate(rng, line, benign):
    """One mutated spelling of a canonical row line (or the line itself);
    a *benign* one still spells a valid row."""
    row = json.loads(line)
    if benign:
        kind = rng.choice([0, 0, 11, 13, 13, 14, 14, 14, 14, 6])
    else:
        kind = rng.randrange(16)
    if kind == 0:
        return line.replace(",", ", ")
    if kind == 1:
        return "\ufeff" + line
    if kind == 2:
        fields = [json.dumps(v) for v in row]
        fields[rng.randrange(9)] = rng.choice(_TOKENS)
        return "[" + ",".join(fields) + "]"
    if kind == 3:
        return json.dumps(row[: rng.choice([8, 0, 1])])
    if kind == 4:
        return json.dumps(row + [rng.choice([0.0, "x"])])
    if kind == 5:
        return line[: rng.randrange(len(line))]
    if kind == 6:
        return rng.choice([" ", "\t", " \t "]) + line + rng.choice(["", " ", "\t"])
    if kind == 7:
        return rng.choice(["\x0c", " ", "\x0b"]) + line
    if kind == 8:
        return line + "," + line
    if kind == 9:
        cut = line.index(",", line.index(",") + 1)
        return line[:cut] + "\n" + line[cut + 1 :]
    if kind == 10:
        return rng.choice(["{}", "5", '"row"', "[[1]]", "[1,2]"])
    if kind == 11:
        return rng.choice(["", "   ", "\t"])
    if kind == 12:
        return line + "]"
    if kind == 13:
        fields = [json.dumps(v) for v in row]
        fields[rng.choice([0, 3, 4, 5, 6, 8])] = rng.choice(_BENIGN)
        return "[" + ", ".join(fields) + "]"
    return line


def _write(rng, path):
    """Write one trace file; returns how many of its lines are mutated."""
    lines = []
    mutated = 0
    benign = rng.random() < 0.6
    for i in range(LINES_PER_FILE):
        line = json.dumps(_row(rng, i), ensure_ascii=rng.random() < 0.5)
        if rng.random() < MUTATED:
            line = _mutate(rng, line, benign)
            mutated += 1
        lines.append(line)
    declared = LINES_PER_FILE - rng.choice([0, 0, 0, 0, 1, -1])
    header = json.dumps(
        {"format": TRACE_FORMAT, "meta": {}, "records": declared,
         "version": TRACE_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )
    newline = rng.choice(["\n", "\n", "\r\n"])
    tail = rng.choice([newline, newline, ""])
    path.write_bytes((newline.join([header, *lines]) + tail).encode("utf-8"))
    return mutated


def _outcome(path, allow_partial):
    try:
        _, records = read_trace(path, allow_partial=allow_partial)
    except TraceError as exc:
        return None, str(exc)
    return list(records), None


def test_bulk_decode_matches_the_per_line_rule(tmp_path):
    rng = random.Random(SEED)
    failures = accepted = mutated = 0
    for number in range(FILES):
        path = tmp_path / f"trace-{number}.jsonl"
        mutated += _write(rng, path)
        for allow_partial in (False, True):
            expected = reference_read(path, allow_partial=allow_partial)
            assert _outcome(path, allow_partial) == expected, (path, allow_partial)
            failures += expected[1] is not None
            accepted += expected[1] is None
    # The mix exercises both sides of the rule.
    assert mutated >= 2000
    assert failures > 50 and accepted > 50


@pytest.mark.parametrize("allow_partial", [False, True])
def test_torn_last_line(tmp_path, allow_partial):
    rng = random.Random(SEED + 1)
    lines = [json.dumps(_row(rng, i)) for i in range(5)]
    header = json.dumps(
        {"format": TRACE_FORMAT, "meta": {}, "records": 5, "version": TRACE_VERSION}
    )
    path = tmp_path / "torn.jsonl"
    path.write_text("\n".join([header, *lines])[:-7])
    assert _outcome(path, allow_partial) == reference_read(
        path, allow_partial=allow_partial
    )
