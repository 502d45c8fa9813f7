"""Differential test of the store's per-line record decoder.

:meth:`StoredArgument._stream_shard` decodes each shard line with the C
scanner behind ``json.loads`` and falls back to ``json.loads`` itself
whenever the scanner does not consume the whole line.  The contract is
that this is invisible: for any line, the reader accepts exactly what
``json.loads`` accepts, yields an equal record, and otherwise raises the
same ``line N is not valid JSON (...)`` message at the same line.  Each
example writes generated lines into a real shard and reseals the
manifest checksum (as the corruption tests in
``test_store_wellformed.py`` do), so the CRC, UTF-8 and record-count
checks pass and only the decode path decides.
"""

from __future__ import annotations

import json
from zlib import crc32

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.store import StoredArgument, StoreCorruptionError

pytestmark = pytest.mark.store

_REQUIRED = ("seq",)


@pytest.fixture(scope="module")
def victim(tmp_path_factory):
    """A saved store and the name of one of its node shards."""
    argument = Argument("decode")
    argument.add_nodes([
        Node("G1", NodeType.GOAL, "The system is acceptably safe"),
        Node("Sn1", NodeType.SOLUTION, "Test report TR-1"),
    ])
    argument.add_links([("G1", "Sn1", LinkKind.SUPPORTED_BY)])
    store_dir = tmp_path_factory.mktemp("decode") / "victim.store"
    argument.save(store_dir, shard_count=1)
    manifest = json.loads((store_dir / "manifest.json").read_text())
    return store_dir, manifest["node_shards"][0]


def _write_shard(store_dir, shard: str, text: str) -> None:
    """Replace a shard's content and reseal count and checksum."""
    data = text.encode("utf-8")
    (store_dir / shard).write_bytes(data)
    manifest_path = store_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["shards"][shard]["crc32"] = crc32(data)
    manifest["shards"][shard]["records"] = len(text.splitlines())
    manifest_path.write_text(json.dumps(manifest))


def _oracle(text: str) -> "tuple[list, str | None]":
    """What a reader built on ``json.loads`` per line yields and raises."""
    records = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        try:
            record = json.loads(line)
        except ValueError as error:
            return records, f"line {line_number} is not valid JSON ({error})"
        if not isinstance(record, dict) or "seq" not in record:
            return records, (
                f"line {line_number} is not a store record "
                f"(expected an object with seq)"
            )
        records.append(record)
    return records, None


def _canonical(records: list) -> list:
    # json.dumps keeps key order and spells NaN, so records holding NaN
    # (which never equals itself) still compare.
    return [json.dumps(record) for record in records]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)

_records = st.builds(
    lambda seq, extra: {"seq": seq, **extra},
    st.integers(),
    st.dictionaries(st.text(max_size=4), _json_values, max_size=3),
)

_encoded = st.builds(
    lambda value, ascii_only, compact: json.dumps(
        value,
        ensure_ascii=ascii_only,
        separators=(",", ":") if compact else None,
    ),
    _records | _json_values,
    st.booleans(),
    st.booleans(),
)

_literals = st.sampled_from([
    "null",
    "NaN",
    "-Infinity",
    '{"seq": NaN}',
    '{"seq": 1, "seq": 2}',
    '{"seq": 0, "id": "a", "id": "b"}',
    '{"seq": 0, "text": "caf\\u00e9 \\ud83d\\ude00 \\"q\\" \\\\ \\/"}',
    '{"seq": 0, "text": "\\ud800"}',
    '{"seq": 0, "text": "\\x"}',
    '{"seq": 0, "text": "tab\there"}',
    '{"seq": 01}',
    '{"seq": 0,}',
    "[]",
    "",
])

_bodies = _encoded | _literals | st.text(max_size=12)

_lines = st.builds(
    lambda prefix, body, suffix: prefix + body + suffix,
    st.sampled_from(["", "", " ", "\t", "  ", "\ufeff", "\ufeff "]),
    _bodies,
    st.one_of(
        st.sampled_from(["", "", "", " ", "\t", "x", ",", "}", " null"]),
        _bodies,  # two values on one line
        st.text(max_size=3),
    ),
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=st.lists(_lines, min_size=1, max_size=4))
# The scanner's misses — whitespace, a BOM, trailing data — always run.
@example(lines=['{"seq":0}', ' {"seq":1}', '{"seq":2}\t'])
@example(lines=['{"seq":0}', '\ufeff{"seq":1}'])
@example(lines=['{"seq":0}{"seq":1}'])
@example(lines=['{"seq":0} x'])
@example(lines=["null"])
def test_stream_shard_decodes_exactly_like_json_loads(victim, lines) -> None:
    store_dir, shard = victim
    text = "".join(line + "\n" for line in lines)
    _write_shard(store_dir, shard, text)
    expected_records, expected_error = _oracle(text)
    stored = StoredArgument(store_dir)
    records = []
    error = None
    try:
        for record in stored._stream_shard(shard, _REQUIRED):
            records.append(record)
    except StoreCorruptionError as raised:
        assert raised.shard == shard
        error = raised.detail
    assert _canonical(records) == _canonical(expected_records)
    assert error == expected_error
    assert (shard in stored.shards_read) == (error is None)

