"""Well-formedness over stored arguments, and shard-corruption handling.

Two contracts of the persistent store:

* **checking is storage-transparent** — an argument loaded from (or
  checked directly against) a store produces exactly the violations the
  in-memory original does, rule for rule, in order;
* **corruption is loud and located** — any tampering a shard can suffer
  (bit flips, truncated JSONL lines, padded records, missing files,
  undecodable lines, CRC-valid records whose fields make no node or
  link, a node id or link repeated within a shard) raises a typed
  :class:`~repro.store.StoreCorruptionError` that names the shard, so an
  operator of a 100k-node store knows which file to restore.
"""

from __future__ import annotations

import json
from zlib import crc32

import pytest

import repro
from conftest import check
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.core.wellformed import DENNEY_PAI_RULES
from repro.store import StoredArgument, StoreCorruptionError, StoreError
from repro.store.format import link_from_record

pytestmark = pytest.mark.store


@pytest.fixture
def ill_formed_argument() -> Argument:
    """One argument violating several distinct rules at once."""
    argument = Argument("ill-formed")
    argument.add_nodes([
        Node("G1", NodeType.GOAL, "The system is acceptably safe"),
        Node("G2", NodeType.GOAL, "Formal proof that Quat4 holds"),
        Node("G3", NodeType.GOAL, "A second root claim stands alone"),
        Node("Sn1", NodeType.SOLUTION, "Test report TR-1"),
        Node("Sn2", NodeType.SOLUTION, "Test report TR-2"),
        Node("C1", NodeType.CONTEXT, "Operating context"),
    ])
    argument.add_links([
        ("G1", "G2", LinkKind.SUPPORTED_BY),
        ("G2", "Sn1", LinkKind.SUPPORTED_BY),
        # solution-leaf violation: a solution citing further support.
        ("Sn1", "Sn2", LinkKind.SUPPORTED_BY),
        # in-context-of-target violation: context link to a solution.
        ("G1", "Sn2", LinkKind.IN_CONTEXT_OF),
        ("G2", "C1", LinkKind.IN_CONTEXT_OF),
    ])
    # G3 is an unsupported, unmarked goal and a second root.
    return argument


def test_loaded_argument_has_identical_violations(
    ill_formed_argument, tmp_path
) -> None:
    store_dir = tmp_path / "ill.store"
    ill_formed_argument.save(store_dir)
    loaded = Argument.load(store_dir)
    expected = check(ill_formed_argument)
    assert expected, "fixture must actually violate rules"
    assert check(loaded) == expected
    assert check(loaded, DENNEY_PAI_RULES) == \
        check(ill_formed_argument, DENNEY_PAI_RULES)


def test_check_accepts_stored_argument_directly(
    ill_formed_argument, tmp_path
) -> None:
    store_dir = tmp_path / "ill.store"
    ill_formed_argument.save(store_dir)
    stored = StoredArgument(store_dir)
    assert check(stored) == check(ill_formed_argument)
    # The check hydrated by iterating shards.
    assert stored.shards_read


def test_check_rejects_non_argument_objects_clearly(sample_case) -> None:
    """Objects that merely *have* a load() must not be mis-dispatched."""
    with pytest.raises(TypeError, match="got AssuranceCase"):
        check(sample_case)


def test_cyclic_stored_argument_still_flagged(tmp_path) -> None:
    argument = Argument("cyclic")
    argument.add_nodes([
        Node("G1", NodeType.GOAL, "Claim one holds"),
        Node("G2", NodeType.GOAL, "Claim two holds"),
    ])
    argument.add_links([
        ("G1", "G2", LinkKind.SUPPORTED_BY),
        ("G2", "G1", LinkKind.SUPPORTED_BY),
    ])
    argument.save(tmp_path / "cyclic.store")
    violations = check(Argument.load(tmp_path / "cyclic.store"))
    assert any(v.rule == "acyclic" for v in violations)
    assert violations == check(argument)


# -- corruption fixtures ----------------------------------------------------


@pytest.fixture
def stored_dir(ill_formed_argument, tmp_path):
    store_dir = tmp_path / "victim.store"
    ill_formed_argument.save(store_dir)
    return store_dir


def _manifest(store_dir) -> dict:
    return json.loads((store_dir / "manifest.json").read_text())


def _nonempty_shard(store_dir, prefix: str) -> str:
    manifest = _manifest(store_dir)
    for name, meta in manifest["shards"].items():
        if name.startswith(prefix) and meta["records"] > 0:
            return name
    raise AssertionError(f"no non-empty {prefix} shard")


def _patch_manifest_crc(store_dir, shard: str) -> None:
    """Recompute a tampered shard's checksum so only *content* is wrong."""
    manifest = _manifest(store_dir)
    manifest["shards"][shard]["crc32"] = crc32(
        (store_dir / shard).read_bytes()
    )
    (store_dir / "manifest.json").write_text(json.dumps(manifest))


def test_flipped_byte_raises_corruption_naming_shard(stored_dir) -> None:
    shard = _nonempty_shard(stored_dir, "nodes-")
    data = bytearray((stored_dir / shard).read_bytes())
    # Flip the case of the first text character; the line stays valid
    # JSON, so only the checksum can catch it.
    marker = b'"text":"'
    data[data.index(marker) + len(marker)] ^= 0x20
    (stored_dir / shard).write_bytes(bytes(data))
    with pytest.raises(StoreCorruptionError, match=shard) as excinfo:
        StoredArgument(stored_dir).load()
    assert excinfo.value.shard == shard
    assert "checksum" in str(excinfo.value)


def test_truncated_line_raises_corruption_naming_shard(stored_dir) -> None:
    shard = _nonempty_shard(stored_dir, "links-")
    data = (stored_dir / shard).read_bytes()
    (stored_dir / shard).write_bytes(data[: len(data) // 2])
    with pytest.raises(StoreCorruptionError, match=shard) as excinfo:
        list(StoredArgument(stored_dir).iter_links())
    assert excinfo.value.shard == shard


def test_undecodable_line_names_shard_and_line(stored_dir) -> None:
    shard = _nonempty_shard(stored_dir, "nodes-")
    path = stored_dir / shard
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = b'{"seq": 0, "id": "broken"\n'  # unterminated object
    path.write_bytes(b"".join(lines))
    _patch_manifest_crc(stored_dir, shard)  # isolate the decode path
    with pytest.raises(StoreCorruptionError, match=shard) as excinfo:
        StoredArgument(stored_dir).load()
    assert "line 1" in str(excinfo.value)


def test_valid_json_non_record_line_is_corruption_not_crash(
    stored_dir,
) -> None:
    """A line that decodes fine but is no record must not TypeError."""
    shard = _nonempty_shard(stored_dir, "nodes-")
    path = stored_dir / shard
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = b"null\n"  # valid JSON, not a store record
    path.write_bytes(b"".join(lines))
    _patch_manifest_crc(stored_dir, shard)
    with pytest.raises(StoreCorruptionError, match=shard) as excinfo:
        StoredArgument(stored_dir).load()
    assert "not a store record" in str(excinfo.value)


def test_record_missing_required_keys_is_corruption(stored_dir) -> None:
    shard = _nonempty_shard(stored_dir, "links-")
    path = stored_dir / shard
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = b'{"seq": 0, "source": "G1"}\n'  # no target/kind
    path.write_bytes(b"".join(lines))
    _patch_manifest_crc(stored_dir, shard)
    with pytest.raises(StoreCorruptionError, match=shard):
        list(StoredArgument(stored_dir).iter_links())


def _tamper_first_record(store_dir, prefix: str, **fields) -> str:
    """Rewrite the first record of a shard with ``fields`` changed and
    reseal its checksum, so the line is CRC-valid, decodable JSON that
    carries every required key — only its field values are wrong."""
    shard = _nonempty_shard(store_dir, prefix)
    path = store_dir / shard
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    record.update(fields)
    lines[0] = json.dumps(record, separators=(",", ":")).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    _patch_manifest_crc(store_dir, shard)
    return shard


def _assert_bad_record_is_typed(store_dir, shard: str) -> None:
    """Both a full load and a check raise the typed corruption error,
    naming the shard and the line."""
    with pytest.raises(StoreCorruptionError, match=shard) as excinfo:
        StoredArgument(store_dir).load()
    assert excinfo.value.shard == shard
    assert "line 1 " in excinfo.value.detail
    with pytest.raises(StoreCorruptionError, match=shard) as excinfo:
        repro.check(StoredArgument(store_dir))
    assert "line 1 " in excinfo.value.detail


def test_unknown_node_type_is_corruption(stored_dir) -> None:
    shard = _tamper_first_record(stored_dir, "nodes-", type="bogus")
    _assert_bad_record_is_typed(stored_dir, shard)


def test_unknown_link_kind_is_corruption(stored_dir) -> None:
    shard = _tamper_first_record(stored_dir, "links-", kind="bogus")
    _assert_bad_record_is_typed(stored_dir, shard)


def test_blank_node_text_is_corruption(stored_dir) -> None:
    shard = _tamper_first_record(stored_dir, "nodes-", text=" ")
    _assert_bad_record_is_typed(stored_dir, shard)


def test_non_string_node_text_is_corruption(stored_dir) -> None:
    shard = _tamper_first_record(stored_dir, "nodes-", text=5)
    _assert_bad_record_is_typed(stored_dir, shard)


def test_padded_shard_raises_record_count_mismatch(stored_dir) -> None:
    shard = _nonempty_shard(stored_dir, "nodes-")
    path = stored_dir / shard
    extra = json.dumps({
        "seq": 999, "id": "Gx", "type": "goal", "text": "Injected claim",
    }, separators=(",", ":")).encode() + b"\n"
    path.write_bytes(path.read_bytes() + extra)
    _patch_manifest_crc(stored_dir, shard)  # isolate the count check
    with pytest.raises(StoreCorruptionError, match=shard) as excinfo:
        StoredArgument(stored_dir).load()
    assert "record" in str(excinfo.value)


def test_duplicate_node_id_in_a_shard_is_corruption(stored_dir) -> None:
    """A second copy of a node in a CRC-valid shard is rejected by every
    read path alike, naming the shard and the copy's line — never
    collapsed to one copy, nor checked twice."""
    shard = _nonempty_shard(stored_dir, "nodes-")
    path = stored_dir / shard
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    record["text"] = "A hand-edited second copy"
    lines.append(json.dumps(record, separators=(",", ":")).encode() + b"\n")
    path.write_bytes(b"".join(lines))
    manifest = _manifest(stored_dir)
    manifest["shards"][shard]["records"] = len(lines)
    (stored_dir / "manifest.json").write_text(json.dumps(manifest))
    _patch_manifest_crc(stored_dir, shard)
    reads = {
        "node": lambda stored: stored.node(record["id"]),
        "load": lambda stored: stored.load(),
        "iter_nodes": lambda stored: list(stored.iter_nodes()),
        "check": lambda stored: repro.check(stored, mode="streaming"),
    }
    for read in reads.values():
        with pytest.raises(StoreCorruptionError, match=shard) as excinfo:
            read(StoredArgument(stored_dir))
        assert excinfo.value.detail == (
            f"line {len(lines)} has a duplicate node id {record['id']!r}"
        )


def test_duplicate_link_in_a_shard_is_corruption(stored_dir) -> None:
    """A second copy of a link in a CRC-valid shard is rejected by every
    read path alike, naming the shard and the copy's line — never an
    untyped argument error, a doubled link, or a check judging both."""
    shard = _nonempty_shard(stored_dir, "links-")
    path = stored_dir / shard
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    lines.append(lines[0])
    path.write_bytes(b"".join(lines))
    manifest = _manifest(stored_dir)
    manifest["shards"][shard]["records"] = len(lines)
    (stored_dir / "manifest.json").write_text(json.dumps(manifest))
    _patch_manifest_crc(stored_dir, shard)
    link = link_from_record(record)
    reads = {
        "subtree": lambda stored: stored.subtree(record["source"]),
        "load": lambda stored: stored.load(),
        "iter_links": lambda stored: list(stored.iter_links()),
        "check": lambda stored: repro.check(stored, mode="streaming"),
    }
    for read in reads.values():
        with pytest.raises(StoreCorruptionError, match=shard) as excinfo:
            read(StoredArgument(stored_dir))
        assert excinfo.value.detail == (
            f"line {len(lines)} has a duplicate link {link}"
        )


def test_missing_shard_file_raises_corruption(stored_dir) -> None:
    shard = _nonempty_shard(stored_dir, "links-")
    (stored_dir / shard).unlink()
    with pytest.raises(StoreCorruptionError, match=shard):
        StoredArgument(stored_dir).load()


def test_lazy_node_lookup_verifies_its_shard(stored_dir) -> None:
    """Corruption surfaces even on a single-shard partial read."""
    shard = _nonempty_shard(stored_dir, "nodes-")
    record = json.loads(
        (stored_dir / shard).read_bytes().splitlines()[0]
    )
    data = bytearray((stored_dir / shard).read_bytes())
    data[-2] ^= 0x01
    (stored_dir / shard).write_bytes(bytes(data))
    stored = StoredArgument(stored_dir)
    with pytest.raises(StoreCorruptionError, match=shard):
        stored.node(record["id"])


def test_tampered_shard_count_rejected_at_open(stored_dir) -> None:
    """A nonsense shard map must not silently load an empty argument."""
    manifest = _manifest(stored_dir)
    manifest["shard_count"] = 0
    manifest["node_shards"] = []
    manifest["link_shards"] = []
    (stored_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreCorruptionError, match="inconsistent shard map"):
        StoredArgument(stored_dir)


def test_tampered_node_count_rejected_on_load(stored_dir) -> None:
    manifest = _manifest(stored_dir)
    manifest["node_count"] += 1
    (stored_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreCorruptionError, match="manifest claims"):
        StoredArgument(stored_dir).load()


def test_unsupported_schema_rejected(stored_dir) -> None:
    manifest = _manifest(stored_dir)
    manifest["schema"] = 99
    (stored_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="unsupported store schema"):
        StoredArgument(stored_dir)


def test_missing_manifest_rejected(tmp_path) -> None:
    with pytest.raises(StoreError, match="no store manifest"):
        StoredArgument(tmp_path / "nowhere.store")


def test_corruption_error_is_a_store_error_and_value_error(
    stored_dir,
) -> None:
    shard = _nonempty_shard(stored_dir, "nodes-")
    (stored_dir / shard).write_bytes(b"garbage\n")
    with pytest.raises(StoreError):
        StoredArgument(stored_dir).load()
    with pytest.raises(ValueError):
        StoredArgument(stored_dir).load()
