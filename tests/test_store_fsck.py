"""casefsck over healthy, corrupted, journaled, and torn stores.

The acceptance criterion: ``python -m repro.store.fsck`` must exit
nonzero **naming the damaged artifact** on every corruption recipe the
reader tests use (flipped bytes, truncated lines, undecodable records,
missing files, tampered manifests), while passing byte-stable stores
and journal-bearing stores — including a recoverable torn tail, which
must be reported ``recoverable``, not fatal.  The orphan inventory must
match :func:`repro.store.journal.gc`'s view exactly.
"""

from __future__ import annotations

import json
import shutil
from zlib import crc32

import pytest

from repro.analysis_static.fsck import (
    FSCK_FATAL,
    FSCK_NOTE,
    FSCK_RECOVERABLE,
    fsck_store,
)
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.store import StoredArgument, shard_of, writer_lease
from repro.store.format import (
    LEASE_NAME,
    StoreCorruptionError,
    link_from_record,
)
from repro.store.fsck import main

pytestmark = [pytest.mark.static, pytest.mark.store]


def _argument() -> Argument:
    argument = Argument("fsck-subject")
    argument.add_nodes([
        Node("G1", NodeType.GOAL, "The system is acceptably safe"),
        Node("G2", NodeType.GOAL, "Hazard H1 is mitigated"),
        Node("S1", NodeType.STRATEGY, "Argue over all hazards"),
        Node("Sn1", NodeType.SOLUTION, "Test report TR-1"),
        Node("C1", NodeType.CONTEXT, "Operating role and context"),
    ])
    argument.add_links([
        ("G1", "S1", LinkKind.SUPPORTED_BY),
        ("S1", "G2", LinkKind.SUPPORTED_BY),
        ("G2", "Sn1", LinkKind.SUPPORTED_BY),
        ("G1", "C1", LinkKind.IN_CONTEXT_OF),
    ])
    return argument


@pytest.fixture
def store_dir(tmp_path):
    directory = tmp_path / "subject.store"
    _argument().save(directory)
    return directory


@pytest.fixture
def journaled_dir(tmp_path):
    """A store carrying two sealed journal segments."""
    directory = tmp_path / "journaled.store"
    _argument().save(directory)
    for round_no in (1, 2):
        loaded = Argument.load(directory)
        loaded.add_node(
            Node(f"G{round_no + 10}", NodeType.GOAL, "An appended claim")
        )
        loaded.add_link("G1", f"G{round_no + 10}", LinkKind.SUPPORTED_BY)
        loaded.save(directory, journal=True)
    manifest = json.loads((directory / "manifest.json").read_text())
    assert len(manifest["journal"]) == 2
    return directory


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


def _reseal(store_dir, shard: str, *, fix_records: bool = True) -> str:
    """Re-address a tampered shard so checksum AND filename both match.

    Leaves only deeper properties (record shape, seq, partition,
    counts) to catch the tampering — exercising fsck's inner checks.
    """
    data = (store_dir / shard).read_bytes()
    checksum = crc32(data)
    stem = shard.rsplit("-", 1)[0]
    suffix = ".jsonl.gz" if shard.endswith(".gz") else ".jsonl"
    fresh = f"{stem}-{checksum:08x}{suffix}"
    (store_dir / shard).rename(store_dir / fresh)
    manifest = _manifest(store_dir)
    meta = manifest["shards"].pop(shard)
    meta["crc32"] = checksum
    if fix_records:
        meta["records"] = len(data.splitlines())
    manifest["shards"][fresh] = meta
    for key in ("node_shards", "link_shards", "journal"):
        if key in manifest:
            manifest[key] = [
                fresh if name == shard else name for name in manifest[key]
            ]
    (store_dir / "manifest.json").write_text(json.dumps(manifest))
    return fresh


def _fatal_artifacts(report) -> set:
    return {f.artifact for f in report.fatal}


# -- healthy stores ----------------------------------------------------------


def test_clean_store_passes(store_dir) -> None:
    report = fsck_store(store_dir)
    assert report.ok
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 0
    assert not report.findings
    assert report.records_checked == 9  # 5 nodes + 4 links
    assert "clean" in report.render()


def test_journaled_store_passes(journaled_dir) -> None:
    report = fsck_store(journaled_dir)
    assert report.ok and not report.findings
    assert report.segments_checked == 2


def test_compressed_store_passes(tmp_path) -> None:
    directory = tmp_path / "gz.store"
    _argument().save(directory, compression="gzip")
    report = fsck_store(directory)
    assert report.ok and not report.findings


# -- base-shard corruption ----------------------------------------------------


def test_flipped_byte_is_fatal_naming_shard(store_dir) -> None:
    shard = _nonempty_shard(store_dir, "nodes-")
    data = bytearray((store_dir / shard).read_bytes())
    marker = b'"text":"'
    data[data.index(marker) + len(marker)] ^= 0x20
    (store_dir / shard).write_bytes(bytes(data))
    report = fsck_store(store_dir)
    assert not report.ok
    assert shard in _fatal_artifacts(report)
    assert any("checksum" in f.detail for f in report.fatal)


def test_manifest_patched_to_match_tampering_still_caught(store_dir) -> None:
    """A manifest edited alongside the bytes cannot defeat the
    content-address in the filename."""
    shard = _nonempty_shard(store_dir, "nodes-")
    data = bytearray((store_dir / shard).read_bytes())
    marker = b'"text":"'
    data[data.index(marker) + len(marker)] ^= 0x20
    (store_dir / shard).write_bytes(bytes(data))
    _patch_manifest_crc(store_dir, shard)
    report = fsck_store(store_dir)
    assert not report.ok
    assert shard in _fatal_artifacts(report)
    assert any("content-address" in f.detail for f in report.fatal)


def test_truncated_shard_is_fatal_naming_shard(store_dir) -> None:
    shard = _nonempty_shard(store_dir, "links-")
    data = (store_dir / shard).read_bytes()
    (store_dir / shard).write_bytes(data[: len(data) // 2])
    report = fsck_store(store_dir)
    assert not report.ok
    assert shard in _fatal_artifacts(report)


def test_undecodable_line_is_fatal_naming_shard_and_line(store_dir) -> None:
    shard = _nonempty_shard(store_dir, "nodes-")
    path = store_dir / shard
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = b'{"seq": 0, "id": "broken"\n'
    path.write_bytes(b"".join(lines))
    fresh = _reseal(store_dir, shard)  # isolate the decode check
    report = fsck_store(store_dir)
    assert not report.ok
    assert fresh in _fatal_artifacts(report)
    assert any("line 1" in f.detail for f in report.fatal)


def test_record_missing_keys_is_fatal(store_dir) -> None:
    shard = _nonempty_shard(store_dir, "links-")
    path = store_dir / shard
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = b'{"seq": 0, "source": "G1"}\n'
    path.write_bytes(b"".join(lines))
    fresh = _reseal(store_dir, shard)
    report = fsck_store(store_dir)
    assert not report.ok
    assert fresh in _fatal_artifacts(report)
    assert any("missing" in f.detail for f in report.fatal)


def test_injected_record_is_fatal(store_dir) -> None:
    """A padded shard trips the manifest record count."""
    shard = _nonempty_shard(store_dir, "nodes-")
    path = store_dir / shard
    extra = json.dumps({
        "seq": 999, "id": "Gx", "type": "goal", "text": "Injected claim",
    }, separators=(",", ":")).encode() + b"\n"
    path.write_bytes(path.read_bytes() + extra)
    fresh = _reseal(store_dir, shard, fix_records=False)
    report = fsck_store(store_dir)
    assert not report.ok
    assert fresh in _fatal_artifacts(report)
    assert any("record count" in f.detail for f in report.fatal)


def test_missing_shard_file_is_fatal(store_dir) -> None:
    shard = _nonempty_shard(store_dir, "links-")
    (store_dir / shard).unlink()
    report = fsck_store(store_dir)
    assert not report.ok
    assert shard in _fatal_artifacts(report)
    assert any("missing" in f.detail for f in report.fatal)


def test_partition_violation_is_fatal(store_dir) -> None:
    """A node renamed to hash elsewhere breaks the id-hash placement."""
    manifest = _manifest(store_dir)
    shard_count = manifest["shard_count"]
    shard = _nonempty_shard(store_dir, "nodes-")
    path = store_dir / shard
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    home = shard_of(record["id"], shard_count)
    stray = next(
        f"STRAY{i}" for i in range(1000)
        if shard_of(f"STRAY{i}", shard_count) != home
    )
    record["id"] = stray
    lines[0] = json.dumps(record, separators=(",", ":")).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    fresh = _reseal(store_dir, shard)
    report = fsck_store(store_dir)
    assert not report.ok
    assert fresh in _fatal_artifacts(report)
    assert any("id-hash partition" in f.detail for f in report.fatal)


@pytest.mark.parametrize("text", [" ", 5], ids=["blank", "number"])
def test_record_the_reader_rejects_is_fatal_naming_shard_and_line(
    store_dir, text
) -> None:
    """A sealed, well-placed record whose fields make no node: fsck must
    fail exactly where the reader's decode would."""
    shard = _nonempty_shard(store_dir, "nodes-")
    path = store_dir / shard
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    record["text"] = text
    lines[0] = json.dumps(record, separators=(",", ":")).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    fresh = _reseal(store_dir, shard)
    with pytest.raises(StoreCorruptionError):
        StoredArgument(store_dir).load()
    report = fsck_store(store_dir)
    assert not report.ok
    assert fresh in _fatal_artifacts(report)
    assert any(
        f.artifact == fresh and "line 1 is not a valid record" in f.detail
        for f in report.fatal
    )


def test_journal_record_the_reader_rejects_is_fatal(journaled_dir) -> None:
    manifest = _manifest(journaled_dir)
    middle = manifest["journal"][0]
    path = journaled_dir / middle
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    assert record["op"] == "add_node"
    record["node"]["text"] = " "
    lines[0] = json.dumps(record, separators=(",", ":")).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    fresh = _reseal(journaled_dir, middle)
    with pytest.raises(StoreCorruptionError):
        StoredArgument(journaled_dir).load()
    report = fsck_store(journaled_dir)
    assert not report.ok
    assert fresh in _fatal_artifacts(report)
    assert any("line 1: malformed 'add_node'" in f.detail
               for f in report.fatal)


def test_duplicate_link_in_a_shard_is_fatal(store_dir) -> None:
    """A link repeated within a shard, under a fresh seq and matching
    counts, is fatal at the copy's line with the reader's own detail."""
    manifest = _manifest(store_dir)
    shard = _nonempty_shard(store_dir, "links-")
    path = store_dir / shard
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    record["seq"] = manifest["link_count"]
    lines.append(json.dumps(record, separators=(",", ":")).encode() + b"\n")
    path.write_bytes(b"".join(lines))
    manifest["link_count"] += 1
    (store_dir / "manifest.json").write_text(json.dumps(manifest))
    fresh = _reseal(store_dir, shard)
    with pytest.raises(StoreCorruptionError) as excinfo:
        StoredArgument(store_dir).load()
    report = fsck_store(store_dir)
    assert [(f.artifact, f.detail) for f in report.fatal] == [
        (fresh, excinfo.value.detail)
    ]
    assert excinfo.value.detail == (
        f"line {len(lines)} has a duplicate link {link_from_record(record)}"
    )


def test_seq_domain_gap_is_fatal(store_dir) -> None:
    shard = _nonempty_shard(store_dir, "nodes-")
    path = store_dir / shard
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    record["seq"] = 999  # ascending within the shard, but a global gap
    lines[0] = json.dumps(record, separators=(",", ":")).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    _reseal(store_dir, shard)
    report = fsck_store(store_dir)
    assert not report.ok
    assert any(
        "seq" in f.detail and "contiguous" in f.detail
        for f in report.fatal
    )


# -- manifest corruption -------------------------------------------------------


def test_tampered_shard_count_is_fatal(store_dir) -> None:
    manifest = _manifest(store_dir)
    manifest["shard_count"] = 0
    manifest["node_shards"] = []
    manifest["link_shards"] = []
    (store_dir / "manifest.json").write_text(json.dumps(manifest))
    report = fsck_store(store_dir)
    assert not report.ok
    assert "manifest.json" in _fatal_artifacts(report)
    assert any("inconsistent shard map" in f.detail for f in report.fatal)


def test_tampered_node_count_is_fatal(store_dir) -> None:
    manifest = _manifest(store_dir)
    manifest["node_count"] += 1
    (store_dir / "manifest.json").write_text(json.dumps(manifest))
    report = fsck_store(store_dir)
    assert not report.ok
    assert any("manifest claims" in f.detail for f in report.fatal)


def test_unsupported_schema_is_fatal(store_dir) -> None:
    manifest = _manifest(store_dir)
    manifest["schema"] = 99
    (store_dir / "manifest.json").write_text(json.dumps(manifest))
    report = fsck_store(store_dir)
    assert not report.ok
    assert any("unsupported store schema" in f.detail for f in report.fatal)


def test_missing_store_directory_is_fatal(tmp_path) -> None:
    report = fsck_store(tmp_path / "nowhere.store")
    assert not report.ok
    assert any("not a store directory" in f.detail for f in report.fatal)


def test_missing_manifest_is_fatal(tmp_path) -> None:
    empty = tmp_path / "empty.store"
    empty.mkdir()
    report = fsck_store(empty)
    assert not report.ok
    assert any("no store manifest" in f.detail for f in report.fatal)


def test_manifest_invalid_json_is_fatal(store_dir) -> None:
    (store_dir / "manifest.json").write_text("{not json")
    report = fsck_store(store_dir)
    assert not report.ok
    assert any("not valid JSON" in f.detail for f in report.fatal)


# -- journal damage: tail vs middle ---------------------------------------------


def test_torn_final_segment_is_recoverable(journaled_dir) -> None:
    manifest = _manifest(journaled_dir)
    final = manifest["journal"][-1]
    data = (journaled_dir / final).read_bytes()
    (journaled_dir / final).write_bytes(data[: len(data) // 2])
    report = fsck_store(journaled_dir)
    assert report.ok, "a torn tail is recoverable, not fatal"
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 1
    torn = [f for f in report.findings if f.severity == FSCK_RECOVERABLE]
    assert torn and torn[0].artifact == final
    assert "recoverable" in torn[0].detail
    assert "ignore_torn_tail" in torn[0].detail


def test_missing_final_segment_is_recoverable(journaled_dir) -> None:
    manifest = _manifest(journaled_dir)
    final = manifest["journal"][-1]
    (journaled_dir / final).unlink()
    report = fsck_store(journaled_dir)
    assert report.ok
    assert any(
        f.severity == FSCK_RECOVERABLE and f.artifact == final
        for f in report.findings
    )


def test_damaged_middle_segment_is_fatal(journaled_dir) -> None:
    manifest = _manifest(journaled_dir)
    middle = manifest["journal"][0]
    data = (journaled_dir / middle).read_bytes()
    (journaled_dir / middle).write_bytes(data[: len(data) // 2])
    report = fsck_store(journaled_dir)
    assert not report.ok
    assert middle in _fatal_artifacts(report)
    assert any(
        "beyond torn-tail recovery" in f.detail for f in report.fatal
    )


def test_missing_middle_segment_is_fatal(journaled_dir) -> None:
    manifest = _manifest(journaled_dir)
    middle = manifest["journal"][0]
    (journaled_dir / middle).unlink()
    report = fsck_store(journaled_dir)
    assert not report.ok
    assert middle in _fatal_artifacts(report)


def test_unknown_journal_op_is_fatal(journaled_dir) -> None:
    manifest = _manifest(journaled_dir)
    middle = manifest["journal"][0]
    path = journaled_dir / middle
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = b'{"op": "reticulate"}\n'
    path.write_bytes(b"".join(lines))
    fresh = _reseal(journaled_dir, middle)
    report = fsck_store(journaled_dir)
    assert not report.ok
    assert fresh in _fatal_artifacts(report)
    assert any("unknown journal op" in f.detail for f in report.fatal)


# -- orphan inventory matches gc() -----------------------------------------------


def test_orphans_match_gc_view(journaled_dir, tmp_path) -> None:
    # Plant one orphan of each shape gc() recognises, plus one
    # foreign file it must never touch.
    (journaled_dir / "nodes-0099-deadbeef.jsonl").write_text("")
    (journaled_dir / "journal-0099.tmp").write_text("")
    (journaled_dir / "manifest.json.tmp").write_text("{}")
    (journaled_dir / "NOTES.txt").write_text("not a store file")
    report = fsck_store(journaled_dir)
    assert report.ok  # orphans are notes, not corruption
    assert all(
        f.severity == FSCK_NOTE
        for f in report.findings
        if f.artifact != "manifest.json"
    )
    # gc() on an identical copy must sweep exactly fsck's inventory.
    mirror = tmp_path / "mirror.store"
    shutil.copytree(journaled_dir, mirror)
    removed = StoredArgument(mirror).gc()
    assert sorted(report.orphans) == removed
    assert "NOTES.txt" not in report.orphans


def _lock_notes(report) -> list:
    return [f for f in report.findings if f.artifact == LEASE_NAME]


def test_a_held_lock_is_noted_and_never_an_orphan(journaled_dir) -> None:
    with writer_lease(journaled_dir):
        report = fsck_store(journaled_dir)
    assert report.ok
    (note,) = _lock_notes(report)
    assert note.severity == FSCK_NOTE
    assert "holds the lock now" in note.detail
    assert LEASE_NAME not in report.orphans
    # Released, the probe reports nothing; the file is still no orphan,
    # even holding the JSON of a crashed writer of an earlier release.
    (journaled_dir / LEASE_NAME).write_text('{"holder": "crashed"}')
    report = fsck_store(journaled_dir)
    assert not _lock_notes(report)
    assert LEASE_NAME not in report.orphans
    assert StoredArgument(journaled_dir).gc() == []


# -- the search sidecar: derived data, recoverable at worst ------------------


@pytest.fixture
def indexed_dir(tmp_path):
    directory = tmp_path / "indexed.store"
    _argument().save(directory, search_index=True)
    return directory


def _sidecar_name(store_dir) -> str:
    return _manifest(store_dir)["search_index"]


def _reseal_sidecar(store_dir, name: str) -> str:
    """``_reseal`` plus the ``search_index`` manifest reference."""
    fresh = _reseal(store_dir, name)
    manifest = _manifest(store_dir)
    manifest["search_index"] = fresh
    (store_dir / "manifest.json").write_text(json.dumps(manifest))
    return fresh


def test_indexed_store_passes(indexed_dir) -> None:
    report = fsck_store(indexed_dir)
    assert report.ok and not report.findings
    # Base shards + the sidecar are all seal-checked.
    assert report.shards_checked > len(
        _manifest(indexed_dir)["node_shards"]
    ) + len(_manifest(indexed_dir)["link_shards"])


def test_torn_sidecar_is_recoverable_never_fatal(indexed_dir) -> None:
    name = _sidecar_name(indexed_dir)
    data = (indexed_dir / name).read_bytes()
    (indexed_dir / name).write_bytes(data[: len(data) // 2])
    report = fsck_store(indexed_dir)
    assert report.ok, "a damaged sidecar is derived data, never fatal"
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 1
    damaged = [
        f for f in report.findings if f.severity == FSCK_RECOVERABLE
    ]
    assert damaged and damaged[0].artifact == name
    assert "build_search_index" in damaged[0].detail


def test_missing_sidecar_file_is_recoverable(indexed_dir) -> None:
    name = _sidecar_name(indexed_dir)
    (indexed_dir / name).unlink()
    report = fsck_store(indexed_dir)
    assert report.ok
    assert any(
        f.severity == FSCK_RECOVERABLE and f.artifact == name
        for f in report.findings
    )


def test_malformed_posting_record_is_recoverable(indexed_dir) -> None:
    name = _sidecar_name(indexed_dir)
    path = indexed_dir / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b'{"seq": 1, "kind": "token", "term": 7, "ids": ["G1"]}\n'
    path.write_bytes(b"".join(lines))
    fresh = _reseal_sidecar(indexed_dir, name)
    report = fsck_store(indexed_dir)
    assert report.ok
    assert any(
        f.severity == FSCK_RECOVERABLE
        and f.artifact == fresh
        and "malformed" in f.detail
        for f in report.findings
    )


def test_stale_watermark_is_a_note(indexed_dir) -> None:
    name = _sidecar_name(indexed_dir)
    path = indexed_dir / name
    lines = path.read_bytes().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["ops"] = 999  # far past a journal-less store's 0 ops
    lines[0] = json.dumps(
        header, separators=(",", ":"), sort_keys=True
    ).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    _reseal_sidecar(indexed_dir, name)
    report = fsck_store(indexed_dir)
    assert report.ok
    assert report.exit_code() == 0
    stale = [f for f in report.findings if f.severity == FSCK_NOTE]
    assert stale and "stale search index" in stale[0].detail
    assert "watermark" in stale[0].detail


def test_stale_base_generation_is_a_note(indexed_dir) -> None:
    name = _sidecar_name(indexed_dir)
    path = indexed_dir / name
    lines = path.read_bytes().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["base_crc32"] = 1
    lines[0] = json.dumps(
        header, separators=(",", ":"), sort_keys=True
    ).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    _reseal_sidecar(indexed_dir, name)
    report = fsck_store(indexed_dir)
    assert report.ok
    assert any(
        f.severity == FSCK_NOTE
        and "previous base shard generation" in f.detail
        for f in report.findings
    )


def test_superseded_sidecar_is_orphan_swept_by_gc(
    indexed_dir, tmp_path
) -> None:
    """Rebuilding the index defers the old sidecar to gc, and fsck's
    orphan inventory must agree with gc's sweep exactly."""
    old = _sidecar_name(indexed_dir)
    loaded = Argument.load(indexed_dir)
    loaded.add_node(Node("G20", NodeType.GOAL, "An appended claim"))
    loaded.add_link("G1", "G20", LinkKind.SUPPORTED_BY)
    loaded.save(indexed_dir, journal=True)
    StoredArgument(indexed_dir).build_search_index()
    fresh = _sidecar_name(indexed_dir)
    assert fresh != old
    assert (indexed_dir / old).exists(), "sweep is deferred to gc"
    report = fsck_store(indexed_dir)
    assert report.ok
    assert old in report.orphans
    mirror = tmp_path / "mirror.store"
    shutil.copytree(indexed_dir, mirror)
    removed = StoredArgument(mirror).gc()
    assert sorted(report.orphans) == removed


# -- the CLI -----------------------------------------------------------------------


def test_cli_clean_store_exits_zero(store_dir, capsys) -> None:
    assert main([str(store_dir)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_corrupt_store_exits_nonzero_naming_artifact(
    store_dir, capsys
) -> None:
    shard = _nonempty_shard(store_dir, "nodes-")
    (store_dir / shard).write_bytes(b"garbage\n")
    assert main([str(store_dir)]) == 1
    out = capsys.readouterr().out
    assert shard in out
    assert "CORRUPT" in out


def test_cli_strict_flags_torn_tail(journaled_dir, capsys) -> None:
    manifest = _manifest(journaled_dir)
    final = manifest["journal"][-1]
    data = (journaled_dir / final).read_bytes()
    (journaled_dir / final).write_bytes(data[: len(data) // 2])
    assert main([str(journaled_dir)]) == 0
    assert main(["--strict", str(journaled_dir)]) == 1
    assert "recoverable" in capsys.readouterr().out


def test_cli_worst_store_wins(store_dir, journaled_dir) -> None:
    shard = _nonempty_shard(store_dir, "nodes-")
    (store_dir / shard).write_bytes(b"garbage\n")
    assert main([str(journaled_dir), str(store_dir)]) == 1
