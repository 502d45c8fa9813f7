"""Optional per-shard gzip compression for the persistent store.

The contracts behind the manifest's ``compression: "gzip"`` flag:

* **transparent reads** — loading, streaming, lazy per-shard access, and
  the streaming well-formedness check behave identically on compressed
  and plain stores;
* **byte-stability on the decompressed records** — counts, CRC-32s, and
  content-addressed names are computed over the decompressed JSONL, and
  the gzip stream itself is deterministic (fixed mtime, no embedded
  filename), so save → load → save reproduces identical files;
* **corruption stays loud and located** — a damaged compressed shard
  raises the same typed :class:`~repro.store.StoreCorruptionError`
  naming the shard;
* plain stores are untouched: their manifests carry no ``compression``
  key, byte for byte as PR 3 wrote them.
"""

from __future__ import annotations

import json

import pytest

from conftest import check
from repro.core.argument import Argument, LinkKind
from repro.core.case import AssuranceCase
from repro.core.nodes import Node, NodeType
from repro.store import StoredArgument, StoreCorruptionError, StoreError

pytestmark = pytest.mark.store


@pytest.fixture
def argument() -> Argument:
    argument = Argument("gzip-case")
    argument.add_nodes([
        Node("G1", NodeType.GOAL, "The system is acceptably safe"),
        Node("S1", NodeType.STRATEGY, "Argument over the hazards"),
        Node("G2", NodeType.GOAL, "Hazard H1 is acceptably managed",
             metadata=(("hazard", ("H1", "remote", "catastrophic")),)),
        Node("Sn1", NodeType.SOLUTION, "Fault tree analysis FTA-1"),
        Node("C1", NodeType.CONTEXT, "Operating context: urban rail"),
    ])
    argument.add_links([
        ("G1", "S1", LinkKind.SUPPORTED_BY),
        ("S1", "G2", LinkKind.SUPPORTED_BY),
        ("G2", "Sn1", LinkKind.SUPPORTED_BY),
        ("G1", "C1", LinkKind.IN_CONTEXT_OF),
    ])
    return argument


def _store_files(store_dir) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(store_dir.iterdir())
    }


def test_round_trip_equality_and_manifest_flag(argument, tmp_path):
    store_dir = tmp_path / "gz.store"
    manifest = argument.save(store_dir, compression="gzip")
    assert manifest["compression"] == "gzip"
    assert all(name.endswith(".jsonl.gz") for name in manifest["shards"])
    stored = StoredArgument(store_dir)
    assert stored.compression == "gzip"
    assert stored.load() == argument


def test_plain_manifests_carry_no_compression_key(argument, tmp_path):
    manifest = argument.save(tmp_path / "plain.store")
    assert "compression" not in manifest
    assert all(name.endswith(".jsonl") for name in manifest["shards"])


def test_byte_stability_on_compressed_stores(argument, tmp_path):
    first = tmp_path / "first.store"
    second = tmp_path / "second.store"
    argument.save(first, compression="gzip")
    Argument.load(first).save(second, compression="gzip")
    assert _store_files(first) == _store_files(second)


def test_checksums_cover_decompressed_records(argument, tmp_path):
    plain_dir = tmp_path / "plain.store"
    gz_dir = tmp_path / "gz.store"
    plain = argument.save(plain_dir)
    compressed = argument.save(gz_dir, compression="gzip")
    # Same decompressed content -> same CRC-32s and record counts, and
    # the content-addressed stems differ only in suffix.
    plain_meta = {
        name.removesuffix(".jsonl"): meta
        for name, meta in plain["shards"].items()
    }
    gz_meta = {
        name.removesuffix(".jsonl.gz"): meta
        for name, meta in compressed["shards"].items()
    }
    assert plain_meta == gz_meta


def test_streaming_wellformedness_matches_plain(argument, tmp_path):
    argument.save(tmp_path / "plain.store")
    argument.save(tmp_path / "gz.store", compression="gzip")
    plain = StoredArgument(tmp_path / "plain.store")
    compressed = StoredArgument(tmp_path / "gz.store")
    assert check(compressed) == check(plain) == check(argument)
    assert not compressed.hydrated


def test_lazy_partial_access_is_transparent(argument, tmp_path):
    store_dir = tmp_path / "gz.store"
    argument.save(store_dir, compression="gzip")
    stored = StoredArgument(store_dir)
    assert stored.node("G2").metadata_dict()["hazard"] == (
        "H1", "remote", "catastrophic"
    )
    fragment = stored.subtree("G2")
    assert fragment == argument.subtree("G2")
    assert len(stored.shards_read) < 2 * stored.shard_count


def test_case_round_trips_compressed(argument, tmp_path, sample_case):
    store_dir = tmp_path / "case.store"
    manifest = sample_case.save(store_dir, compression="gzip")
    assert manifest["compression"] == "gzip"
    loaded = AssuranceCase.load(store_dir)
    assert loaded.argument == sample_case.argument
    assert sorted(item.identifier for item in loaded.evidence) == \
        sorted(item.identifier for item in sample_case.evidence)


def test_corrupt_gzip_shard_names_the_shard(argument, tmp_path):
    store_dir = tmp_path / "gz.store"
    manifest = argument.save(store_dir, compression="gzip")
    shard = next(
        name for name, meta in manifest["shards"].items()
        if name.startswith("nodes-") and meta["records"] > 0
    )
    data = bytearray((store_dir / shard).read_bytes())
    data[len(data) // 2] ^= 0xFF
    (store_dir / shard).write_bytes(bytes(data))
    with pytest.raises(StoreCorruptionError, match=shard):
        StoredArgument(store_dir).load()


def test_truncated_gzip_shard_is_corruption(argument, tmp_path):
    store_dir = tmp_path / "gz.store"
    manifest = argument.save(store_dir, compression="gzip")
    shard = next(
        name for name, meta in manifest["shards"].items()
        if name.startswith("links-") and meta["records"] > 0
    )
    data = (store_dir / shard).read_bytes()
    (store_dir / shard).write_bytes(data[: max(1, len(data) // 2)])
    with pytest.raises(StoreCorruptionError, match=shard):
        list(StoredArgument(store_dir).iter_links())


def test_recompressing_sweeps_the_old_shards(argument, tmp_path):
    store_dir = tmp_path / "switch.store"
    argument.save(store_dir)
    plain_names = set(json.loads(
        (store_dir / "manifest.json").read_text()
    )["shards"])
    argument.save(store_dir, compression="gzip")
    remaining = {path.name for path in store_dir.iterdir()}
    assert not plain_names & remaining, (
        "plain shards must be swept after the compressed commit"
    )
    assert StoredArgument(store_dir).load() == argument


def test_unsupported_compression_rejected_at_save(argument, tmp_path):
    with pytest.raises(StoreError, match="unsupported shard compression"):
        argument.save(tmp_path / "bad.store", compression="zstd")


def test_unsupported_compression_rejected_at_open(argument, tmp_path):
    store_dir = tmp_path / "tampered.store"
    argument.save(store_dir)
    manifest = json.loads((store_dir / "manifest.json").read_text())
    manifest["compression"] = "zstd"
    (store_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="unsupported shard compression"):
        StoredArgument(store_dir)
