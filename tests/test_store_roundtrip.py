"""Streaming round-trip conformance harness for the sharded store.

Drives the seeded randomized generator (node payloads from
``test_invariants.py`` via ``conftest.random_argument``) through
save → load → save cycles and asserts, for every seed:

* **byte stability** — re-serialising a loaded store reproduces every
  file byte-for-byte (manifest included), so stores can be diffed,
  deduplicated, and content-addressed;
* **semantic equality** — nodes, links, metadata (canonical form),
  statistics, well-formedness violations, and ``select()`` results all
  survive the trip, judged by the same equivalence oracle the legacy
  notation round-trip properties use;
* **partial-load conformance** — ``StoredArgument.subtree(root_id)``
  equals the in-memory ``subtree()`` while hydrating only the shards the
  reachable region touches.

The 10k-node acceptance run is marked ``slow`` (tier-1 still runs it);
the per-seed property runs stay in the quick loop.
"""

from __future__ import annotations

import pytest

from conftest import canonical_argument, check, random_argument
from repro.core.argument import Argument
from repro.core.nodes import NodeType
from repro.core.query import (
    attribute_param,
    has_attribute,
    node_type_is,
    select,
    text_contains,
)
from repro.store import StoredArgument, save_argument

pytestmark = pytest.mark.store


from conftest import store_files as _store_bytes  # the shared oracle


def _query_battery():
    worst = attribute_param("hazard", 1, "remote") \
        & attribute_param("hazard", 2, "catastrophic")
    return (
        has_attribute("hazard"),
        has_attribute("owner"),
        node_type_is(NodeType.GOAL),
        node_type_is(NodeType.SOLUTION),
        attribute_param("hazard", 1, "remote"),
        text_contains("hazard"),
        worst,
        worst | node_type_is(NodeType.STRATEGY),
    )


def _assert_conformant(argument: Argument, tmp_path) -> None:
    """The full save → load → save contract for one argument."""
    first = tmp_path / "first.store"
    second = tmp_path / "second.store"
    third = tmp_path / "third.store"

    argument.save(first)
    loaded = Argument.load(first)
    loaded.save(second)
    assert _store_bytes(first) == _store_bytes(second), (
        "save -> load -> save is not byte-stable"
    )
    # And the cycle is idempotent from there on.
    Argument.load(second).save(third)
    assert _store_bytes(second) == _store_bytes(third)

    # Semantic equality under the shared oracle.
    assert canonical_argument(loaded) == canonical_argument(argument)
    assert loaded.name == argument.name
    assert loaded.statistics() == argument.statistics()
    assert check(loaded) == check(argument), (
        "loading changed the well-formedness violations"
    )
    # Insertion order survives the shard merge: planner-backed selects
    # agree element-for-element, and streaming selects over the store
    # agree with both.
    stored = StoredArgument(first)
    for query in _query_battery():
        expected = [n.identifier for n in select(argument, query)]
        assert [n.identifier for n in select(loaded, query)] == expected
        assert [n.identifier for n in select(stored, query)] == expected


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_save_load_save_conformance(seed: int, tmp_path) -> None:
    argument = random_argument(seed, 250)
    _assert_conformant(argument, tmp_path)


@pytest.mark.parametrize("seed", [44, 55])
def test_subtree_load_matches_in_memory_subtree(seed: int, tmp_path) -> None:
    argument = random_argument(seed, 300)
    store_dir = tmp_path / "arg.store"
    argument.save(store_dir)
    loaded = Argument.load(store_dir)
    # Sample roots across the age range: old nodes reach much of the
    # graph, young nodes almost nothing.
    for root_id in ("n0", "n7", "n150", "n299"):
        stored = StoredArgument(store_dir)
        fragment = stored.subtree(root_id)
        # Exact equality against a subtree of the *loaded* argument
        # (both sides carry canonical metadata)...
        assert fragment == loaded.subtree(root_id)
        # ...and oracle equality against the original in-memory subtree
        # (whose nodes may carry non-canonical duplicate metadata).
        assert canonical_argument(fragment) == \
            canonical_argument(argument.subtree(root_id))


def test_subtree_load_hydrates_fewer_shards(tmp_path) -> None:
    """A localised subtree must not pay for the whole store."""
    argument = random_argument(66, 400)
    store_dir = tmp_path / "arg.store"
    manifest = save_argument(argument, store_dir)
    full = StoredArgument(store_dir)
    full.load()
    assert len(full.shards_read) == 2 * manifest["shard_count"]
    partial = StoredArgument(store_dir)
    partial.subtree("n399")  # the youngest node: tiny reachable set
    assert len(partial.shards_read) < len(full.shards_read)
    # The lazy handle only ever reads a shard once, however many
    # lookups hit it.
    before = set(partial.shards_read)
    partial.node("n399")
    assert set(partial.shards_read) == before


def test_shard_count_is_configurable_and_recorded(tmp_path) -> None:
    argument = random_argument(77, 120)
    store_dir = tmp_path / "arg.store"
    manifest = argument.save(store_dir, shard_count=3)
    assert manifest["shard_count"] == 3
    node_shards = [
        name for name in manifest["shards"] if name.startswith("nodes-")
    ]
    assert len(node_shards) == 3
    assert sum(
        manifest["shards"][name]["records"] for name in node_shards
    ) == len(argument)
    assert canonical_argument(Argument.load(store_dir)) == \
        canonical_argument(argument)


def test_resave_with_fewer_shards_cleans_only_its_own_files(
    tmp_path,
) -> None:
    """Re-saving replaces the store; unrelated files are never touched."""
    argument = random_argument(99, 100)
    store_dir = tmp_path / "arg.store"
    argument.save(store_dir, shard_count=8)
    bystander = store_dir / "notes.jsonl"  # not ours: must survive
    bystander.write_text("operator scratch notes\n")
    manifest = argument.save(store_dir, shard_count=3)
    on_disk = {path.name for path in store_dir.iterdir()}
    # Exactly the new manifest's shards, the manifest, and the bystander.
    assert on_disk == set(manifest["shards"]) | {
        "manifest.json", "notes.jsonl",
    }
    assert canonical_argument(Argument.load(store_dir)) == \
        canonical_argument(argument)


def test_failed_save_leaves_previous_store_loadable(tmp_path) -> None:
    """An interrupted save must not destroy the existing good store."""

    class ExplodingArgument(Argument):
        @property
        def nodes(self):  # simulate disk-full / crash mid-stream
            raise RuntimeError("simulated failure while streaming")

    argument = random_argument(111, 80)
    store_dir = tmp_path / "arg.store"
    argument.save(store_dir)
    good = _store_bytes(store_dir)
    with pytest.raises(RuntimeError, match="simulated failure"):
        ExplodingArgument("boom").save(store_dir)
    # The committed files are untouched (tmp litter aside) and loadable.
    assert {
        name: data
        for name, data in _store_bytes(store_dir).items()
        if not name.endswith(".tmp")
    } == good
    assert canonical_argument(Argument.load(store_dir)) == \
        canonical_argument(argument)


def test_crash_before_manifest_commit_leaves_old_store_intact(
    tmp_path, monkeypatch,
) -> None:
    """Sealed new shards without a manifest commit change nothing.

    The manifest rename is the single commit point: a crash after every
    shard is written but before the manifest lands must leave the old
    manifest pointing at the old (still present, content-addressed)
    shard files.
    """
    import repro.store.writer as writer_module

    old = random_argument(121, 60, name="same-store")
    new = random_argument(122, 90, name="same-store")
    store_dir = tmp_path / "arg.store"
    old.save(store_dir)
    good = _store_bytes(store_dir)

    def explode(directory, manifest):
        raise RuntimeError("simulated crash at commit")

    monkeypatch.setattr(writer_module, "_commit", explode)
    with pytest.raises(RuntimeError, match="crash at commit"):
        new.save(store_dir)
    monkeypatch.undo()
    # Old store still loads bit-for-bit; the orphaned new shards are
    # extra files no manifest references.
    on_disk = _store_bytes(store_dir)
    assert all(on_disk[name] == data for name, data in good.items())
    assert canonical_argument(Argument.load(store_dir)) == \
        canonical_argument(old)


def test_case_save_load_save_byte_stable(sample_case, tmp_path) -> None:
    """Evidence, citations, and criterion ride the same contract."""
    from repro.core.case import AssuranceCase

    first = tmp_path / "first.store"
    second = tmp_path / "second.store"
    sample_case.save(first)
    loaded = AssuranceCase.load(first)
    loaded.save(second)
    assert _store_bytes(first) == _store_bytes(second)
    assert loaded.name == sample_case.name
    assert loaded.criterion == sample_case.criterion
    assert loaded.argument == sample_case.argument
    assert [item.identifier for item in loaded.evidence] == \
        [item.identifier for item in sample_case.evidence]
    for node in sample_case.argument.nodes:
        assert [i.identifier for i in loaded.citations(node.identifier)] \
            == [
                i.identifier
                for i in sample_case.citations(node.identifier)
            ]
    # The lifecycle log intentionally restarts.
    assert len(loaded.history) == 1
    assert loaded.integrity_report().ok == sample_case.integrity_report().ok


def test_load_on_subclass_returns_subclass(tmp_path) -> None:
    class AuditedArgument(Argument):
        pass

    argument = random_argument(131, 40)
    argument.save(tmp_path / "arg.store")
    loaded = AuditedArgument.load(tmp_path / "arg.store")
    assert type(loaded) is AuditedArgument
    assert canonical_argument(loaded) == canonical_argument(argument)


def test_empty_argument_round_trips(tmp_path) -> None:
    argument = Argument("empty")
    argument.save(tmp_path / "empty.store")
    loaded = Argument.load(tmp_path / "empty.store")
    assert len(loaded) == 0 and loaded.links == []
    assert loaded.name == "empty"


def test_load_is_one_version_bump(tmp_path) -> None:
    """Hydration replays through the batch layer: one logical change."""
    argument = random_argument(88, 150)
    argument.save(tmp_path / "arg.store")
    loaded = Argument.load(tmp_path / "arg.store")
    assert loaded.version == 1
    # Every record is individually visible to delta consumers.
    assert loaded.mutation_seq == len(loaded) + len(loaded.links)


@pytest.mark.slow
def test_10k_node_acceptance_conformance(tmp_path) -> None:
    """The acceptance-criteria run: a 10k-node randomized argument."""
    argument = random_argument(0xDEC0DE, 10_000)
    _assert_conformant(argument, tmp_path)
    # Partial load stays partial at scale.
    store_dir = tmp_path / "first.store"
    partial = StoredArgument(store_dir)
    fragment = partial.subtree("n9999")
    assert canonical_argument(fragment) == \
        canonical_argument(argument.subtree("n9999"))
    full = StoredArgument(store_dir)
    full.load()
    assert len(partial.shards_read) < len(full.shards_read)
