"""Each base shard is decoded at most once per :class:`StoredArgument`.

The streaming check, ``node``, ``subtree``, ``load`` and ``iter_nodes``
all read base shards through the handle's one per-shard cache.  These
tests count the base record decodes (``node_from_record`` /
``link_from_record`` as the reader calls them; journal records decode
elsewhere) and assert that the reads following a streaming check decode
nothing, return what a fresh handle returns, and that the caches follow
the handle's generation across every kind of refresh and across an
adopted snapshot chain.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.store.reader as reader
from conftest import canonical_argument, canonical_node, check, random_argument
from repro.core.argument import LinkKind
from repro.core.nodes import Node, NodeType
from repro.store import StoredArgument

pytestmark = pytest.mark.store


class DecodeCounter:
    """Counts base node and link record decodes made by the reader."""

    def __init__(self, monkeypatch) -> None:
        self.nodes = 0
        self.links = 0
        node_from_record = reader.node_from_record
        link_from_record = reader.link_from_record

        def count_node(record):
            self.nodes += 1
            return node_from_record(record)

        def count_link(record):
            self.links += 1
            return link_from_record(record)

        monkeypatch.setattr(reader, "node_from_record", count_node)
        monkeypatch.setattr(reader, "link_from_record", count_link)

    @property
    def total(self) -> int:
        return self.nodes + self.links

    def reset(self) -> None:
        self.nodes = self.links = 0


@pytest.fixture
def decodes(monkeypatch) -> DecodeCounter:
    return DecodeCounter(monkeypatch)


def _argument():
    return random_argument(7, 60, name="decode-once")


@pytest.fixture(params=[None, "gzip"], ids=["plain", "gzip"])
def store(request, tmp_path):
    directory = tmp_path / "case.store"
    _argument().save(directory, shard_count=4, compression=request.param)
    return directory


#: Each read as a comparable value: a fresh handle must return the same.
READS = {
    "node": lambda handle: [
        canonical_node(handle.node(identifier))
        for identifier in ("n0", "n17", "n59")
    ],
    "subtree": lambda handle: canonical_argument(handle.subtree("n0")),
    "load": lambda handle: canonical_argument(handle.load()),
    "iter_nodes": lambda handle: [
        canonical_node(node) for node in handle.iter_nodes()
    ],
}


def _serial(directory) -> list:
    return check(StoredArgument(directory).load(), mode="serial")


def _edit(directory, step: int) -> None:
    """Append one journal segment: a new node, a link to it, a text
    edit and a removal, so every overlay kind is exercised."""
    argument = StoredArgument(directory).load()
    argument.add_node(Node(f"J{step}", NodeType.GOAL, f"Late claim {step}"))
    argument.add_link("n0", f"J{step}", LinkKind.SUPPORTED_BY)
    argument.replace_node(replace(
        argument.node(f"n{10 + step}"), text=f"Revised text {step}"
    ))
    argument.remove_node(f"n{40 + step}")
    argument.save(directory, journal=True)


@pytest.mark.parametrize("read", sorted(READS))
def test_reads_after_a_streaming_check_decode_nothing(store, decodes, read):
    handle = StoredArgument(store)
    report = check(handle, mode="streaming")
    assert decodes.nodes == handle.base_node_total
    assert decodes.links == handle.base_link_total
    assert len(handle.shards_read) == 2 * handle.shard_count
    decodes.reset()
    got = READS[read](handle)
    assert decodes.total == 0, f"{read} re-decoded base records"
    assert len(handle.shards_read) == 2 * handle.shard_count
    assert got == READS[read](StoredArgument(store))
    assert report == _serial(store)


def test_a_check_after_point_reads_decodes_only_the_rest(store, decodes):
    handle = StoredArgument(store)
    handle.subtree("n59")  # a leaf: one node and one link shard
    touched = decodes.total
    assert 0 < touched < handle.base_node_total + handle.base_link_total
    check(handle, mode="streaming")
    assert decodes.total == handle.base_node_total + handle.base_link_total
    decodes.reset()
    again = check(handle, mode="streaming")
    assert decodes.total == 0
    assert again == _serial(store)


@pytest.mark.journal
@pytest.mark.parametrize("shape", ["journal", "coalesced"])
def test_a_refresh_on_the_same_base_keeps_the_caches(
    tmp_path, decodes, shape
):
    store = tmp_path / "case.store"
    _argument().save(store, shard_count=4)
    handle = StoredArgument(store)
    check(handle, mode="streaming")
    _edit(store, 1)
    assert handle.refresh() == "journal"
    _edit(store, 2)
    if shape == "coalesced":
        StoredArgument(store).coalesce()
    decodes.reset()
    assert handle.refresh() == shape
    got = check(handle, mode="streaming")
    assert decodes.total == 0, "the base shards did not change"
    reads = {name: read(handle) for name, read in READS.items()}
    assert decodes.total == 0
    assert got == _serial(store)
    for name, read in READS.items():
        assert reads[name] == read(StoredArgument(store))


@pytest.mark.journal
def test_a_rewritten_refresh_drops_the_caches(tmp_path, decodes):
    store = tmp_path / "case.store"
    _argument().save(store, shard_count=4)
    handle = StoredArgument(store)
    check(handle, mode="streaming")
    _edit(store, 1)
    StoredArgument(store).compact()
    decodes.reset()
    assert handle.refresh() == "rewritten"
    assert not handle.shards_read
    got = check(handle, mode="streaming")
    # The compacted base decodes afresh, once per record.
    assert decodes.nodes == handle.base_node_total
    assert decodes.links == handle.base_link_total
    assert got == _serial(store)
    decodes.reset()
    assert READS["load"](handle) == READS["load"](StoredArgument(store))
    assert decodes.total == handle.base_node_total + handle.base_link_total


@pytest.mark.journal
def test_an_adopted_snapshot_chain_shares_one_decode(tmp_path, decodes):
    store = tmp_path / "case.store"
    _argument().save(store, shard_count=4)
    _edit(store, 1)
    older = StoredArgument(store)
    older_report = check(older, mode="streaming")
    older_nodes = READS["iter_nodes"](older)
    _edit(store, 2)
    newer = StoredArgument(store)
    assert newer.adopt_base_caches(older)
    decodes.reset()
    newer_report = check(newer, mode="streaming")
    assert READS["iter_nodes"](older) == older_nodes
    assert check(older, mode="streaming") == older_report
    assert decodes.total == 0, "adopting handles share the base decode"
    # Each sees only its own overlay.
    pinned = StoredArgument(store, generation=older.generation)
    assert older_nodes == READS["iter_nodes"](pinned)
    assert older.node_count == pinned.node_count
    assert older_report == check(pinned.load(), mode="serial")
    assert newer_report == _serial(store)
    assert READS["iter_nodes"](newer) != older_nodes
    for read in READS.values():
        assert read(newer) == read(StoredArgument(store))


@pytest.mark.journal
def test_a_rewritten_sharer_leaves_the_older_snapshot_its_base(
    tmp_path, decodes
):
    store = tmp_path / "case.store"
    _argument().save(store, shard_count=4)
    older = StoredArgument(store)
    expected = READS["load"](older)
    sharer = StoredArgument(store)
    assert sharer.adopt_base_caches(older)
    _edit(store, 1)
    StoredArgument(store).compact()
    assert sharer.refresh() == "rewritten"
    check(sharer, mode="streaming")
    decodes.reset()
    # The older snapshot still serves its own (swept-later) base, from
    # the caches it filled before the sharer moved on.
    assert READS["load"](older) == expected
    assert decodes.total == 0
