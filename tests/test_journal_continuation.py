"""One journal-continuation rule for every view derived from a store.

:meth:`StoredArgument.ops_since` decides which journal ops are new to a
consumer, or that it must rebuild.  The search postings and the
store-backed incremental checker both follow it, so a compaction that
reproduces the base shards byte for byte and then a regrown journal
cannot leave either serving the old ops.  The checker asks the handle
itself for nodes and, only when a batch retypes a node, for the links
touching it (:meth:`StoredArgument.links_of`); it keeps no link index.
"""

from __future__ import annotations

import pytest

from conftest import check
from repro.core.analysis import IncrementalChecker
from repro.core.argument import Argument, Link, LinkKind
from repro.core.nodes import Node, NodeType
from repro.core.search import search
from repro.core.wellformed import GSN_STANDARD_RULES
from repro.store import CaseCorpus, StoredArgument, StoreError
from repro.store.search import load_search_index

pytestmark = [pytest.mark.store, pytest.mark.journal, pytest.mark.search]

QUERIES = ("alpha", "bravo", "charlie", "report")


def _retext(directory, argument: Argument, text: str) -> None:
    argument.replace_node(argument.node("G1").with_text(text))
    argument.save(directory, journal=True)


def _answers(subject) -> list:
    return [
        [(hit.identifier, hit.score) for hit in search(subject, query)]
        for query in QUERIES
    ]


def test_search_follows_a_journal_regrown_over_a_reproduced_base(tmp_path):
    """Journal a text edit and its revert, compact (the base shards come
    back with the same names), journal two new edits: a long-lived
    handle and a corpus answer exactly as fresh ones do."""
    directory = tmp_path / "case.store"
    argument = Argument("case")
    argument.add_nodes([
        Node("G1", NodeType.GOAL, "The alpha claim holds"),
        Node("Sn1", NodeType.SOLUTION, "Test report TR-1"),
    ])
    argument.add_link("G1", "Sn1", LinkKind.SUPPORTED_BY)
    argument.save(directory, search_index=True)
    handle = StoredArgument(directory)
    corpus = CaseCorpus(tmp_path)
    _retext(directory, argument, "The bravo claim holds")
    _retext(directory, argument, "The alpha claim holds")
    assert handle.refresh() == "journal"
    corpus.refresh()
    assert _answers(handle)[0] == _answers(corpus)[0] != []
    base, sidecar = handle.base_key(), handle.manifest["search_index"]

    compactor = StoredArgument(directory)
    compactor.compact()
    assert compactor.base_key() == base
    assert compactor.manifest["search_index"] == sidecar
    argument = compactor.load()
    _retext(directory, argument, "The bravo claim holds")
    _retext(directory, argument, "The charlie claim holds")

    assert handle.refresh() == "coalesced"
    corpus.refresh()
    fresh = StoredArgument(directory)
    expected = _answers(fresh)
    assert expected[2] and not expected[0], "the node now reads charlie"
    assert _answers(handle) == expected
    assert load_search_index(handle).canonical() == (
        load_search_index(fresh).canonical()
    )
    assert _answers(corpus) == _answers(CaseCorpus(tmp_path))


def _linked_argument() -> Argument:
    argument = Argument("links")
    argument.add_nodes([
        Node("G1", NodeType.GOAL, "The system is acceptably safe"),
        Node("S1", NodeType.STRATEGY, "Argue over each hazard"),
        Node("C1", NodeType.CONTEXT, "Operating envelope as specified"),
    ])
    argument.add_links([
        ("G1", "S1", LinkKind.SUPPORTED_BY),
        ("G1", "C1", LinkKind.IN_CONTEXT_OF),
        ("S1", "C1", LinkKind.IN_CONTEXT_OF),
    ])
    for index in range(8):
        goal, solution = f"G{index + 2}", f"Sn{index + 1}"
        argument.add_nodes([
            Node(goal, NodeType.GOAL, f"Hazard H{index} is mitigated"),
            Node(solution, NodeType.SOLUTION, f"Test report TR-{index}"),
        ])
        argument.add_links([
            ("S1", goal, LinkKind.SUPPORTED_BY),
            (goal, solution, LinkKind.SUPPORTED_BY),
            (goal, "C1", LinkKind.IN_CONTEXT_OF),
        ])
    return argument


def _journal_link_edits(directory, argument: Argument) -> None:
    """Remove and re-add base links, remove a node with in- and
    out-links, retype one, and re-add a removed one: one save each."""
    argument.remove_link(Link("S1", "G3", LinkKind.SUPPORTED_BY))
    argument.add_link("S1", "G3", LinkKind.SUPPORTED_BY)
    argument.save(directory, journal=True)
    argument.remove_node("G4")
    argument.remove_link(Link("G1", "C1", LinkKind.IN_CONTEXT_OF))
    argument.save(directory, journal=True)
    old = argument.node("C1")
    argument.replace_node(Node("C1", NodeType.ASSUMPTION, old.text))
    argument.add_node(Node("G4", NodeType.GOAL, "Hazard H2 is mitigated"))
    argument.add_links([
        ("G4", "C1", LinkKind.IN_CONTEXT_OF),
        ("S1", "G4", LinkKind.SUPPORTED_BY),
        ("G1", "C1", LinkKind.IN_CONTEXT_OF),
    ])
    argument.save(directory, journal=True)


@pytest.mark.parametrize("shard_count", [1, 8])
def test_stored_links_of_keeps_the_argument_contract(tmp_path, shard_count):
    directory = tmp_path / "links.store"
    argument = _linked_argument()
    argument.save(directory, shard_count=shard_count)
    argument = StoredArgument(directory).load()
    _journal_link_edits(directory, argument)
    stored = StoredArgument(directory)
    assert len(stored.journal_segments) == 3
    loaded = stored.load()
    for node in loaded.nodes:
        assert stored.links_of(node.identifier) == (
            loaded.links_of(node.identifier)
        ), node.identifier
    assert len(stored.links_of("C1")) == 10
    with pytest.raises(StoreError):
        stored.links_of("G99")


@pytest.mark.analysis
def test_the_store_checker_reads_link_shards_only_for_a_retype(
    tmp_path, monkeypatch
):
    """A batch that adds, removes and re-adds a link and removes a node
    reads no link shard; a retype of an InContextOf target reads every
    link shard once, for the links touching it."""
    directory = tmp_path / "checked.store"
    argument = _linked_argument()
    argument.save(directory, shard_count=4)
    argument = StoredArgument(directory).load()
    rules = GSN_STANDARD_RULES.rules
    checker = IncrementalChecker(StoredArgument(directory), rules)
    reads: "list[int]" = []
    original = StoredArgument.iter_shard_links

    def counting(self, index):
        reads.append(index)
        return original(self, index)

    monkeypatch.setattr(StoredArgument, "iter_shard_links", counting)

    def checked_reads() -> "list[int]":
        reads.clear()
        found = checker.check()
        counted = list(reads)
        assert found == check(StoredArgument(directory), mode="streaming")
        assert found == check(argument)
        return counted

    argument.add_link("G1", "Sn1", LinkKind.SUPPORTED_BY)
    argument.remove_link(Link("G1", "Sn1", LinkKind.SUPPORTED_BY))
    argument.add_link("G1", "Sn1", LinkKind.SUPPORTED_BY)
    argument.remove_node("G5")
    argument.save(directory, journal=True)
    assert checked_reads() == []
    old = argument.node("C1")
    argument.replace_node(Node("C1", NodeType.GOAL, old.text))
    argument.save(directory, journal=True)
    assert checked_reads() == [0, 1, 2, 3], "one scan for the retype"
    assert any(
        violation.rule == "in-context-of-target" for violation in check(argument)
    )
