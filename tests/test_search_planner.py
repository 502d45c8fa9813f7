"""The query planner and ranked search answer from the index, not the store.

Two contracts, each pinned two ways:

* **the planner is invisible except for speed** — random query trees
  over every factory helper and combinator select exactly what the
  brute-force ``[n for n in nodes if q(n)]`` selects, in insertion
  order, on a live argument (index patched forward through mutation
  deltas), on an indexed store whose journal runs past the sidecar
  watermark, and on a store with no sidecar; and a planned stored
  ``text & type`` query hydrates only its candidates' shards;
* **ranked search renders only what it returns** — ``search(limit=k)``
  is the first ``k`` of the unlimited ranking (ties included) on every
  subject kind, and summaries are rendered for at most ``limit`` hits.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.search as core_search
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.core.query import (
    argument_index,
    attribute_equals,
    attribute_param,
    has_attribute,
    node_type_is,
    select,
    text_contains,
)
from repro.core.search import search
from repro.store import CaseCorpus, StoredArgument, shard_of
from repro.store.search import load_search_index

pytestmark = [pytest.mark.search, pytest.mark.store]

_TEXTS = (
    "Hazard H1 is mitigated by the relief valve",
    "hazard h2: overpressure in the RELIEF line",
    "Test report 17 for the relief valve",
    "Test report 171 for the coolant pump",
    "Argue over each Overpressure hazard",
    "Operating context: plant never exceeds 11 bar",
    "Weld inspection report WR-7: no porosity",
    "The system is acceptably safe",
)

_METADATA = (
    (),
    (("hazard", ("H1", "remote", "catastrophic")),),
    (("hazard", ("H2", "frequent", "minor")),),
    (("hazard", ("H3", "remote", "minor")), ("owner", ("ops",))),
    (("spec", (["a", "b"], 3)),),  # an unhashable parameter payload
    (("owner", ("safety",)),),
)


def _node(number: int, text_offset: int = 0) -> Node:
    types = tuple(NodeType)
    node_type = types[number % len(types)]
    return Node(
        f"N{number}",
        node_type,
        _TEXTS[(number + text_offset) % len(_TEXTS)],
        module="M" if node_type is NodeType.AWAY_GOAL else None,
        metadata=_METADATA[number % len(_METADATA)],
    )


def _base_argument() -> Argument:
    argument = Argument("planner-subject")
    argument.add_nodes(_node(number) for number in range(24))
    argument.add_links(
        (f"N{number}", f"N{number + 1}", LinkKind.SUPPORTED_BY)
        for number in range(0, 23, 2)
    )
    return argument


def _edit(argument: Argument) -> None:
    """Adds, a text replacement and a removal — every delta op kind."""
    argument.add_nodes([_node(24), _node(25, text_offset=3)])
    argument.replace_node(_node(5, text_offset=1))
    argument.remove_node("N8")


@pytest.fixture(scope="module")
def subjects(tmp_path_factory):
    """Live, journal-patched indexed, and unindexed subjects of one
    argument state, each with its brute-force node list."""
    root = tmp_path_factory.mktemp("planner")
    live = _base_argument()
    select(live, text_contains("relief"))  # build the index, then patch
    _edit(live)

    indexed = _base_argument()
    indexed.save(root / "indexed.store", shard_count=4, search_index=True)
    _edit(indexed)
    indexed.save(root / "indexed.store", journal=True)
    indexed_store = StoredArgument(root / "indexed.store")
    assert indexed_store.journal_ops(), "edits must sit past the watermark"
    assert load_search_index(indexed_store) is not None

    plain = _base_argument()
    _edit(plain)
    plain.save(root / "plain.store", shard_count=4)
    plain_store = StoredArgument(root / "plain.store")
    assert load_search_index(plain_store) is None

    return [
        ("live", live, list(live.nodes)),
        ("indexed", indexed_store, list(indexed_store.iter_nodes())),
        ("unindexed", plain_store, list(plain_store.iter_nodes())),
    ]


_NEEDLES = st.one_of(
    st.sampled_from([
        "", "h", "H", "h1", "H1", "ha", "re", "11", "hazard", "Hazard",
        "relief v", "RELIEF", "report 17", "report 17 for", "zzz",
        "overpressure", "Overpressure", "s ",
    ]),
    st.text(alphabet="aehHlrtR17 ", max_size=5),
)

_LEAVES = st.one_of(
    st.builds(text_contains, _NEEDLES, st.booleans()),
    st.builds(node_type_is, st.sampled_from(list(NodeType))),
    st.builds(has_attribute, st.sampled_from(["hazard", "owner", "spec",
                                              "absent"])),
    st.builds(
        attribute_param,
        st.sampled_from(["hazard", "spec", "owner"]),
        st.integers(min_value=-1, max_value=2),
        st.sampled_from(["H1", "remote", "minor", "ops", ["a", "b"], 3]),
    ),
    st.builds(
        attribute_equals,
        st.sampled_from(["hazard", "owner"]),
        st.sampled_from([("H1", "remote", "catastrophic"), ("ops",)]),
    ),
)

_QUERIES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda pair: pair[0] & pair[1]),
        st.tuples(children, children).map(lambda pair: pair[0] | pair[1]),
        children.map(lambda query: ~query),
    ),
    max_leaves=6,
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=_QUERIES)
def test_select_equals_brute_force_on_every_subject(subjects, query):
    for label, subject, nodes in subjects:
        expected = [node for node in nodes if query(node)]
        assert select(subject, query) == expected, (
            f"{label}: {query.description}"
        )


def test_one_sided_conjunction_narrows_but_is_not_exact():
    argument = _base_argument()
    index = argument_index(argument)
    goals = {n.identifier for n in argument.nodes
             if n.node_type is NodeType.GOAL}
    goal = node_type_is(NodeType.GOAL)
    unhashable = attribute_param("spec", 0, ["a", "b"])
    assert unhashable.candidates(index) is None
    assert (goal & unhashable).candidates(index) == (goals, False)
    assert (unhashable & goal).candidates(index) == (goals, False)
    assert (goal | unhashable).candidates(index) is None
    # Both sides planned and exact: the intersection is the answer.
    ids, exact = (text_contains("h1") & goal).candidates(index)
    assert exact and ids == {
        identifier for identifier in goals
        if "h1" in argument.node(identifier).text.lower()
    }


def test_sidecar_has_no_type_or_attribute_postings(tmp_path):
    directory = tmp_path / "leaves.store"
    _base_argument().save(directory, search_index=True)
    index = load_search_index(StoredArgument(directory))
    assert index is not None
    for leaf in (
        node_type_is(NodeType.GOAL),
        has_attribute("hazard"),
        attribute_param("hazard", 1, "remote"),
        attribute_equals("owner", ("ops",)),
    ):
        assert leaf.candidates(index) is None
    ids, exact = text_contains("relief").candidates(index)
    assert exact and ids
    ids, exact = (
        text_contains("relief") & node_type_is(NodeType.GOAL)
    ).candidates(index)
    assert not exact and ids


# -- cost: a planned stored select hydrates only its candidates' shards ------


def _evidence_argument(blocks: int) -> Argument:
    argument = Argument("evidence-library")
    for block in range(blocks):
        argument.add_nodes([
            Node(f"G{block}", NodeType.GOAL,
                 f"Hazard {block} is mitigated"),
            Node(f"E{block}", NodeType.SOLUTION,
                 f"Test report {block} for hazard {block}"),
        ])
        argument.add_link(f"G{block}", f"E{block}", LinkKind.SUPPORTED_BY)
    return argument


def test_stored_text_and_type_reads_only_candidate_shards(tmp_path):
    directory = tmp_path / "evidence.store"
    _evidence_argument(200).save(directory, shard_count=8,
                                 search_index=True)
    stored = StoredArgument(directory)
    index = load_search_index(stored)
    assert index is not None
    needle = "test report 17 for"
    superset = index.grams_superset(needle)
    allowed = {
        stored.manifest["node_shards"][shard_of(identifier, 8)]
        for identifier in superset
    }
    before = set(stored.shards_read)
    query = text_contains("Test report 17 for") & node_type_is(
        NodeType.SOLUTION
    )
    assert [node.identifier for node in select(stored, query)] == ["E17"]
    read = stored.shards_read - before
    assert read <= allowed
    assert len(allowed) < len(stored.manifest["node_shards"])
    assert not read & set(stored.manifest["link_shards"])


# -- top-k: the returned hits are the head of the full ranking --------------


def _tied_argument() -> Argument:
    """Many identically-scored hits, so ties decide membership."""
    argument = Argument("ties")
    for number in range(40):
        argument.add_node(Node(
            f"R{number:02d}", NodeType.SOLUTION,
            "Test report for the relief valve" if number % 3
            else "Test report for the relief valve, relief valve again",
        ))
    for number in range(0, 39, 3):
        argument.add_link(f"R{number:02d}", f"R{number + 1:02d}",
                          LinkKind.SUPPORTED_BY)
        argument.add_link(f"R{number:02d}", f"R{number + 2:02d}",
                          LinkKind.SUPPORTED_BY)
    return argument


@pytest.fixture
def ranked_subjects(tmp_path):
    argument = _tied_argument()
    argument.save(tmp_path / "ties.store", search_index=True)
    unindexed = tmp_path / "unindexed.store"
    argument.save(unindexed)
    corpus_root = tmp_path / "corpus"
    for name in ("alpha", "beta", "gamma"):
        # Identical members: every score ties across stores too.
        argument.save(corpus_root / f"{name}.store",
                      search_index=(name != "beta"))
    return {
        "live": argument,
        "stored": StoredArgument(tmp_path / "ties.store"),
        "unindexed": StoredArgument(unindexed),
        "corpus": CaseCorpus(corpus_root),
    }


@pytest.mark.parametrize("kind", ["live", "stored", "unindexed", "corpus"])
@pytest.mark.parametrize("text", ["report relief", "valve again", "rel"])
def test_limited_search_is_the_head_of_the_full_ranking(
    ranked_subjects, kind, text
):
    subject = ranked_subjects[kind]
    everything = search(subject, text, limit=10**6)
    assert len(everything) > 10
    assert len({hit.score for hit in everything}) < len(everything), (
        "the fixture must produce tied scores"
    )
    for k in (1, 2, 5, 10, 14, len(everything)):
        assert search(subject, text, limit=k) == everything[:k]


@pytest.mark.parametrize("kind", ["live", "stored", "corpus"])
def test_only_returned_hits_are_rendered(ranked_subjects, kind, monkeypatch):
    subject = ranked_subjects[kind]
    calls = []
    summary = core_search.query_biased_summary

    def counting(*args, **kwargs):
        calls.append(args[0])
        return summary(*args, **kwargs)

    monkeypatch.setattr(core_search, "query_biased_summary", counting)
    matched = len(search(subject, "report", limit=10**6, neighbourhood=0))
    calls.clear()
    limit, neighbourhood = 3, 2
    hits = search(subject, "report", limit=limit,
                  neighbourhood=neighbourhood)
    assert len(hits) == limit
    sources = 3 if kind == "corpus" else 1
    assert matched > sources * limit * (1 + neighbourhood)
    assert len(calls) <= sources * limit * (1 + neighbourhood)
