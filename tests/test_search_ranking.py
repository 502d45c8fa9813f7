"""Ranked search scored from the postings alone.

:func:`repro.core.search.search` scores every candidate from the token
postings and their repeat ``counts`` and reads node text only for the
hits it renders.  This module pins that contract from four sides: a
differential oracle against the per-node-tokenizing reference scorer
(``reference_search`` in ``conftest.py``) over every subject kind and
journal-edited sidecars; a bound on node reads; the schema-1 sidecars
that predate ``counts``; and scores that do not depend on the hash
seed.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from conftest import reference_search
from repro.analysis_static.fsck import FSCK_NOTE, fsck_store
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.core.search import search
from repro.store import CaseCorpus, StoredArgument
from repro.store.search import (
    SEARCH_INDEX_KEY,
    SEARCH_SCHEMA_VERSION,
    build_search_index,
    load_search_index,
)

pytestmark = [pytest.mark.store, pytest.mark.search]

# Words the generated texts repeat freely, and needles that occur only
# inside them, never as a whole token, so they rank by substring.
_WORDS = (
    "relief", "valve", "pressure", "overpressure", "weld", "porosity",
    "hazard", "sensor", "report", "limits",
)
_SUBSTRINGS = ("press", "elie", "ensor", "eld", "ress")

_texts = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=7).map(
    " ".join
)
_queries = st.lists(
    st.sampled_from(_WORDS + _SUBSTRINGS + ("absent",)),
    min_size=1,
    max_size=4,
).map(" ".join)


def _build(texts: "list[str]", parents: "list[int]") -> Argument:
    argument = Argument("ranked")
    argument.add_nodes(
        Node(
            f"N{index}",
            NodeType.GOAL if index == 0 or index % 3 else NodeType.SOLUTION,
            text,
        )
        for index, text in enumerate(texts)
    )
    argument.add_links(
        (f"N{parent % index}", f"N{index}", LinkKind.SUPPORTED_BY)
        for index, parent in zip(range(1, len(texts)), parents)
    )
    return argument


def _edit(argument: Argument, edit: "tuple[int, int, str]") -> None:
    """Retext one node, or remove it and re-add it with new text."""
    kind, position, text = edit
    identifier = f"N{position % len(argument)}"
    old = argument.node(identifier)
    if kind == 0:
        argument.replace_node(old.with_text(text))
        return
    sources = [node.identifier for node in argument.parents(identifier)]
    targets = [node.identifier for node in argument.supporters(identifier)]
    argument.remove_node(identifier)
    argument.add_node(Node(identifier, old.node_type, text))
    argument.add_links(
        [(source, identifier, LinkKind.SUPPORTED_BY) for source in sources]
        + [(identifier, target, LinkKind.SUPPORTED_BY) for target in targets]
    )


class TestReferenceOracle:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        texts=st.lists(_texts, min_size=1, max_size=10),
        parents=st.lists(st.integers(0, 50), min_size=9, max_size=9),
        edits=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 50), _texts),
            max_size=4,
        ),
        queries=st.lists(_queries, min_size=1, max_size=3),
        limit=st.integers(1, 6),
        neighbourhood=st.integers(0, 2),
    )
    def test_every_subject_matches_the_reference_scorer(
        self, texts, parents, edits, queries, limit, neighbourhood
    ):
        argument = _build(texts, parents)
        other = _build(list(reversed(texts)), parents)
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            argument.save(root / "a", search_index=True)
            editor = StoredArgument(root / "a")
            # Both indexes exist before the edits, so both are patched.
            load_search_index(editor)
            search(argument, "valve")
            for edit in edits:
                _edit(argument, edit)
                argument.save(root / "a", journal=True)
            assert editor.refresh() in ("journal", "unchanged")
            other.save(root / "b")
            indexed = StoredArgument(root / "a")
            unindexed = StoredArgument(root / "b")
            assert load_search_index(indexed) is not None
            assert load_search_index(editor) is not None
            assert load_search_index(unindexed) is None
            subjects = (
                (argument, argument),
                (indexed, argument),
                (editor, argument),
                (unindexed, other),
                (CaseCorpus(root), CaseCorpus(root)),
            )
            for query in queries:
                options = {"limit": limit, "neighbourhood": neighbourhood}
                for subject, reference in subjects:
                    assert search(subject, query, **options) == (
                        reference_search(reference, query, **options)
                    ), (query, type(subject).__name__)

    def test_a_removed_and_re_added_base_node_takes_its_new_counts(
        self, tmp_path
    ):
        argument = Argument("recount")
        argument.add_nodes([
            Node("G1", NodeType.GOAL, "valve valve valve inspected"),
            Node("G2", NodeType.GOAL, "valve inspected twice, valve"),
            Node("G3", NodeType.GOAL, "one valve"),
        ])
        argument.save(tmp_path, search_index=True)
        handle = StoredArgument(tmp_path)
        assert load_search_index(handle).term_counts("valve") == {
            "G1": 3, "G2": 2,
        }
        argument.remove_node("G1")
        argument.save(tmp_path, journal=True)
        argument.add_node(Node("G1", NodeType.GOAL, "a single valve"))
        argument.replace_node(
            argument.node("G3").with_text("valve, valve, valve, valve")
        )
        argument.save(tmp_path, journal=True)
        assert handle.refresh() == "journal"
        index = load_search_index(handle)
        assert index.term_counts("valve") == {"G2": 2, "G3": 4}
        assert index.canonical() == (
            load_search_index(StoredArgument(tmp_path)).canonical()
        )
        assert search(handle, "valve") == reference_search(argument, "valve")
        assert [hit.identifier for hit in search(handle, "valve")] == [
            "G3", "G2", "G1",
        ]


# -- node reads ---------------------------------------------------------------


def test_search_reads_only_the_rendered_hits(tmp_path, monkeypatch):
    argument = Argument("wide")
    argument.add_node(Node("G0", NodeType.GOAL, "The plant is safe"))
    argument.add_nodes(
        Node(f"Sn{index:04d}", NodeType.SOLUTION,
             f"Weld report {index}" + (" weld" * (index % 3)))
        for index in range(1000)
    )
    argument.add_links(
        ("G0", f"Sn{index:04d}", LinkKind.SUPPORTED_BY)
        for index in range(1000)
    )
    argument.save(tmp_path, search_index=True)
    stored = StoredArgument(tmp_path)
    assert load_search_index(stored) is not None
    reads: "list[str]" = []
    original = StoredArgument.node

    def counting(self, identifier):
        reads.append(identifier)
        return original(self, identifier)

    monkeypatch.setattr(StoredArgument, "node", counting)
    hits = search(stored, "weld", limit=10)
    monkeypatch.undo()
    assert len(hits) == 10
    # The leaves support nothing, so the rendered hits are all it reads.
    assert len(reads) <= 10, f"{len(reads)} node reads for 10 hits"
    assert hits == reference_search(argument, "weld", limit=10)


def test_many_distinct_scores_rank_under_a_large_limit(tmp_path):
    # Node i holds "valve" i + 1 times, so every score is distinct and
    # a limit past the match count ranks every node.
    argument = Argument("deep")
    argument.add_node(Node("G0", NodeType.GOAL, "The plant is safe"))
    argument.add_nodes(
        Node(f"Sn{index:03d}", NodeType.SOLUTION,
             "Relief " + " ".join(["valve"] * (index + 1)))
        for index in range(300)
    )
    argument.add_links(
        ("G0", f"Sn{index:03d}", LinkKind.SUPPORTED_BY)
        for index in range(300)
    )
    argument.save(tmp_path / "a", search_index=True)
    argument.save(tmp_path / "b")
    expected = reference_search(argument, "valve relief", limit=400)
    assert len(expected) == 300
    assert len({hit.score for hit in expected}) == 300
    for subject in (
        argument,
        StoredArgument(tmp_path / "a"),
        StoredArgument(tmp_path / "b"),
    ):
        assert search(subject, "valve relief", limit=400) == expected


def test_a_scan_index_is_freed_before_rendering(tmp_path, monkeypatch):
    from repro.core import search as search_module

    for name in ("a", "b", "c"):
        argument = _build(["relief valve", "valve weld", "sensor"], [0, 0])
        argument.save(tmp_path / name)
    corpus = CaseCorpus(tmp_path)
    alive: "list[int]" = []
    render = search_module._render

    def counting(*args, **kwargs):
        gc.collect()
        alive.append(sum(
            isinstance(item, search_module._ScanIndex)
            for item in gc.get_objects()
        ))
        return render(*args, **kwargs)

    monkeypatch.setattr(search_module, "_render", counting)
    hits = search(corpus, "valve", limit=5)
    assert len(hits) == 5
    # At most one store's scan is built at a time, and none outlives
    # its ranking, so nothing scanned is held while hits are rendered.
    assert alive == [0] * 5


# -- schema-1 sidecars --------------------------------------------------------


def _schema_1_records(original):
    """A sidecar writer speaking schema 1: no ``counts``, old header."""

    def records(*args, **kwargs):
        for record in original(*args, **kwargs):
            record.pop("counts", None)
            if record["kind"] == "header":
                record["search_schema"] = 1
            yield record

    return records


def _header(directory: Path) -> dict:
    name = StoredArgument(directory).manifest[SEARCH_INDEX_KEY]
    with open(directory / name, encoding="utf-8") as sidecar:
        return json.loads(sidecar.readline())


def test_a_schema_1_sidecar_is_stale_until_rewritten(tmp_path, monkeypatch):
    import repro.store.search as store_search

    argument = Argument("legacy")
    argument.add_nodes([
        Node("G1", NodeType.GOAL, "relief relief valve"),
        Node("G2", NodeType.GOAL, "relief valve valve valve"),
        Node("Sn1", NodeType.SOLUTION, "overpressure test of the valve"),
    ])
    argument.add_link("G1", "Sn1", LinkKind.SUPPORTED_BY)
    monkeypatch.setattr(
        store_search, "_sidecar_records",
        _schema_1_records(store_search._sidecar_records),
    )
    argument.save(tmp_path, search_index=True)
    monkeypatch.undo()
    assert _header(tmp_path)["search_schema"] == 1

    # Readers scan, with the same hits a current sidecar gives.
    stored = StoredArgument(tmp_path)
    assert load_search_index(stored) is None
    for query in ("valve", "relief valve", "press"):
        assert search(stored, query) == search(argument, query)
        assert search(stored, query) == reference_search(argument, query)

    # casefsck calls it stale (a note), naming the schema and the fix.
    report = fsck_store(tmp_path)
    notes = [
        finding.detail for finding in report.findings
        if finding.severity == FSCK_NOTE and "search" in finding.detail
    ]
    assert len(notes) == 1, report.render()
    assert "search schema 1" in notes[0]
    assert "build_search_index" in notes[0]
    assert report.ok and not report.recoverable, report.render()

    # compact() and build_search_index write the current schema.
    argument.add_node(Node("G3", NodeType.GOAL, "valve relief relief"))
    argument.save(tmp_path, journal=True)
    StoredArgument(tmp_path).compact()
    assert _header(tmp_path)["search_schema"] == SEARCH_SCHEMA_VERSION == 2
    compacted = StoredArgument(tmp_path)
    assert load_search_index(compacted) is not None
    assert search(compacted, "relief") == reference_search(argument, "relief")

    rebuilt_dir = tmp_path / "rebuilt"
    monkeypatch.setattr(
        store_search, "_sidecar_records",
        _schema_1_records(store_search._sidecar_records),
    )
    argument.save(rebuilt_dir, search_index=True)
    monkeypatch.undo()
    build_search_index(StoredArgument(rebuilt_dir))
    assert _header(rebuilt_dir)["search_schema"] == 2
    assert load_search_index(StoredArgument(rebuilt_dir)) is not None
    assert not [
        finding for finding in fsck_store(rebuilt_dir).findings
        if "search" in finding.detail
    ]


# -- scores independent of the hash seed --------------------------------------

_SEEDED_SEARCH = """
import json
from repro.core.argument import Argument
from repro.core.nodes import Node, NodeType
from repro.core.search import search

words = ["relief", "valve", "weld", "porosity"]
argument = Argument("seeded")
argument.add_nodes(
    Node(f"G{i}", NodeType.GOAL, " ".join(
        words[(i + j) % 4] for j in range(1 + i % 7)
    ))
    for i in range(40)
)
hits = search(argument, "relief valve weld porosity", limit=40)
print(json.dumps([(h.identifier, h.score, h.matched_terms) for h in hits]))
"""


def test_scores_do_not_depend_on_the_hash_seed():
    source = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
        done = subprocess.run(
            [sys.executable, "-c", _SEEDED_SEARCH],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])) == 40
