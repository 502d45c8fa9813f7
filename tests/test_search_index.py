"""The persisted search-index sidecar and the ranked search built on it.

The sidecar is *derived data* under a strict contract: candidates it
returns are verified, never trusted (trigram supersets are checked
against the actual text before they become exact answers); a damaged
or stale sidecar degrades to the streaming scan rather than changing
any result; ``save(journal=True)`` must leave the sidecar file
untouched and patch readers forward in O(delta); and ``compact()``
rebuilds it byte-identically to a clean indexed save.  This module
pins each clause, plus the tokenizer edges every layer shares and the
query-biased summaries hits render through.
"""

from __future__ import annotations

import pytest

from conftest import store_files
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.core.query import (
    ArgumentIndex,
    select,
    text_contains,
)
from repro.core.search import (
    SearchHit,
    query_biased_summary,
    search,
    tokenize,
    trigrams,
)
from repro.store import CaseCorpus, StoredArgument
from repro.store.search import (
    SEARCH_INDEX_KEY,
    StoreSearchIndex,
    load_search_index,
)

pytestmark = [pytest.mark.store, pytest.mark.search]


def _argument(name: str = "search-subject") -> Argument:
    argument = Argument(name)
    argument.add_nodes([
        Node("G1", NodeType.GOAL,
             "The pressure relief system is acceptably safe"),
        Node("S1", NodeType.STRATEGY,
             "Argue over each overpressure hazard"),
        Node("G2", NodeType.GOAL,
             "Overpressure hazard H1 is mitigated by the relief valve"),
        Node("Sn1", NodeType.SOLUTION,
             "Weld inspection report WR-7: no porosity found"),
        Node("C1", NodeType.CONTEXT,
             "Plant operating pressure never exceeds 11 bar"),
    ])
    argument.add_links([
        ("G1", "S1", LinkKind.SUPPORTED_BY),
        ("S1", "G2", LinkKind.SUPPORTED_BY),
        ("G2", "Sn1", LinkKind.SUPPORTED_BY),
        ("G1", "C1", LinkKind.IN_CONTEXT_OF),
    ])
    return argument


@pytest.fixture
def indexed_dir(tmp_path):
    directory = tmp_path / "indexed.store"
    _argument().save(directory, search_index=True)
    return directory


# -- the shared tokenizer -----------------------------------------------------


class TestTokenizer:
    def test_tokens_are_lowercased_alphanumeric_runs(self):
        assert tokenize("Weld report WR-7: no porosity!") == \
            ["weld", "report", "wr", "7", "no", "porosity"]

    def test_empty_and_punctuation_only(self):
        assert tokenize("") == []
        assert tokenize("—…·!?") == []

    def test_repeated_tokens_kept_in_order(self):
        assert tokenize("risk, risk, RISK") == ["risk"] * 3

    def test_trigrams_cover_token_boundaries(self):
        grams = trigrams("Relief Valve")
        assert "f v" in grams, "space-spanning grams must be indexed"
        assert "rel" in grams and "lve" in grams

    def test_trigrams_of_short_text_are_empty(self):
        assert trigrams("ab") == set()
        assert trigrams("abc") == {"abc"}


# -- candidates are verified, never trusted -----------------------------------


class TestVerifiedCandidates:
    def test_live_trigram_superset_is_not_the_answer(self):
        # Both texts carry every trigram of "abcd"; only one contains it.
        argument = Argument("grams")
        argument.add_nodes([
            Node("near", NodeType.GOAL, "abc then xbcd appear apart"),
            Node("true", NodeType.GOAL, "the xabcdx token is here"),
        ])
        index = ArgumentIndex(argument)
        index.text_postings()
        superset = index.grams_superset("abcd")
        assert superset == {"near", "true"}, "superset holds both"
        assert index.contains_candidates("abcd") == {"true"}, (
            "candidates must be verified against the actual text"
        )
        assert [n.identifier for n in
                select(argument, text_contains("abcd"))] == ["true"]

    def test_stored_sidecar_candidates_are_verified(self, tmp_path):
        argument = Argument("grams-stored")
        argument.add_nodes([
            Node("near", NodeType.GOAL, "abc then xbcd appear apart"),
            Node("true", NodeType.GOAL, "the xabcdx token is here"),
        ])
        directory = tmp_path / "grams.store"
        argument.save(directory, search_index=True)
        stored = StoredArgument(directory)
        index = load_search_index(stored)
        assert index is not None
        assert index.grams_superset("abcd") == {"near", "true"}
        assert index.contains_candidates("abcd") == {"true"}
        assert [n.identifier for n in
                select(stored, text_contains("abcd"))] == ["true"]

    def test_short_needles_fall_back_to_exact_scans(self, indexed_dir):
        # Under 3 chars no trigram exists; both layers must still answer.
        stored = StoredArgument(indexed_dir)
        assert load_search_index(stored).contains_candidates("h1") is None
        argument = _argument()
        for subject in (argument, stored):
            got = sorted(
                n.identifier
                for n in select(subject, text_contains("h1"))
            )
            naive = sorted(
                n.identifier
                for n in argument.nodes
                if "h1" in n.text.lower()
            )
            assert got == naive

    def test_case_sensitive_plan_keeps_the_predicate(self, indexed_dir):
        stored = StoredArgument(indexed_dir)
        # "overpressure" occurs folded in S1 and capitalised in G2.
        folded = {n.identifier
                  for n in select(stored, text_contains("overpressure"))}
        assert folded == {"S1", "G2"}
        sensitive = {
            n.identifier
            for n in select(stored, text_contains("Overpressure", True))
        }
        assert sensitive == {"G2"}


# -- O(delta): journal appends never rewrite the sidecar ----------------------


class TestJournalPatching:
    def test_append_patches_in_memory_without_touching_the_file(
        self, tmp_path
    ):
        argument = Argument("delta")
        argument.add_nodes(
            Node(f"G{i}", NodeType.GOAL, f"Claim {i} holds under load")
            for i in range(300)
        )
        directory = tmp_path / "delta.store"
        argument.save(directory, search_index=True)
        stored = StoredArgument(directory)
        index = load_search_index(stored)
        assert index is not None
        assert index.nodes_indexed == 0, "a clean load indexes nothing"
        sidecar_name = stored.manifest[SEARCH_INDEX_KEY]
        sidecar_bytes = (directory / sidecar_name).read_bytes()

        argument.add_node(
            Node("G_new", NodeType.GOAL, "A journaled spillway claim")
        )
        argument.add_link("G0", "G_new", LinkKind.SUPPORTED_BY)
        argument.replace_node(
            argument.node("G1").with_text("Claim 1 holds when amended")
        )
        argument.save(directory, journal=True)

        stored.refresh()
        patched = load_search_index(stored)
        assert patched is index, "the cached index is patched, not rebuilt"
        # 1 added + 1 replaced (old out, new in counts per node touched);
        # nowhere near the 300 nodes a rebuild would re-index.
        assert 0 < patched.nodes_indexed <= 4
        assert stored.manifest[SEARCH_INDEX_KEY] == sidecar_name, (
            "a journal append must not re-seal the sidecar"
        )
        assert (directory / sidecar_name).read_bytes() == sidecar_bytes
        assert {n.identifier
                for n in select(stored, text_contains("spillway"))} == \
            {"G_new"}
        assert {n.identifier
                for n in select(stored, text_contains("amended"))} == {"G1"}
        rebuilt = StoreSearchIndex.build(StoredArgument(directory))
        assert patched.canonical() == rebuilt.canonical()


# -- degradation and recovery -------------------------------------------------


class TestTornSidecar:
    def _truncate_sidecar(self, directory) -> str:
        name = StoredArgument(directory).manifest[SEARCH_INDEX_KEY]
        data = (directory / name).read_bytes()
        (directory / name).write_bytes(data[: len(data) // 2])
        return name

    def test_damaged_sidecar_degrades_to_the_scan(self, indexed_dir):
        self._truncate_sidecar(indexed_dir)
        stored = StoredArgument(indexed_dir)
        assert load_search_index(stored) is None, (
            "a torn sidecar must not load"
        )
        # Planner queries and ranked search still answer, off the scan.
        assert {n.identifier
                for n in select(stored, text_contains("porosity"))} == \
            {"Sn1"}
        hits = search(stored, "porosity", neighbourhood=0)
        assert [hit.identifier for hit in hits] == ["Sn1"]

    def test_missing_sidecar_file_degrades_to_the_scan(self, indexed_dir):
        name = StoredArgument(indexed_dir).manifest[SEARCH_INDEX_KEY]
        (indexed_dir / name).unlink()
        stored = StoredArgument(indexed_dir)
        assert load_search_index(stored) is None
        assert {n.identifier
                for n in select(stored, text_contains("relief valve"))} == \
            {"G2"}

    def test_a_damaged_sidecar_is_read_once_per_handle(
        self, indexed_dir, tmp_path, monkeypatch
    ):
        name = self._truncate_sidecar(indexed_dir)
        plain = tmp_path / "plain.store"
        _argument().save(plain)
        query = "porosity relief valve"

        def ranked(stored):
            return [(hit.identifier, hit.score) for hit in search(
                stored, query, neighbourhood=0
            )]

        expected = ranked(StoredArgument(plain))
        assert expected
        sidecar_reads = []
        stream_shard = StoredArgument._stream_shard

        def counting(stored, filename, *args, **kwargs):
            if filename == name:
                sidecar_reads.append(filename)
            return stream_shard(stored, filename, *args, **kwargs)

        monkeypatch.setattr(StoredArgument, "_stream_shard", counting)
        stored = StoredArgument(indexed_dir)
        for _ in range(5):
            assert ranked(stored) == expected
        assert len(sidecar_reads) == 1, (
            "a failed sidecar verdict must hold for the handle"
        )
        # A refresh tries again: here the sidecar was rebuilt under its
        # own content-addressed name, so the index now loads.
        StoredArgument(indexed_dir).build_search_index()
        assert StoredArgument(indexed_dir).manifest[SEARCH_INDEX_KEY] == name
        stored.refresh()
        assert ranked(stored) == expected
        assert len(sidecar_reads) == 2
        assert load_search_index(stored) is not None

    def test_rebuild_repairs_a_torn_sidecar(self, indexed_dir):
        old = self._truncate_sidecar(indexed_dir)
        stored = StoredArgument(indexed_dir)
        stored.build_search_index()
        fresh = stored.manifest[SEARCH_INDEX_KEY]
        assert fresh != old or (indexed_dir / fresh).exists()
        index = load_search_index(stored)
        assert index is not None
        assert index.contains_candidates("porosity") == {"Sn1"}


# -- compaction rebuilds byte-identically -------------------------------------


class TestCompaction:
    def test_compacted_store_equals_a_clean_indexed_save(self, tmp_path):
        argument = _argument("compact-me")
        journaled = tmp_path / "journaled.store"
        argument.save(journaled, search_index=True)
        argument.add_node(
            Node("Sn2", NodeType.SOLUTION, "Hydrostatic test record HT-2")
        )
        argument.add_link("G2", "Sn2", LinkKind.SUPPORTED_BY)
        argument.save(journaled, journal=True)
        handle = StoredArgument(journaled)
        patched = load_search_index(handle)
        handle.compact()
        handle.gc()
        reference = tmp_path / "reference.store"
        argument.save(reference, search_index=True)
        assert store_files(journaled) == store_files(reference), (
            "compaction must rebuild the sidecar byte-identically"
        )
        rebuilt = load_search_index(StoredArgument(journaled))
        assert rebuilt is not None
        assert rebuilt.canonical() == patched.canonical()


# -- layered postings: a shared parsed base under a per-handle delta --------


def _journal_walk(argument: Argument, step: int) -> None:
    """One edit of a walk that adds, retexts, retypes and removes.

    Its texts repeat tokens, so the layered repeat counts move too."""
    if step % 5 == 4 and f"W{step - 4}" in argument:
        argument.remove_node(f"W{step - 4}")
    elif step % 5 == 2 and f"W{step - 2}" in argument:
        old = argument.node(f"W{step - 2}")
        argument.replace_node(
            old.with_text(f"Amended spillway note {step}: spillway")
        )
    elif step % 5 == 3 and "Sn1" in argument:
        # A retype and back keeps the text: the postings must not move.
        old = argument.node("Sn1")
        argument.replace_node(Node(old.identifier, NodeType.GOAL, old.text))
        argument.replace_node(old)
    else:
        argument.add_node(Node(
            f"W{step}", NodeType.SOLUTION,
            f"Weld inspection log {step}: porosity within relief limits, "
            "porosity noted",
        ))
        argument.add_link("G2", f"W{step}", LinkKind.SUPPORTED_BY)
    if step == 6:
        argument.remove_node("C1")  # a base node leaves the postings
    if step == 8:
        argument.add_node(Node(
            "C1", NodeType.CONTEXT, "Plant pressure, pressure never 9 bar",
        ))


class TestLayeredPostings:
    def test_every_generation_of_a_journal_walk_equals_a_rebuild(
        self, tmp_path
    ):
        argument = _argument()
        directory = tmp_path / "walk.store"
        argument.save(directory, search_index=True)
        editor = StoredArgument(directory)
        load_search_index(editor)
        previous = editor
        for step in range(14):
            _journal_walk(argument, step)
            argument.save(directory, journal=True)
            assert editor.refresh() == "journal", step
            snapshot = StoredArgument(directory)
            snapshot.adopt_base_caches(previous)
            previous = snapshot
            rebuilt = StoreSearchIndex.build(StoredArgument(directory))
            for handle in (editor, snapshot):
                index = load_search_index(handle)
                assert index is not None, step
                assert index.canonical() == rebuilt.canonical(), (
                    f"step {step}: layered postings diverged from a "
                    "rebuild"
                )
            assert load_search_index(snapshot).canonical() == (
                ArgumentIndex(argument).text_postings().canonical()
            )

    def test_an_older_snapshot_keeps_its_results(self, indexed_dir):
        argument = StoredArgument(indexed_dir).load()
        older = StoredArgument(indexed_dir)
        queries = ("porosity", "relief valve", "spillway")

        def answers(handle: StoredArgument) -> tuple:
            return (
                load_search_index(handle).canonical(),
                [
                    [(hit.identifier, hit.score)
                     for hit in search(handle, query)]
                    for query in queries
                ],
                [
                    [node.identifier
                     for node in select(handle, text_contains(query))]
                    for query in queries
                ],
            )

        before = answers(older)
        held = load_search_index(older)
        previous = older
        for step in range(6):
            _journal_walk(argument, step)
            argument.save(indexed_dir, journal=True)
            newer = StoredArgument(indexed_dir)
            assert newer.adopt_base_caches(previous)
            answers(newer)
            previous = newer
            assert answers(older) == before, (
                f"step {step}: a newer snapshot's patch leaked into an "
                "older pinned one"
            )
            assert held.canonical() == before[0], step
        assert answers(previous) != before, "the walk changed the results"

    def test_adopted_handles_share_one_parsed_base(
        self, indexed_dir, monkeypatch
    ):
        import repro.store.search as store_search

        parses: list[str] = []
        original = store_search._parse_sidecar

        def counting_parse(stored, name):
            parses.append(name)
            return original(stored, name)

        monkeypatch.setattr(store_search, "_parse_sidecar", counting_parse)
        argument = StoredArgument(indexed_dir).load()
        first = StoredArgument(indexed_dir)
        base = load_search_index(first)._generation.base
        frozen = base.canonical()
        previous = first
        for step in range(8):
            _journal_walk(argument, step)
            argument.save(indexed_dir, journal=True)
            snapshot = StoredArgument(indexed_dir)
            snapshot.adopt_base_caches(previous)
            index = load_search_index(snapshot)
            assert index._generation.base is base, step
            assert search(snapshot, "porosity")
            previous = snapshot
        assert len(parses) == 1, "one parse per base generation"
        assert base.canonical() == frozen, "the shared base is never written"
        previous.compact()
        compacted = StoredArgument(indexed_dir)
        compacted.adopt_base_caches(previous)
        assert load_search_index(compacted)._generation.base is not base
        assert len(parses) == 2, "a compaction rotates the base: one parse"


# -- a superseded handle is freed by refcount, not by a full GC --------------


@pytest.fixture
def no_gc():
    import gc

    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestHandlesFreedByRefcount:
    @pytest.mark.parametrize("read", ["search", "select", "load"])
    def test_a_handle_that_served_a_search_is_freed(
        self, indexed_dir, no_gc, read
    ):
        import weakref

        argument = StoredArgument(indexed_dir).load()
        argument.add_node(Node("Sn2", NodeType.SOLUTION, "Porosity retest"))
        argument.save(indexed_dir, journal=True)
        handle = StoredArgument(indexed_dir)
        assert handle.journal_segments
        view = None
        if read == "search":
            assert search(handle, "porosity")
        elif read == "select":
            assert select(handle, text_contains("porosity"))
        else:
            view = load_search_index(handle)
            assert view.contains_candidates("porosity") == {"Sn1", "Sn2"}
        successor = StoredArgument(indexed_dir)
        successor.adopt_base_caches(handle)
        alive = weakref.ref(handle)
        del handle, view
        assert alive() is None, (
            f"a handle that served {read} must die with its last reference"
        )
        assert search(successor, "porosity")


# -- ranked search and summaries ----------------------------------------------


class TestRankedSearch:
    def test_hits_rank_rare_terms_first_and_mark_snippets(self):
        argument = _argument()
        hits = search(argument, "porosity inspection hazard")
        assert hits and hits[0].identifier == "Sn1", (
            "the node holding the rare terms must lead"
        )
        assert "[porosity]" in hits[0].snippet
        assert hits[0].matched_terms == ("inspection", "porosity")

    def test_neighbourhood_renders_supporting_children(self):
        argument = _argument()
        (hit,) = [h for h in search(argument, "overpressure hazard")
                  if h.identifier == "S1"]
        assert hit.neighbourhood, "S1's supporting goal must render"
        assert hit.neighbourhood[0].startswith("G2:")
        assert "└─" in hit.summary

    def test_limit_and_empty_query(self):
        argument = _argument()
        assert search(argument, "") == []
        assert search(argument, "—") == []
        assert len(search(argument, "pressure hazard", limit=1)) == 1

    def test_live_stored_and_scan_agree(self, indexed_dir):
        argument = _argument()
        live = search(argument, "relief valve inspection")
        stored = search(StoredArgument(indexed_dir),
                        "relief valve inspection")
        assert [(h.identifier, h.score) for h in live] == \
            [(h.identifier, h.score) for h in stored]
        self_scan_dir = indexed_dir
        name = StoredArgument(self_scan_dir).manifest[SEARCH_INDEX_KEY]
        (self_scan_dir / name).unlink()
        scanned = search(StoredArgument(self_scan_dir),
                         "relief valve inspection")
        assert [(h.identifier, h.score) for h in live] == \
            [(h.identifier, h.score) for h in scanned]

    def test_query_biased_summary_windows_to_the_dense_cluster(self):
        filler = "routine clause " * 30
        text = (filler + "the relief valve withstood overpressure "
                + filler)
        snippet = query_biased_summary(
            text, ("relief", "overpressure"), width=80
        )
        assert "[relief]" in snippet and "[overpressure]" in snippet
        assert snippet.startswith("…") and snippet.endswith("…")

    def test_query_biased_summary_head_when_no_terms_occur(self):
        text = "word " * 100
        snippet = query_biased_summary(text, ("absent",), width=40)
        assert snippet.endswith("…") and len(snippet) <= 40

    def test_search_rejects_unknown_subjects(self):
        with pytest.raises(TypeError):
            search(object(), "anything")


# -- the corpus ---------------------------------------------------------------


class TestCaseCorpus:
    @pytest.fixture
    def corpus_root(self, tmp_path):
        for index, name in enumerate(("alpha", "beta", "gamma")):
            argument = _argument(f"case-{name}")
            argument.add_node(Node(
                "Sn_extra", NodeType.SOLUTION,
                f"Audit {index}: actuator recall closed" if index == 1
                else f"Audit {index}: routine review",
            ))
            argument.add_link("G1", "Sn_extra", LinkKind.SUPPORTED_BY)
            argument.save(
                tmp_path / f"{name}.store",
                search_index=(name != "beta"),
            )
        (tmp_path / "not-a-store").mkdir()
        return tmp_path

    def test_store_names_skip_non_stores(self, corpus_root):
        corpus = CaseCorpus(corpus_root)
        assert corpus.store_names() == [
            "alpha.store", "beta.store", "gamma.store",
        ]
        assert len(corpus) == 3

    def test_search_labels_hits_with_their_store(self, corpus_root):
        corpus = CaseCorpus(corpus_root)
        hits = search(corpus, "actuator recall")
        assert hits and hits[0].store == "beta.store"
        assert hits[0].identifier == "Sn_extra"
        assert hits[0].summary.startswith("beta.store:Sn_extra")
        common = corpus.search("porosity", limit=100)
        assert {hit.store for hit in common} == {
            "alpha.store", "beta.store", "gamma.store",
        }

    def test_ensure_indexed_builds_missing_sidecars(self, corpus_root):
        corpus = CaseCorpus(corpus_root)
        assert load_search_index(corpus.open("beta.store")) is None
        corpus.ensure_indexed()
        corpus.refresh()
        for name in corpus.store_names():
            assert load_search_index(corpus.open(name)) is not None
