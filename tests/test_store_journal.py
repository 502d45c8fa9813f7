"""Append-journal persistence: O(delta) edit saves over the sharded store.

Covers the journal loop end to end: ``Argument.save(journal=True)``
appending mutation deltas as sealed segments, every reader access path
replaying the journal transparently (load, streaming, per-shard
iteration, ``node``/``subtree``/``len``/``in``), ``compact()`` folding
segments back into shards byte-identical to a clean save, ``gc()``
sweeping orphans, torn-write crash semantics with
``ignore_torn_tail=True`` recovery, and the store-backed incremental
checker (``IncrementalChecker`` over a stored handle) re-checking the persisted
case from its journal deltas without hydration.
"""

from __future__ import annotations

import gzip
import json
from zlib import crc32

import pytest

from conftest import canonical_argument, check, random_argument, store_files
from repro.core.analysis import IncrementalChecker
from repro.core.argument import Argument, Link, LinkKind
from repro.core.nodes import Node, NodeType
from repro.core.wellformed import GSN_STANDARD_RULES
from repro.store import (
    StoreConflictError,
    StoreCorruptionError,
    StoredArgument,
    StoreError,
    StoreGenerationGoneError,
)
from repro.store.format import MANIFEST_NAME, journal_base
from repro.store.journal import COALESCE_AFTER, decode_op, encode_op
from repro.store.writer import _ShardWriter

pytestmark = pytest.mark.journal


def gsn_argument(hazards: int = 5, name: str = "journal-case") -> Argument:
    """A small well-formed GSN case: root, strategy, hazards, solutions."""
    argument = Argument(name)
    argument.add_node(Node("G0", NodeType.GOAL, "The system is safe"))
    argument.add_node(Node("S0", NodeType.STRATEGY, "Argue over hazards"))
    argument.add_link("G0", "S0", LinkKind.SUPPORTED_BY)
    for index in range(1, hazards + 1):
        argument.add_node(Node(
            f"G{index}", NodeType.GOAL, f"Hazard {index} is managed",
        ))
        argument.add_link("S0", f"G{index}", LinkKind.SUPPORTED_BY)
        argument.add_node(Node(
            f"Sn{index}", NodeType.SOLUTION, f"Test record {index}",
        ))
        argument.add_link(f"G{index}", f"Sn{index}", LinkKind.SUPPORTED_BY)
    return argument


def edit_session(argument: Argument) -> None:
    """A representative mix of edits: add, retext, retype, churn, remove."""
    argument.add_node(Node("X1", NodeType.GOAL, "Late claim 1 holds"))
    argument.add_link("S0", "X1", LinkKind.SUPPORTED_BY)
    argument.replace_node(
        argument.node("G2").with_text("Hazard 2 is managed (revalidated)")
    )
    link = Link("S0", "G1", LinkKind.SUPPORTED_BY)
    argument.remove_link(link)
    argument.add_link(link.source, link.target, link.kind)
    argument.remove_node("Sn3")




class TestJournalAppend:
    def test_first_save_is_full_then_edits_append(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        manifest = argument.save(store, journal=True)
        assert "journal" not in manifest, "first save must be a full write"
        edit_session(argument)
        manifest = argument.save(store, journal=True)
        assert len(manifest["journal"]) == 1
        assert manifest["journal_schema"] == 1
        assert StoredArgument(store).load() == argument

    def test_append_rewrites_no_base_shard(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        before_manifest = argument.save(store)
        base_files = {
            name: (store / name).read_bytes()
            for name in before_manifest["shards"]
        }
        edit_session(argument)
        after_manifest = argument.save(store, journal=True)
        for name, content in base_files.items():
            assert (store / name).read_bytes() == content, (
                f"append rewrote base shard {name}"
            )
        new_files = set(after_manifest["shards"]) - set(base_files)
        assert new_files == set(after_manifest["journal"])

    def test_every_read_path_replays_the_journal(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        edit_session(argument)
        # A removed-then-readded identifier must order last, like the
        # live argument's insertion-ordered dict.
        argument.remove_node("G4")
        argument.add_node(Node(
            "G4", NodeType.GOAL, "Hazard 4 re-stated", undeveloped=True,
        ))
        argument.add_link("S0", "G4", LinkKind.SUPPORTED_BY)
        argument.save(store, journal=True)

        stored = StoredArgument(store)
        assert len(stored) == len(argument)
        assert "Sn3" not in stored and "X1" in stored
        assert [n.identifier for n in stored.iter_nodes()] == [
            n.identifier for n in argument.nodes
        ]
        assert list(stored.iter_links()) == argument.links
        assert stored.node("G2").text.endswith("(revalidated)")
        with pytest.raises(StoreError, match="Sn3"):
            stored.node("Sn3")
        # Per-shard iteration covers every record exactly once and keeps
        # the id-hash partition (parallel work units stay sound).
        from repro.store import shard_of

        seen_nodes: list[tuple[int, str]] = []
        for index in range(stored.shard_count):
            for seq, node in stored.iter_shard_nodes(index):
                assert shard_of(
                    node.identifier, stored.shard_count
                ) == index
                seen_nodes.append((seq, node.identifier))
        assert [i for _, i in sorted(seen_nodes)] == [
            n.identifier for n in argument.nodes
        ]
        seen_links = []
        for index in range(stored.shard_count):
            seen_links.extend(stored.iter_shard_links(index))
        assert [link for _, link in sorted(
            seen_links, key=lambda pair: pair[0]
        )] == argument.links
        # Partial subtree hydration sees the overlay too.
        fresh = StoredArgument(store)
        assert fresh.subtree("G4") == argument.subtree("G4")
        assert fresh.subtree("S0") == argument.subtree("S0")
        assert not fresh.hydrated

    def test_loaded_argument_continues_the_journal_session(self, tmp_path):
        store = tmp_path / "case.store"
        original = gsn_argument()
        original.save(store)
        loaded = Argument.load(store)
        loaded.add_node(Node("X9", NodeType.GOAL, "A new claim holds"))
        loaded.add_link("S0", "X9", LinkKind.SUPPORTED_BY)
        manifest = loaded.save(store, journal=True)
        assert len(manifest["journal"]) == 1, (
            "a loaded argument must append, not rewrite"
        )
        assert StoredArgument(store).load() == loaded

    def test_empty_delta_appends_nothing(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        manifest = argument.save(store, journal=True)
        assert "journal" not in manifest

    def test_streaming_wellformed_over_journal(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        edit_session(argument)
        # An unsupported goal: a violation that exists only post-journal.
        argument.add_node(Node("X2", NodeType.GOAL, "Unsupported claim holds"))
        argument.add_link("S0", "X2", LinkKind.SUPPORTED_BY)
        argument.save(store, journal=True)
        stored = StoredArgument(store)
        streamed = check(stored, mode="streaming")
        assert streamed == check(argument)
        assert streamed, "the journal edits should have introduced violations"
        assert not stored.hydrated

    def test_fallback_to_rewrite_when_log_rotated(self, tmp_path):
        class TinyLogArgument(Argument):
            MUTATION_LOG_LIMIT = 4

        store = tmp_path / "case.store"
        argument = TinyLogArgument("tiny")
        argument.add_node(Node("G0", NodeType.GOAL, "The claim holds"))
        argument.save(store)
        for index in range(1, 10):  # far past the tiny log's reach
            argument.add_node(Node(
                f"G{index}", NodeType.GOAL, f"Claim {index} holds",
            ))
        manifest = argument.save(store, journal=True)
        assert "journal" not in manifest, "a rotated log cannot append"
        assert StoredArgument(store).load() == argument

    def test_conflict_when_store_changed_behind_us(self, tmp_path):
        """A diverged store raises instead of silently rewriting —
        overwriting would lose the other writer's committed work."""
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        # Another process rewrites the directory with different content.
        other = gsn_argument(hazards=2, name="journal-case")
        other.save(store)
        argument.add_node(Node("X1", NodeType.GOAL, "Late claim holds"))
        with pytest.raises(StoreConflictError, match="force=True"):
            argument.save(store, journal=True)
        # The other writer's state survived the refused save.
        assert StoredArgument(store).load() == other
        # force=True is the deliberate overwrite: full rewrite, no append.
        manifest = argument.save(store, journal=True, force=True)
        assert "journal" not in manifest, (
            "appending onto someone else's store would corrupt it"
        )
        assert StoredArgument(store).load() == argument

    def test_conflict_on_count_neutral_external_edit(self, tmp_path):
        """Even a count-preserving edit by another handle is a conflict
        — the manifest fingerprint pins the exact generation."""
        store = tmp_path / "case.store"
        writer_a = gsn_argument()
        writer_a.save(store)
        writer_b = Argument.load(store)
        writer_b.replace_node(
            writer_b.node("G1").with_text("Hazard 1 EDITED BY B")
        )
        writer_b.save(store, journal=True)  # counts unchanged
        writer_a.add_node(Node("XA", NodeType.GOAL, "A's new claim holds"))
        with pytest.raises(StoreConflictError):
            writer_a.save(store, journal=True)
        # Reload-and-retry converges without losing either edit.
        merged = Argument.load(store)
        merged.add_node(Node("XA", NodeType.GOAL, "A's new claim holds"))
        manifest = merged.save(store, journal=True)
        assert manifest["journal"], "rebased save appends cleanly"
        final = StoredArgument(store).load()
        assert final.node("G1").text == "Hazard 1 EDITED BY B"
        assert final.node("XA").text == "A's new claim holds"

    def test_fallback_preserves_store_format(self, tmp_path):
        """A fallback rewrite must not silently convert the store."""
        class TinyLogArgument(Argument):
            MUTATION_LOG_LIMIT = 4

        store = tmp_path / "case.store"
        argument = TinyLogArgument("tiny")
        argument.add_node(Node("G0", NodeType.GOAL, "The claim holds"))
        argument.save(store, compression="gzip", shard_count=4)
        for index in range(1, 10):  # rotate the log past the baseline
            argument.add_node(Node(
                f"G{index}", NodeType.GOAL, f"Claim {index} holds",
            ))
        manifest = argument.save(store, journal=True)
        assert "journal" not in manifest, "rotated log must rewrite"
        assert manifest["shard_count"] == 4
        assert manifest["compression"] == "gzip"
        # An *explicit* format change skips the append so it takes
        # effect; appends only win when the format request matches.
        argument.add_node(Node("G10", NodeType.GOAL, "Claim 10 holds"))
        manifest = argument.save(store, journal=True, compression=None,
                                 shard_count=8)
        assert manifest["shard_count"] == 8
        assert StoredArgument(store).load() == argument

    def test_journal_fallback_refuses_to_flatten_a_case(self, tmp_path):
        """An argument-only rewrite must not destroy a case's evidence."""
        from repro.core.case import AssuranceCase
        from repro.core.evidence import EvidenceItem, EvidenceKind

        class TinyLogArgument(Argument):
            MUTATION_LOG_LIMIT = 4

        store = tmp_path / "case.store"
        argument = TinyLogArgument("case-argument")
        argument.add_node(Node("G0", NodeType.GOAL, "The claim holds"))
        argument.add_node(Node("Sn0", NodeType.SOLUTION, "Test record"))
        argument.add_link("G0", "Sn0", LinkKind.SUPPORTED_BY)
        case = AssuranceCase("case", argument)
        case.add_evidence(
            EvidenceItem("ev1", EvidenceKind.TESTING, "test results"),
            cited_by="Sn0",
        )
        case.save(store)  # records the journal baseline itself
        # Appends preserve the case's evidence and citations.
        argument.replace_node(
            argument.node("G0").with_text("The claim holds (rev)")
        )
        manifest = argument.save(store, journal=True)
        assert manifest["kind"] == "case" and manifest["journal"]
        assert AssuranceCase.load(store).evidence
        # A fallback (rotated log) must refuse, loudly, instead of
        # rewriting the case as a bare argument.
        for index in range(1, 10):
            argument.add_node(Node(
                f"X{index}", NodeType.GOAL, f"Claim {index} holds",
            ))
        with pytest.raises(StoreError, match="evidence"):
            argument.save(store, journal=True)
        loaded = AssuranceCase.load(store)
        assert loaded.evidence, "the case must have survived intact"

    def test_gzip_store_journals_and_compacts(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store, compression="gzip")
        edit_session(argument)
        manifest = argument.save(store, journal=True)
        (segment,) = manifest["journal"]
        assert segment.endswith(".jsonl.gz")
        with gzip.open(store / segment) as handle:
            records = [json.loads(line) for line in handle]
        assert {record["op"] for record in records} <= {
            "add_node", "remove_node", "replace_node",
            "add_link", "remove_link",
        }
        assert StoredArgument(store).load() == argument
        compacted = StoredArgument(store)
        compacted.compact()
        compacted.gc()  # deferred sweep: reclaim the superseded journal
        fresh = tmp_path / "fresh.store"
        argument.save(fresh, compression="gzip")
        assert store_files(store) == store_files(fresh)


class TestCompactAndGc:
    def test_compact_is_byte_stable_and_atomic(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        for _ in range(3):
            edit_session_args = argument
            edit_session(edit_session_args)
            argument.remove_node("X1")  # keep edit_session re-runnable
            argument.add_node(Node("Sn3", NodeType.SOLUTION, "Restored"))
            argument.add_link("G3", "Sn3", LinkKind.SUPPORTED_BY)
            argument.save(store, journal=True)
        stored = StoredArgument(store)
        assert stored.journal_segments
        manifest = stored.compact()
        assert "journal" not in manifest
        assert not StoredArgument(store).journal_segments
        stored.gc()  # compaction defers its sweep to gc (pinned readers)
        fresh = tmp_path / "fresh.store"
        argument.save(fresh)
        assert store_files(store) == store_files(fresh), (
            "compaction + gc must reproduce a clean save byte-for-byte"
        )
        assert StoredArgument(store).load() == argument

    def test_compact_without_journal_is_noop(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        before = store_files(store)
        StoredArgument(store).compact()
        assert store_files(store) == before

    def test_randomized_journal_roundtrip(self, tmp_path):
        """Random arguments + random edits: replay ≡ live ≡ compacted."""
        import random

        store = tmp_path / "case.store"
        argument = random_argument(0xD1CE, 40, name="random-journal")
        argument.save(store)
        rng = random.Random(0xD1CE)
        identifiers = [node.identifier for node in argument.nodes]
        for round_index in range(5):
            for _ in range(6):
                roll = rng.random()
                if roll < 0.4:
                    fresh_id = f"j{round_index}-{rng.randrange(1000)}"
                    if fresh_id not in argument:
                        argument.add_node(Node(
                            fresh_id, NodeType.GOAL,
                            f"Claim {fresh_id} holds",
                        ))
                        identifiers.append(fresh_id)
                elif roll < 0.6 and argument.links:
                    argument.remove_link(rng.choice(argument.links))
                elif roll < 0.8:
                    target = rng.choice(identifiers)
                    if target in argument:
                        argument.replace_node(
                            argument.node(target).with_text(
                                f"Rewritten {target} holds"
                            )
                        )
                else:
                    source, target = rng.sample(identifiers, 2)
                    link = Link(source, target, LinkKind.SUPPORTED_BY)
                    if (
                        source in argument and target in argument
                        and source != target
                        and not argument.has_link(link)
                    ):
                        argument.add_link(source, target, link.kind)
            argument.save(store, journal=True)
            replayed = StoredArgument(store).load()
            assert canonical_argument(replayed) == \
                canonical_argument(argument)
        compacted = StoredArgument(store)
        compacted.compact()
        compacted.gc()
        fresh = tmp_path / "fresh.store"
        argument.save(fresh)
        assert store_files(store) == store_files(fresh)

    def test_compact_reset_journal_regrowth_rechecks_correctly(
        self, tmp_path
    ):
        """Same-length journals across a compaction must not be conflated.

        A net-zero journal compacts into byte-identical base shards
        (content-addressed names!), so only the consumed segment names
        tell the checker its position is from a dead generation.
        """
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        # Net-zero delta: add then remove — two ops, identical base.
        argument.add_node(Node("T0", NodeType.GOAL, "Transient claim"))
        argument.remove_node("T0")
        argument.save(store, journal=True)
        checker = IncrementalChecker(
            StoredArgument(store), GSN_STANDARD_RULES.rules
        )
        checker.check()
        StoredArgument(store).compact()  # base bytes unchanged
        # The compaction moved the manifest past our save baseline; the
        # argument's state still equals the store's, so re-pin rather
        # than pay the conflict (a plain reload would also do).
        argument.mark_persisted(store)
        # A regrown journal of >= the consumed length, different records.
        argument.add_node(Node("Y0", NodeType.GOAL, "New claim 0 holds"))
        argument.add_node(Node("Y1", NodeType.GOAL, "New claim 1 holds"))
        argument.save(store, journal=True)
        assert checker.check() == check(argument)

    def test_case_load_survives_journal_removing_a_cited_solution(
        self, tmp_path
    ):
        """Citations of a journal-removed solution drop; the case loads."""
        from repro.core.case import AssuranceCase
        from repro.core.evidence import EvidenceItem, EvidenceKind

        store = tmp_path / "case.store"
        argument = gsn_argument(hazards=3)
        case = AssuranceCase("case", argument)
        for index in (1, 2, 3):
            case.add_evidence(
                EvidenceItem(
                    f"ev{index}", EvidenceKind.TESTING, f"results {index}"
                ),
                cited_by=f"Sn{index}",
            )
        case.save(store)
        argument.remove_node("Sn1")  # takes its citation with it
        argument.replace_node(Node(
            "Sn2", NodeType.GOAL, "Retyped away from solution",
        ))
        argument.save(store, journal=True)
        loaded = AssuranceCase.load(store)
        assert loaded.argument == argument
        assert "ev1" in loaded.evidence and "ev2" in loaded.evidence
        assert not loaded.citations("Sn2")
        assert loaded.citing_solutions("ev1") == []
        # Compaction reconciles the citations shard, so the folded
        # (journal-less) store still loads as a case.
        StoredArgument(store).compact()
        compacted = AssuranceCase.load(store)
        assert compacted.argument == argument
        assert compacted.citing_solutions("ev1") == []
        assert "ev1" in compacted.evidence
        # The surviving citation (Sn3 -> ev3) rides through intact.
        assert [item.identifier for item in compacted.citations("Sn3")] \
            == ["ev3"]

    def test_gc_sweeps_orphans_only(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        # Orphans of every stripe: a sealed shard no manifest references
        # (interrupted save), a sealed journal segment whose manifest
        # commit never happened (interrupted append), stray tmp files.
        (store / "nodes-0001-deadbeef.jsonl").write_bytes(b"{}\n")
        (store / "journal-0099-0badf00d.jsonl").write_bytes(b"{}\n")
        (store / "links-0002.tmp").write_bytes(b"")
        (store / (MANIFEST_NAME + ".tmp")).write_bytes(b"{}")
        # Files the store never wrote must survive — including ones
        # that merely *resemble* store names (the writer always emits
        # ordinal+checksum forms; bare or partial names are not ours).
        foreign = (
            "NOTES.txt", "nodes.jsonl", "links.tmp",
            "journal-deadbeef.jsonl", "evidence.jsonl.gz",
        )
        for name in foreign:
            (store / name).write_text("do not delete")
        stored = StoredArgument(store)
        removed = stored.gc()
        assert removed == [
            "journal-0099-0badf00d.jsonl",
            "links-0002.tmp",
            MANIFEST_NAME + ".tmp",
            "nodes-0001-deadbeef.jsonl",
        ]
        for name in foreign:
            assert (store / name).exists(), name
            (store / name).unlink()

    def test_gc_resyncs_to_the_live_manifest(self, tmp_path):
        """A stale handle must not sweep the live generation's shards."""
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        stale = StoredArgument(store)
        argument.add_node(Node("X1", NodeType.GOAL, "New claim holds"))
        argument.save(store)  # full rewrite: fresh content-addressed names
        removed = stale.gc()
        assert StoredArgument(store).load() == argument, (
            "gc from a stale handle destroyed the live store"
        )
        for name in removed:
            assert name not in StoredArgument(store).manifest["shards"]
        assert StoredArgument(store).load() == argument
        # Everything still referenced stayed put: gc again is a no-op.
        assert StoredArgument(store).gc() == []

    def test_a_read_of_a_swept_generation_is_a_conflict(self, tmp_path):
        """A handle opened before an append + compact + gc elsewhere, and
        read only afterwards, meets files gc reclaimed: that is a
        conflict naming both generations, not corruption."""
        store = tmp_path / "case.store"
        gsn_argument().save(store)
        reader = StoredArgument(store)  # opened; nothing read yet
        editor = Argument.load(store)
        editor.add_node(Node("X1", NodeType.GOAL, "New claim holds"))
        editor.save(store, journal=True)
        live = StoredArgument(store)
        live.compact()
        assert live.gc()
        with pytest.raises(StoreGenerationGoneError) as excinfo:
            reader.search("claim")
        assert isinstance(excinfo.value, StoreConflictError)
        assert not isinstance(excinfo.value, StoreCorruptionError)
        message = str(excinfo.value)
        assert str(reader.generation) in message
        assert str(live.generation) in message
        assert reader.refresh() != "unchanged"
        assert [hit.identifier for hit in reader.search("claim")] == [
            hit.identifier for hit in live.search("claim")
        ]

    def test_a_file_missing_from_the_live_generation_is_corruption(
        self, tmp_path
    ):
        store = tmp_path / "case.store"
        gsn_argument().save(store)
        handle = StoredArgument(store)
        (victim,) = handle.manifest["node_shards"][:1]
        (store / victim).unlink()
        with pytest.raises(StoreCorruptionError, match="shard file is missing"):
            handle.load()


class TestTornTail:
    def _store_with_two_appends(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        argument.add_node(Node("X1", NodeType.GOAL, "First edit holds"))
        argument.add_link("S0", "X1", LinkKind.SUPPORTED_BY)
        argument.save(store, journal=True)
        snapshot = argument.copy()
        argument.add_node(Node("X2", NodeType.GOAL, "Second edit holds"))
        argument.add_link("S0", "X2", LinkKind.SUPPORTED_BY)
        manifest = argument.save(store, journal=True)
        return store, argument, snapshot, manifest

    def test_truncated_final_segment_names_it_and_offers_recovery(
        self, tmp_path
    ):
        store, _, _, manifest = self._store_with_two_appends(tmp_path)
        final = manifest["journal"][-1]
        content = (store / final).read_bytes()
        (store / final).write_bytes(content[:len(content) // 2])
        with pytest.raises(StoreCorruptionError, match="ignore_torn_tail"):
            StoredArgument(store).load()
        try:
            StoredArgument(store).load()
        except StoreCorruptionError as error:
            assert error.shard == final, "the error must name the segment"

    def test_ignore_torn_tail_recovers_the_prior_state(self, tmp_path):
        store, _, snapshot, manifest = self._store_with_two_appends(tmp_path)
        final = manifest["journal"][-1]
        content = (store / final).read_bytes()
        (store / final).write_bytes(content[:len(content) // 2])
        recovered = StoredArgument(store, ignore_torn_tail=True)
        assert recovered.load() == snapshot, (
            "recovery must drop exactly the torn append"
        )
        assert Argument.load(store, ignore_torn_tail=True) == snapshot
        # A recovered handle must not append on top of a dropped tail.
        with pytest.raises(StoreError, match="torn tail"):
            recovered.append_delta(
                snapshot.delta_since(0)  # any non-empty delta
            )

    def test_missing_final_segment_is_torn_too(self, tmp_path):
        store, _, snapshot, manifest = self._store_with_two_appends(tmp_path)
        (store / manifest["journal"][-1]).unlink()
        with pytest.raises(StoreCorruptionError, match="ignore_torn_tail"):
            StoredArgument(store).load()
        assert StoredArgument(
            store, ignore_torn_tail=True
        ).load() == snapshot

    def test_damaged_middle_segment_always_raises(self, tmp_path):
        store, _, _, manifest = self._store_with_two_appends(tmp_path)
        first = manifest["journal"][0]
        content = (store / first).read_bytes()
        (store / first).write_bytes(content[:len(content) // 2])
        with pytest.raises(StoreCorruptionError) as excinfo:
            StoredArgument(store, ignore_torn_tail=True).load()
        assert excinfo.value.shard == first

    def test_interrupted_append_leaves_prior_state_loadable(self, tmp_path):
        """A crash between segment seal and manifest commit is invisible."""
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        snapshot = argument.copy()
        manifest_before = (store / MANIFEST_NAME).read_bytes()
        # Reproduce the crash window: the segment seals on disk but the
        # manifest rename never happens.
        from repro.store.journal import encode_op
        from repro.store.writer import _ShardWriter

        argument.add_node(Node("X1", NodeType.GOAL, "Unreached edit holds"))
        delta = argument.persisted_delta(store)
        writer = _ShardWriter(store, "journal-0000")
        for op, payload in delta.records:
            writer.write(encode_op(op, payload))
        writer.close()
        orphan = writer.finish()
        assert (store / MANIFEST_NAME).read_bytes() == manifest_before
        assert StoredArgument(store).load() == snapshot, (
            "an interrupted append must leave the prior state loadable"
        )
        assert StoredArgument(store).gc() == [orphan]
        # Retrying the append now succeeds and reuses the ordinal.
        manifest = argument.save(store, journal=True)
        assert len(manifest["journal"]) == 1
        assert StoredArgument(store).load() == argument

    def test_parallel_check_honours_torn_tail_recovery(self, tmp_path):
        """Workers reopen the store; the recovery flag must ride along."""
        store, _, snapshot, manifest = self._store_with_two_appends(tmp_path)
        final = manifest["journal"][-1]
        content = (store / final).read_bytes()
        (store / final).write_bytes(content[:len(content) // 2])
        recovered = StoredArgument(store, ignore_torn_tail=True)
        parallel = check(
            recovered, mode="parallel", workers=2
        )
        assert parallel == check(snapshot)
        assert not recovered.hydrated

    def test_full_save_repairs_a_torn_store(self, tmp_path):
        store, argument, _, manifest = self._store_with_two_appends(tmp_path)
        final = manifest["journal"][-1]
        content = (store / final).read_bytes()
        (store / final).write_bytes(content[:len(content) // 2])
        # journal=True cannot append onto a torn tail: it falls back to
        # the full rewrite, which reconciles the store with the live
        # argument (the source of truth).
        repaired = argument.save(store, journal=True)
        assert "journal" not in repaired
        assert StoredArgument(store).load() == argument


class TestFromStore:
    def test_recheck_tracks_journal_appends_without_hydration(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument(hazards=8)
        argument.save(store)
        stored = StoredArgument(store)
        checker = IncrementalChecker(stored, GSN_STANDARD_RULES.rules)
        assert checker.check() == check(argument)
        assert checker.argument is None
        for round_index in range(6):
            argument.add_node(Node(
                f"X{round_index}", NodeType.GOAL,
                f"Late claim {round_index} holds",
            ))
            argument.add_link(
                "S0", f"X{round_index}", LinkKind.SUPPORTED_BY
            )
            if round_index % 2:
                target = argument.node(f"Sn{1 + round_index % 8}")
                argument.replace_node(Node(
                    target.identifier, NodeType.GOAL, target.text,
                ))  # retype flips link-rule verdicts
            if round_index == 3:
                argument.remove_node("X1")
            argument.save(store, journal=True)
            assert checker.check() == check(argument), (
                f"round {round_index}"
            )
        assert not stored.hydrated, (
            "store-backed incremental checking must never hydrate"
        )

    def test_refresh_decodes_only_new_segments(self, tmp_path, monkeypatch):
        """A long session's Nth re-check reads one segment, not all N."""
        import repro.store.journal as journal_module

        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        checker = IncrementalChecker(
            StoredArgument(store), GSN_STANDARD_RULES.rules
        )
        checker.check()
        decoded: list[str] = []
        original = journal_module.decode_op

        def counting_decode(record, segment):
            decoded.append(segment)
            return original(record, segment)

        monkeypatch.setattr(journal_module, "decode_op", counting_decode)
        for round_index in range(4):
            argument.add_node(Node(
                f"X{round_index}", NodeType.GOAL,
                f"Claim {round_index} holds",
            ))
            argument.save(store, journal=True)
            decoded.clear()
            assert checker.check() == check(argument)
            assert len(set(decoded)) == 1, (
                "refresh must extend the overlay with just the new "
                "segment, not re-decode the whole journal"
            )

    def test_unchanged_store_is_pure_cache_assembly(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        checker = IncrementalChecker(
            StoredArgument(store), GSN_STANDARD_RULES.rules
        )
        assert checker.check() == checker.check()

    def test_cycle_via_journal_matches_live_rendering(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        checker = IncrementalChecker(
            StoredArgument(store), GSN_STANDARD_RULES.rules
        )
        # G1 -> Sn1 exists; close a cycle back up the support chain.
        argument.replace_node(Node("Sn1", NodeType.GOAL, "Retyped claim"))
        argument.add_link("Sn1", "G0", LinkKind.SUPPORTED_BY)
        argument.save(store, journal=True)
        got = checker.check()
        want = check(argument)
        assert got == want
        assert any(v.rule == "acyclic" for v in got)
        # And removing the edge clears it incrementally.
        argument.remove_link(Link("Sn1", "G0", LinkKind.SUPPORTED_BY))
        argument.save(store, journal=True)
        assert checker.check() == check(argument)

    def test_survives_compaction_and_rewrite(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        checker = IncrementalChecker(
            StoredArgument(store), GSN_STANDARD_RULES.rules
        )
        argument.add_node(Node("X1", NodeType.GOAL, "Late claim holds"))
        argument.save(store, journal=True)
        assert checker.check() == check(argument)
        StoredArgument(store).compact()  # new base generation
        assert checker.check() == check(argument)
        argument.add_node(Node("X2", NodeType.GOAL, "Another claim holds"))
        argument.save(store)  # full rewrite
        assert checker.check() == check(argument)

    def test_rejects_a_subject_that_is_no_argument(self, tmp_path):
        with pytest.raises(TypeError, match="got PosixPath"):
            IncrementalChecker(tmp_path, GSN_STANDARD_RULES.rules)


class TestWatermark:
    """The checker's watermark is keyed on op content, not segment names:
    a coalesce keeps the op stream, so it must not force a rebuild."""

    @staticmethod
    def _grow_past_coalesce(argument: Argument, store) -> None:
        for index in range(COALESCE_AFTER + 2):
            argument.add_node(Node(
                f"X{index}", NodeType.GOAL, f"Late claim {index} holds",
            ))
            argument.add_link("S0", f"X{index}", LinkKind.SUPPORTED_BY)
            if index % 3 == 0:
                argument.add_node(Node(
                    f"E{index}", NodeType.SOLUTION, f"Evidence {index}",
                ))
                argument.add_link(
                    f"X{index}", f"E{index}", LinkKind.SUPPORTED_BY
                )
            argument.save(store, journal=True)

    @staticmethod
    def _base_shards(stored: StoredArgument) -> set:
        return set(stored.manifest["node_shards"]) | set(
            stored.manifest["link_shards"]
        )

    def test_own_handle_checker_reads_no_base_shard_across_a_coalesce(
        self, tmp_path
    ):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        stored = StoredArgument(store)
        checker = IncrementalChecker(stored, GSN_STANDARD_RULES.rules)
        # One incremental step first: it hydrates S0's shard, which
        # every later edit touches through its new link.
        argument.add_node(Node("W0", NodeType.GOAL, "Early claim holds"))
        argument.add_link("S0", "W0", LinkKind.SUPPORTED_BY)
        argument.save(store, journal=True)
        assert checker.check() == check(argument)
        before = len(stored.journal_segments)
        self._grow_past_coalesce(argument, store)
        stored.shards_read.clear()
        got = checker.check()
        assert len(stored.journal_segments) < before + COALESCE_AFTER, (
            "the journal must have coalesced"
        )
        assert not stored.shards_read & self._base_shards(stored), (
            "a coalesce keeps the op stream: no base shard may be re-read"
        )
        assert got == check(StoredArgument(store), mode="serial")
        assert got == check(argument)

    def test_snapshot_checker_follows_pinned_handles_across_a_coalesce(
        self, tmp_path
    ):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        argument.add_node(Node("W0", NodeType.GOAL, "Early claim holds"))
        argument.save(store, journal=True)
        checker = IncrementalChecker(
            StoredArgument(store), GSN_STANDARD_RULES.rules
        )
        argument.add_link("S0", "W0", LinkKind.SUPPORTED_BY)
        argument.save(store, journal=True)
        first = StoredArgument(store)
        assert checker.check(first) == check(argument)
        self._grow_past_coalesce(argument, store)
        snapshot = StoredArgument(store)
        snapshot.adopt_base_caches(first)
        assert len(snapshot.journal_segments) < COALESCE_AFTER
        snapshot.shards_read.clear()
        got = checker.check(snapshot)
        assert not snapshot.shards_read & self._base_shards(snapshot)
        assert got == check(StoredArgument(store), mode="serial")
        # A snapshot is checked as pinned: no refresh to newer appends.
        pinned = snapshot.generation
        argument.add_node(Node("Z0", NodeType.GOAL, "Unsupported claim"))
        argument.save(store, journal=True)
        assert checker.check(snapshot) == got
        assert snapshot.generation == pinned
        newer = StoredArgument(store)
        assert checker.check(newer) == check(argument)

    def test_a_different_op_prefix_still_rebuilds(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        argument.add_node(Node("T0", NodeType.GOAL, "Transient claim"))
        argument.add_link("S0", "T0", LinkKind.SUPPORTED_BY)
        argument.save(store, journal=True)
        stored = StoredArgument(store)
        checker = IncrementalChecker(stored, GSN_STANDARD_RULES.rules)
        assert checker.check(stored) == check(argument)
        # Another writer rewrites the store behind the checker: the same
        # base shards (content-addressed, so the same names), then a
        # same-length journal holding other records.
        other = gsn_argument()
        other.save(store)
        other.add_node(Node("T1", NodeType.GOAL, "Another claim"))
        other.add_link("S0", "T1", LinkKind.SUPPORTED_BY)
        other.save(store, journal=True)
        rewritten = StoredArgument(store)
        assert rewritten.base_key() == stored.base_key()
        assert len(rewritten.journal_ops()) == len(stored.journal_ops())
        assert checker.check(rewritten) == check(other)

    def test_an_own_coalesce_decodes_nothing_again(
        self, tmp_path, monkeypatch
    ):
        import repro.store.journal as journal_module
        from repro.core.argument import MutationDelta

        store = tmp_path / "case.store"
        gsn_argument().save(store)
        stored = StoredArgument(store)
        checker = IncrementalChecker(stored, GSN_STANDARD_RULES.rules)
        checker.check()
        decoded: list[str] = []
        original = journal_module.decode_op

        def counting_decode(record, segment):
            decoded.append(segment)
            return original(record, segment)

        monkeypatch.setattr(journal_module, "decode_op", counting_decode)
        for index in range(COALESCE_AFTER + 1):
            decoded.clear()
            stored.append_delta(MutationDelta((
                ("add_node", Node(
                    f"X{index}", NodeType.GOAL, f"Late claim {index}",
                )),
                ("add_link", Link("S0", f"X{index}", LinkKind.SUPPORTED_BY)),
            )))
            checker.check()
            assert len(decoded) <= 4, (
                f"append {index} decoded {len(decoded)} records: the "
                "handle's own coalesce must keep its parsed ops"
            )
        assert len(stored.journal_segments) == 2, "one coalesce happened"
        assert checker.check() == check(StoredArgument(store), mode="serial")

    def test_a_live_checker_takes_no_snapshot(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        checker = IncrementalChecker(argument, GSN_STANDARD_RULES.rules)
        with pytest.raises(TypeError, match="snapshot"):
            checker.check(StoredArgument(store))


class TestSnapshotChain:
    """A snapshot that adopts its predecessor's caches also starts from
    its parsed journal, as the service's append chain does."""

    @staticmethod
    def _counting_decode(monkeypatch) -> "list[str]":
        import repro.store.journal as journal_module

        decoded: list[str] = []
        original = journal_module.decode_op

        def counting_decode(record, segment):
            decoded.append(segment)
            return original(record, segment)

        monkeypatch.setattr(journal_module, "decode_op", counting_decode)
        return decoded

    @staticmethod
    def _overlay_state(stored: StoredArgument) -> tuple:
        overlay = stored.journal_overlay()
        return (
            list(overlay.ops), dict(overlay.node_shadow),
            list(overlay.appended_nodes.items()),
            dict(overlay.appended_node_positions),
            set(overlay.link_tombstones), list(overlay.appended_links),
            dict(overlay.appended_out), stored.node_count, stored.link_count,
        )

    def test_each_snapshot_decodes_only_its_own_segment(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        argument.add_node(Node("W0", NodeType.GOAL, "Early claim holds"))
        argument.add_link("S0", "W0", LinkKind.SUPPORTED_BY)
        argument.save(store, journal=True)
        previous = StoredArgument(store)
        previous.journal_ops()
        previous_state = argument.copy()
        decoded = self._counting_decode(monkeypatch)
        edits = [
            lambda a: edit_session(a),
            lambda a: a.remove_node("X1"),
            lambda a: a.replace_node(
                Node("Sn2", NodeType.SOLUTION, "Retested record 2")
            ),
            lambda a: a.remove_link(Link("G4", "Sn4", LinkKind.SUPPORTED_BY)),
        ]
        for edit in edits:
            edit(argument)
            argument.save(store, journal=True)
            before = self._overlay_state(previous)
            decoded.clear()
            snapshot = StoredArgument(store)
            assert snapshot.adopt_base_caches(previous)
            assert set(decoded) == {snapshot.journal_segments[-1]}, (
                "an adopting snapshot must decode only the segments its "
                "predecessor had not parsed"
            )
            assert self._overlay_state(snapshot) == \
                self._overlay_state(StoredArgument(store))
            assert snapshot.load() == argument
            assert self._overlay_state(previous) == before, (
                "adoption must leave the predecessor's overlay untouched"
            )
            assert previous.load() == previous_state
            previous, previous_state = snapshot, argument.copy()

    def test_a_coalesced_journal_parses_on_first_use(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        argument.add_node(Node("W0", NodeType.GOAL, "Early claim holds"))
        argument.add_link("S0", "W0", LinkKind.SUPPORTED_BY)
        argument.save(store, journal=True)
        previous = StoredArgument(store)
        previous.journal_ops()
        TestWatermark._grow_past_coalesce(argument, store)
        decoded = self._counting_decode(monkeypatch)
        snapshot = StoredArgument(store)
        assert snapshot.adopt_base_caches(previous)
        assert not decoded, "a coalesced journal prefixes nothing: no copy"
        assert snapshot.load() == argument

    def test_a_torn_overlay_is_never_carried_over(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        argument.add_node(Node("X1", NodeType.GOAL, "First edit holds"))
        argument.add_link("S0", "X1", LinkKind.SUPPORTED_BY)
        manifest = argument.save(store, journal=True)
        final = store / manifest["journal"][-1]
        content = final.read_bytes()
        final.write_bytes(content[:len(content) // 2])
        recovered = StoredArgument(store, ignore_torn_tail=True)
        recovered.journal_ops()
        assert recovered.journal_overlay().torn_segment is not None
        final.write_bytes(content)  # repaired in place: same manifest
        snapshot = StoredArgument(store)
        assert snapshot.adopt_base_caches(recovered)
        assert snapshot.load() == argument

    def test_a_damaged_new_segment_is_reported_on_first_use(self, tmp_path):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        argument.add_node(Node("X1", NodeType.GOAL, "First edit holds"))
        argument.add_link("S0", "X1", LinkKind.SUPPORTED_BY)
        argument.save(store, journal=True)
        previous = StoredArgument(store)
        previous.journal_ops()
        argument.add_node(Node("X2", NodeType.GOAL, "Second edit holds"))
        manifest = argument.save(store, journal=True)
        final = store / manifest["journal"][-1]
        final.write_bytes(final.read_bytes()[:10])
        snapshot = StoredArgument(store)
        assert snapshot.adopt_base_caches(previous)
        with pytest.raises(StoreCorruptionError, match="ignore_torn_tail"):
            snapshot.load()


@pytest.mark.parametrize("record", [
    {"op": "add_node", "node": {"id": "G9", "type": "bogus", "text": "t"}},
    {"op": "add_node", "node": {"id": "G9", "type": "goal", "text": " "}},
    {"op": "add_node", "node": {"id": "G9", "type": "goal", "text": 5}},
    {"op": "add_link",
     "link": {"source": "G1", "target": "G2", "kind": "bogus"}},
], ids=["unknown-type", "blank-text", "non-string-text", "unknown-kind"])
def test_bad_journal_record_is_corruption_naming_the_segment(record):
    with pytest.raises(StoreCorruptionError, match="journal-0000"):
        decode_op(record, "journal-0000-00000000.jsonl")


class TestCoalesceBytes:
    """A coalesce copies the sealed segments' bytes; the merged segment
    must be exactly what re-encoding the parsed ops writes."""

    @pytest.mark.parametrize("compression", [None, "gzip"])
    def test_merged_segment_is_the_re_encoded_journal(
        self, tmp_path, compression
    ):
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store, compression=compression)
        edit_session(argument)
        argument.save(store, journal=True)
        for index in range(4):
            argument.add_node(Node(
                f"M{index}", NodeType.GOAL, f"Claim {index} — ünïcode",
                metadata=(("zeta", (index,)), ("alpha", ("a", "b"))),
            ))
            argument.add_link("S0", f"M{index}", LinkKind.SUPPORTED_BY)
            argument.replace_node(
                argument.node("G1").with_text(f"Hazard 1, revision {index}")
            )
            argument.save(store, journal=True)
        stored = StoredArgument(store)
        assert len(stored.journal_segments) == 5
        reference = tmp_path / "reference"
        reference.mkdir()
        writer = _ShardWriter(reference, journal_base(0), compression)
        try:
            for op, payload in stored.journal_ops():
                writer.write(encode_op(op, payload))
        finally:
            writer.close()
        expected = writer.finish()
        stored.coalesce()
        (merged,) = stored.journal_segments
        assert merged == expected
        assert (store / merged).read_bytes() == (
            reference / expected
        ).read_bytes()
        assert stored.manifest["shards"][merged] == writer.entry
        assert canonical_argument(
            StoredArgument(store).load()
        ) == canonical_argument(argument)

    def test_a_segment_without_its_final_newline_still_merges(
        self, tmp_path
    ):
        """The reader accepts a last record with no newline; the merged
        copy must not glue it to the next segment's first record."""
        store = tmp_path / "case.store"
        argument = gsn_argument()
        argument.save(store)
        for index in range(3):
            argument.add_node(Node(
                f"X{index}", NodeType.GOAL, f"Late claim {index} holds",
            ))
            argument.save(store, journal=True)
        manifest = json.loads((store / MANIFEST_NAME).read_text())
        first = manifest["journal"][0]
        data = (store / first).read_bytes()
        (store / first).write_bytes(data.rstrip(b"\n"))
        manifest["shards"][first]["crc32"] = crc32(data.rstrip(b"\n"))
        (store / MANIFEST_NAME).write_text(json.dumps(manifest))
        stored = StoredArgument(store)
        ops = list(stored.journal_ops())
        stored.coalesce()
        reopened = StoredArgument(store)
        assert len(reopened.journal_segments) == 1
        assert reopened.journal_ops() == ops
        assert reopened.load() == argument
