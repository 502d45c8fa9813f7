"""The scoped streaming rule engine: mode equivalence and incrementality.

Pins the tentpole contracts of :mod:`repro.core.analysis`:

* one rule set, every execution mode — serial, streaming over a saved
  store, and parallel across process workers — all producing the
  *identical* violation list;
* streaming and parallel checks never hydrate the store (asserted via
  ``StoredArgument.hydrated``);
* the :class:`~repro.core.analysis.IncrementalChecker` equals a fresh
  full check after arbitrary mutations, including retypes (which flip
  link-rule verdicts), cycle creation/destruction (the delta-aware
  acyclic hook), batches, and delta-log rotation.
"""

from __future__ import annotations

import pytest

import repro
from conftest import check
from repro.core.analysis import (
    CHECK_MODES,
    IncrementalChecker,
    Violation,
    ensure_argument,
    is_stored_argument,
    per_link,
    per_node,
    resolve_mode,
    run_rules,
)
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.core.wellformed import DENNEY_PAI_RULES, GSN_STANDARD_RULES
from repro.store import StoredArgument

pytestmark = pytest.mark.analysis


@pytest.fixture
def ill_formed() -> Argument:
    """Violates link rules, node rules, and the single-root global rule."""
    argument = Argument("engine-fixture")
    argument.add_nodes([
        Node("G1", NodeType.GOAL, "The system is acceptably safe"),
        Node("G2", NodeType.GOAL, "Formal proof that Quat4 holds"),
        Node("G3", NodeType.GOAL, "A second root claim stands alone"),
        Node("S1", NodeType.STRATEGY, "Argument over nothing at all"),
        Node("Sn1", NodeType.SOLUTION, "Test report TR-1"),
        Node("Sn2", NodeType.SOLUTION, "Test report TR-2"),
        Node("C1", NodeType.CONTEXT, "Operating context"),
    ])
    argument.add_links([
        ("G1", "G2", LinkKind.SUPPORTED_BY),
        ("G1", "S1", LinkKind.SUPPORTED_BY),
        ("G2", "Sn1", LinkKind.SUPPORTED_BY),
        ("Sn1", "Sn2", LinkKind.SUPPORTED_BY),   # solution cites support
        ("G1", "Sn2", LinkKind.IN_CONTEXT_OF),   # context link to solution
        ("G2", "C1", LinkKind.IN_CONTEXT_OF),
    ])
    return argument


@pytest.fixture
def stored(ill_formed, tmp_path) -> StoredArgument:
    store_dir = tmp_path / "engine.store"
    ill_formed.save(store_dir)
    return StoredArgument(store_dir)


class TestModeEquivalence:
    def test_all_modes_identical(self, ill_formed, tmp_path):
        store_dir = tmp_path / "modes.store"
        ill_formed.save(store_dir)
        serial = check(ill_formed)
        assert serial, "fixture must actually violate rules"

        streaming_store = StoredArgument(store_dir)
        streaming = check(streaming_store, mode="streaming")
        parallel_store = StoredArgument(store_dir)
        parallel = check(parallel_store, mode="parallel", workers=2)
        parallel_live = check(ill_formed, mode="parallel", workers=2)

        assert serial == streaming == parallel == parallel_live

    def test_streaming_reads_shards_without_hydrating(self, stored):
        check(stored, mode="streaming")
        assert stored.shards_read, "streaming must verify real shards"
        assert not stored.hydrated

    def test_parallel_does_not_hydrate(self, stored):
        check(stored, mode="parallel", workers=2)
        assert not stored.hydrated

    def test_full_mode_rejected(self, stored, ill_formed):
        for subject in (stored, ill_formed):
            with pytest.raises(ValueError, match="unknown analysis mode"):
                run_rules(subject, GSN_STANDARD_RULES.rules, mode="full")
            with pytest.raises(ValueError, match="unknown analysis mode"):
                repro.check(subject, mode="full")
        assert not stored.hydrated

    def test_auto_mode_streams_stored_arguments(self, stored):
        check(stored)
        assert not stored.hydrated

    def test_single_worker_degrades_to_streaming(self, stored, ill_formed):
        degraded = check(stored, mode="parallel", workers=1)
        assert degraded == check(ill_formed)
        assert not stored.hydrated

    def test_denney_pai_rules_across_modes(self, ill_formed, stored):
        assert check(stored, DENNEY_PAI_RULES) == \
            check(ill_formed, DENNEY_PAI_RULES)

    def test_cycle_rendering_identical_across_modes(self, tmp_path):
        cyclic = Argument("cyclic")
        cyclic.add_nodes([
            Node("G1", NodeType.GOAL, "Claim one holds"),
            Node("G2", NodeType.GOAL, "Claim two holds"),
            Node("G3", NodeType.GOAL, "Claim three holds"),
        ])
        cyclic.add_links([
            ("G1", "G2", LinkKind.SUPPORTED_BY),
            ("G2", "G3", LinkKind.SUPPORTED_BY),
            ("G3", "G1", LinkKind.SUPPORTED_BY),
        ])
        cyclic.save(tmp_path / "cyclic.store")
        serial = check(cyclic)
        assert any(v.rule == "acyclic" for v in serial)
        streamed = check(StoredArgument(tmp_path / "cyclic.store"))
        parallel = check(
            StoredArgument(tmp_path / "cyclic.store"),
            mode="parallel", workers=2,
        )
        assert serial == streamed == parallel

    def test_unknown_mode_rejected(self, ill_formed):
        with pytest.raises(ValueError, match="unknown analysis mode"):
            run_rules(ill_formed, GSN_STANDARD_RULES.rules, mode="warp")

    def test_non_argument_subject_rejected(self, sample_case):
        with pytest.raises(TypeError, match="got AssuranceCase"):
            run_rules(sample_case, GSN_STANDARD_RULES.rules)


class TestModeResolution:
    def test_one_resolver_for_every_subject(self, stored, ill_formed):
        assert resolve_mode(ill_formed, "auto") == "serial"
        assert resolve_mode(ill_formed, "streaming") == "serial"
        assert resolve_mode(ill_formed, "parallel", 2) == "serial"
        assert resolve_mode(stored, "auto") == "streaming"
        assert resolve_mode(stored, "serial") == "streaming"
        assert resolve_mode(stored, "parallel", 2) == "parallel"
        assert resolve_mode(stored, "parallel", 1) == "streaming"
        assert resolve_mode(stored, "incremental") == "incremental"
        with pytest.raises(ValueError, match="unknown analysis mode"):
            resolve_mode(stored, "full")

    def test_facade_and_service_share_the_mode_list(self):
        from repro.checking import CHECK_MODES as facade_modes
        from repro.service.server import ArgumentService

        assert facade_modes is CHECK_MODES
        assert ArgumentService._CHECK_MODES == CHECK_MODES

    def test_run_rules_refuses_incremental(self, ill_formed):
        with pytest.raises(ValueError, match="IncrementalChecker"):
            run_rules(ill_formed, GSN_STANDARD_RULES.rules,
                      mode="incremental")


class TestSharedStoreHelpers:
    def test_is_stored_argument(self, stored, ill_formed, sample_case):
        assert is_stored_argument(stored)
        assert not is_stored_argument(ill_formed)
        # AssuranceCase has a load() too; it must not be mis-dispatched.
        assert not is_stored_argument(sample_case)

    def test_ensure_argument_hydration_fallback(self, stored, ill_formed):
        assert ensure_argument(ill_formed) is ill_formed
        hydrated = ensure_argument(stored)
        assert hydrated == ill_formed
        assert stored.hydrated
        with pytest.raises(TypeError, match="got int"):
            ensure_argument(7)


def _flag_away_goals(node, ctx):
    return [Violation("no-away", node.identifier, "away goal present")]


def _flag_context_links(link, ctx):
    return [Violation("no-context-links", str(link), "context link")]


class TestDispatchFilters:
    def test_node_type_filter_limits_invocations(self):
        argument = Argument("filtered")
        argument.add_nodes([
            Node("G1", NodeType.GOAL, "The claim holds", undeveloped=True),
            Node("AG1", NodeType.AWAY_GOAL, "Remote claim holds",
                 module="m1"),
        ])
        rule = per_node("no-away", "flags away goals", _flag_away_goals,
                        node_types=(NodeType.AWAY_GOAL,))
        found = run_rules(argument, (rule,))
        assert [v.subject for v in found] == ["AG1"]

    def test_link_kind_filter_limits_invocations(self, ill_formed):
        rule = per_link("no-context-links", "flags context links",
                        _flag_context_links, kind=LinkKind.IN_CONTEXT_OF)
        found = run_rules(ill_formed, (rule,))
        assert len(found) == 2
        assert all("~>" in v.subject for v in found)

    def test_filters_hold_in_parallel_mode(self, ill_formed):
        rules = (
            per_node("no-away", "flags away goals", _flag_away_goals,
                     node_types=(NodeType.AWAY_GOAL,)),
            per_link("no-context-links", "flags context links",
                     _flag_context_links, kind=LinkKind.IN_CONTEXT_OF),
        )
        assert run_rules(ill_formed, rules, mode="parallel", workers=2) \
            == run_rules(ill_formed, rules)


class TestIncrementalChecker:
    def test_accepts_either_subject_kind(
        self, stored, ill_formed, sample_case
    ):
        expected = check(ill_formed)
        assert IncrementalChecker(stored, GSN_STANDARD_RULES.rules).check() \
            == expected
        assert IncrementalChecker(
            ill_formed, GSN_STANDARD_RULES.rules
        ).check() == expected
        assert not stored.hydrated
        with pytest.raises(TypeError, match="got AssuranceCase"):
            IncrementalChecker(sample_case, GSN_STANDARD_RULES.rules)

    def test_tracks_arbitrary_mutations(self, ill_formed):
        checker = IncrementalChecker(ill_formed, GSN_STANDARD_RULES.rules)
        assert checker.check() == check(ill_formed)

        ill_formed.add_node(Node(
            "G9", NodeType.GOAL, "Another claim stands unsupported"
        ))
        assert checker.check() == check(ill_formed)

        ill_formed.add_link("G3", "G9", LinkKind.SUPPORTED_BY)
        assert checker.check() == check(ill_formed)

        ill_formed.remove_node("G9")
        assert checker.check() == check(ill_formed)

        with ill_formed.batch():
            ill_formed.add_node(Node(
                "S2", NodeType.STRATEGY, "Argument over spare parts"
            ))
            ill_formed.add_link("G3", "S2", LinkKind.SUPPORTED_BY)
            ill_formed.remove_link(
                next(link for link in ill_formed.links
                     if link.source == "Sn1")
            )
        assert checker.check() == check(ill_formed)

    def test_retype_flips_link_rule_verdicts(self, ill_formed):
        checker = IncrementalChecker(ill_formed, GSN_STANDARD_RULES.rules)
        checker.check()
        # Sn2 (a solution receiving a context link) becomes a context
        # node: the in-context-of-target violation must disappear and
        # the solution-cites-support violation must appear/vanish
        # accordingly.
        ill_formed.replace_node(Node(
            "Sn2", NodeType.CONTEXT, "Repurposed as context"
        ))
        assert checker.check() == check(ill_formed)
        ill_formed.replace_node(Node(
            "Sn2", NodeType.SOLUTION, "Back to being a solution"
        ))
        assert checker.check() == check(ill_formed)

    def test_cycle_appears_and_disappears(self):
        argument = Argument("cycle-delta")
        argument.add_nodes([
            Node("G1", NodeType.GOAL, "Claim one holds"),
            Node("G2", NodeType.GOAL, "Claim two holds"),
        ])
        argument.add_link("G1", "G2", LinkKind.SUPPORTED_BY)
        checker = IncrementalChecker(argument, GSN_STANDARD_RULES.rules)
        assert not any(v.rule == "acyclic" for v in checker.check())

        closing = argument.add_link("G2", "G1", LinkKind.SUPPORTED_BY)
        found = checker.check()
        assert any(v.rule == "acyclic" for v in found)
        assert found == check(argument)

        argument.remove_link(closing)
        cleaned = checker.check()
        assert not any(v.rule == "acyclic" for v in cleaned)
        assert cleaned == check(argument)

    def test_unchanged_argument_reuses_caches(self, ill_formed):
        checker = IncrementalChecker(ill_formed, GSN_STANDARD_RULES.rules)
        first = checker.check()
        assert checker.check() == first

    def test_log_rotation_forces_full_rebuild(self):
        class TinyLogArgument(Argument):
            MUTATION_LOG_LIMIT = 4

        argument = TinyLogArgument("tiny")
        argument.add_node(Node(
            "G1", NodeType.GOAL, "The top claim holds", undeveloped=True
        ))
        checker = IncrementalChecker(argument, GSN_STANDARD_RULES.rules)
        checker.check()
        for index in range(2, 20):  # far beyond the bounded log
            argument.add_node(Node(
                f"G{index}", NodeType.GOAL, f"Claim {index} holds",
                undeveloped=True,
            ))
        assert argument.delta_since(0) is None
        assert checker.check() == check(argument)


# -- one full-store pass -----------------------------------------------------


@pytest.mark.journal
def test_stored_checks_scan_link_shards_once(
    ill_formed, stored, monkeypatch
):
    """A checker's build and a one-shot stored check each read the link
    shards once, through the shard scan: neither merges the whole store
    with ``iter_nodes``/``iter_links``, and neither builds a link index.
    Edits that add links or retext a node read no link shard at all."""
    merges: "list[str]" = []
    for name in ("iter_nodes", "iter_links"):
        def counting(self, _original=getattr(StoredArgument, name),
                     _name=name):
            merges.append(_name)
            return _original(self)

        monkeypatch.setattr(StoredArgument, name, counting)
    shard_reads: "list[int]" = []
    original_shard_links = StoredArgument.iter_shard_links

    def counting_shard_links(self, index):
        shard_reads.append(index)
        return original_shard_links(self, index)

    monkeypatch.setattr(
        StoredArgument, "iter_shard_links", counting_shard_links
    )
    shards = list(range(stored.shard_count))

    def passes() -> int:
        """Whole passes over the link shards so far, each in shard order."""
        count, rest = divmod(len(shard_reads), len(shards))
        assert rest == 0 and shard_reads == shards * count, shard_reads
        return count

    rules = GSN_STANDARD_RULES.rules
    writer = StoredArgument(stored.path)
    checker = IncrementalChecker(stored, rules)
    assert passes() == 1, "the build is one shard scan"
    assert run_rules(stored, rules, mode="streaming") == check(ill_formed)
    assert passes() == 2, "a streaming check is one shard scan"
    assert checker.check() == check(ill_formed)
    assert passes() == 2 and merges == []

    def edit(change) -> None:
        seq = ill_formed.mutation_seq
        change()
        writer.append_delta(ill_formed.delta_since(seq))
        assert checker.check() == check(ill_formed)

    edit(lambda: ill_formed.replace_node(
        ill_formed.node("G3").with_text("A second root claim, reworded")
    ))
    edit(lambda: ill_formed.add_link("G3", "Sn2", LinkKind.SUPPORTED_BY))
    edit(lambda: ill_formed.add_link("G3", "C1", LinkKind.IN_CONTEXT_OF))
    assert passes() == 2, "no edit reads a link shard"
    fresh = StoredArgument(stored.path)
    assert run_rules(fresh, rules, mode="streaming") == check(ill_formed)
    assert passes() == 3 and merges == []
