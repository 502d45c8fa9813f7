"""Randomized mutation-sequence invariant harness for the graph core.

Tool-generated assurance cases are built by thousands of programmatic
mutations, so the batch layer and the incremental query index must be
correct under *arbitrary interleavings* of add/remove/replace/batch —
not just the orderly sequences the unit tests exercise.  This harness
drives :class:`~repro.core.argument.Argument` through hundreds of seeded
random mutation steps and after **every** step asserts:

(a) the incrementally-maintained :class:`~repro.core.query.ArgumentIndex`
    is map-for-map identical to an index rebuilt from scratch;
(b) batch and one-at-a-time mutation produce ``__eq__``-identical
    arguments (a shadow argument replays every operation unbatched);
(c) ``roots``/``leaves``/``depth``/``statistics`` agree with a naive
    oracle recomputed from the raw node and link lists;
(d) periodically, planner-backed ``select`` results agree with a naive
    full-scan of each query's predicate (including exact plans, which
    skip the predicate entirely);
(e) the **three-way well-formedness oracle**: a long-lived
    :class:`~repro.core.analysis.IncrementalChecker` (consuming the
    mutation delta log, including the delta-aware acyclic hook) reports
    exactly the violations of a fresh full check after *every* step, and
    periodically both equal a *streaming* check over the argument saved
    to a sharded store (which must not hydrate it);
(f) the **journal persistence oracle**: a store maintained across the
    whole run purely by ``save(journal=True)`` appends — every Nth step
    the journal-replayed store loads canonically equal to the live
    argument, a long-lived store-backed
    :class:`~repro.core.analysis.IncrementalChecker` (consuming the
    *persisted* journal deltas, never hydrating) agrees
    with the fresh check, and periodically ``compact()`` folds the
    journal away byte-identically to a clean save of the same argument;
(g) the **search oracle**: a second store saved once with
    ``search_index=True`` and then maintained by journal appends —
    every Nth step the journal-patched sidecar postings equal a
    freshly-rebuilt :class:`~repro.store.search.StoreSearchIndex` and
    the live planner index's postings, planner-backed ``text_contains``
    selects over the stored argument (exact folded plans and
    case-sensitive candidate plans alike)
    agree with a naive predicate scan of the live argument, and ranked
    :func:`repro.core.search.search` returns exactly the nodes a naive
    re-implementation of its term semantics (token hit, else substring
    fallback) predicts, in descending score order;
(h) the **obligation oracle**: a share of random nodes carry formal
    evidence obligations (passing, failing, and malformed specs from a
    deterministic pool) in their metadata, and a second long-lived
    incremental checker over ``GSN_OBLIGATION_RULES`` — the standard
    rules plus the obligation-discharge rule — must agree with a fresh
    full check every few steps, so cached proof results stay coherent
    under arbitrary edit interleavings.

Graphs stay acyclic by construction (links only run from older to newer
nodes), matching the only shape well-formedness accepts; cyclic-graph
behaviour is pinned by ``tests/test_graph_engine_scale.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.claims import GSN_OBLIGATION_RULES, obligation_counters
from repro.claims.obligations import OBLIGATION_KEY
from repro.core.analysis import IncrementalChecker, run_rules
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.core.wellformed import GSN_STANDARD_RULES
from repro.core.query import (
    ArgumentIndex,
    argument_index,
    attribute_param,
    has_attribute,
    node_type_is,
    select,
    text_contains,
)

STEPS = 300

_TYPES = (
    NodeType.GOAL,
    NodeType.STRATEGY,
    NodeType.SOLUTION,
    NodeType.CONTEXT,
    NodeType.AWAY_GOAL,
)

_TEXTS = (
    "The braking claim holds",
    "Hazard is acceptably managed",
    "Fault tree analysis record",
    "Operating context item",
    "Argument over identified hazards",
)


# Deterministic obligation pool: discharging, failing, and malformed
# specs, so the obligation oracle exercises every discharge outcome.
# The pool is fixed — each spec proves once per process, then caches.
_OBLIGATIONS = (
    "sat: brake & (brake -> stop)",               # discharges
    "valid: stop -> stop",                        # discharges
    "entails: brake -> stop ; brake |- stop",     # discharges
    "valid: brake -> stop",                       # fails: not a tautology
    "ltl: G brake @ brake ; .",                   # fails on the trace
    "sat: brake &",                               # malformed body
)


def _random_metadata(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        base = ()
    elif roll < 0.75:
        likelihood = rng.choice(("remote", "frequent"))
        severity = rng.choice(("catastrophic", "minor"))
        base = (("hazard", (f"H{rng.randrange(6)}", likelihood, severity)),)
    elif roll < 0.9:
        base = (("owner", (rng.choice(("alice", "bob")),)),)
    else:
        # Duplicated attribute name: metadata_dict() keeps the last
        # entry, and exact query plans must agree with that (regression).
        base = (
            ("hazard", ("H0", "remote", "minor")),
            ("hazard", (f"H{rng.randrange(6)}", "remote", "catastrophic")),
        )
    if rng.random() < 0.1:
        base = base + ((OBLIGATION_KEY, (rng.choice(_OBLIGATIONS),)),)
    return base


def _random_node(rng: random.Random, identifier: str) -> Node:
    node_type = rng.choice(_TYPES)
    return Node(
        identifier,
        node_type,
        rng.choice(_TEXTS) + f" [{identifier}]",
        metadata=_random_metadata(rng),
        module="m1" if node_type is NodeType.AWAY_GOAL else None,
    )


# -- naive oracles ----------------------------------------------------------


def oracle_roots(argument: Argument) -> list[str]:
    supported = {
        link.target
        for link in argument.links
        if link.kind is LinkKind.SUPPORTED_BY
    }
    return [
        node.identifier
        for node in argument.nodes
        if node.node_type.is_claim_like
        and node.identifier not in supported
    ]


def oracle_leaves(argument: Argument) -> list[str]:
    supporting = {
        link.source
        for link in argument.links
        if link.kind is LinkKind.SUPPORTED_BY
    }
    return [
        node.identifier
        for node in argument.nodes
        if node.node_type in (
            NodeType.GOAL, NodeType.STRATEGY, NodeType.AWAY_GOAL
        )
        and node.identifier not in supporting
    ]


def oracle_depth(argument: Argument) -> int:
    """Longest SupportedBy path from any oracle root (graphs are acyclic)."""
    children: dict[str, list[str]] = {}
    for link in argument.links:
        if link.kind is LinkKind.SUPPORTED_BY:
            children.setdefault(link.source, []).append(link.target)
    memo: dict[str, int] = {}

    def longest(identifier: str) -> int:
        if identifier not in memo:
            memo[identifier] = 1 + max(
                (longest(child)
                 for child in children.get(identifier, ())),
                default=0,
            )
        return memo[identifier]

    return max((longest(root) for root in oracle_roots(argument)), default=0)


def oracle_statistics(argument: Argument) -> dict[str, int]:
    stats: dict[str, int] = {
        f"{node_type.value}_count": sum(
            1 for node in argument.nodes if node.node_type is node_type
        )
        for node_type in NodeType
    }
    stats["node_count"] = len(argument.nodes)
    stats["link_count"] = len(argument.links)
    stats["supported_by_count"] = sum(
        1 for link in argument.links
        if link.kind is LinkKind.SUPPORTED_BY
    )
    stats["in_context_of_count"] = sum(
        1 for link in argument.links
        if link.kind is LinkKind.IN_CONTEXT_OF
    )
    stats["depth"] = oracle_depth(argument)
    return stats


def canonical_index(index: ArgumentIndex) -> tuple:
    """An order-normalised snapshot for comparing index instances.

    Incremental ``order`` values are monotonic ranks with gaps while a
    fresh build numbers 0..V-1, so only the induced ordering may be
    compared.  Empty postings are pruned incrementally and never created
    by a fresh build, so plain equality works for the posting maps.
    """
    ordering = sorted(index.order, key=index.order.__getitem__)
    return (
        ordering,
        index.by_attribute,
        index.by_attribute_value,
        index.by_param,
        index.by_type,
        index.lowered_text,
    )


# -- the harness ------------------------------------------------------------


class Harness:
    """Applies identical random mutations batched and one-at-a-time."""

    def __init__(self, seed: int, store_dir=None) -> None:
        self.rng = random.Random(seed)
        self.argument = Argument("invariant-main")
        self.shadow = Argument("invariant-shadow")
        self.births: dict[str, int] = {}
        self.next_birth = 0
        self.store_dir = store_dir
        # Long-lived: consumes the delta log across the whole run.
        self.wellformed = IncrementalChecker(
            self.argument, GSN_STANDARD_RULES.rules
        )
        # Long-lived obligation checker: standard rules + the formal
        # evidence-discharge rule over the randomly stamped obligations.
        self.obligation_wellformed = IncrementalChecker(
            self.argument, GSN_OBLIGATION_RULES.rules
        )
        # Long-lived journal session: the store under journal_store is
        # only ever updated through save(journal=True) appends (plus
        # periodic compaction), and stored_wellformed re-checks it from
        # the persisted deltas without hydration.
        self.journal_store = (
            None if store_dir is None else store_dir / "journal.store"
        )
        self.stored_wellformed = None
        # Search session: saved indexed once, then journal appends only,
        # so the sidecar is always read through the O(delta) patch path.
        self.search_store = (
            None if store_dir is None else store_dir / "search.store"
        )
        self.search_saved = False

    # Operations consult the live argument, then mirror onto the shadow.

    def op_add_node(self) -> None:
        identifier = f"n{self.next_birth}"
        node = _random_node(self.rng, identifier)
        self.births[identifier] = self.next_birth
        self.next_birth += 1
        self.argument.add_node(node)
        self.shadow.add_node(node)

    def op_add_link(self) -> None:
        alive = sorted(self.births, key=self.births.__getitem__)
        if len(alive) < 2:
            return
        for _ in range(8):  # rejection-sample a legal older->newer pair
            source, target = self.rng.sample(alive, 2)
            if self.births[source] > self.births[target]:
                source, target = target, source
            kind = self.rng.choice(tuple(LinkKind))
            if all(
                link.target != target or link.kind is not kind
                for link in self.argument._out.get(source, ())
            ):
                self.argument.add_link(source, target, kind)
                self.shadow.add_link(source, target, kind)
                return

    def op_remove_link(self) -> None:
        links = self.argument.links
        if not links:
            return
        link = self.rng.choice(links)
        self.argument.remove_link(link)
        self.shadow.remove_link(link)

    def op_remove_node(self) -> None:
        if not self.births:
            return
        identifier = self.rng.choice(sorted(self.births))
        del self.births[identifier]
        self.argument.remove_node(identifier)
        self.shadow.remove_node(identifier)

    def op_replace_node(self) -> None:
        if not self.births:
            return
        identifier = self.rng.choice(sorted(self.births))
        old = self.argument.node(identifier)
        if self.rng.random() < 0.3:  # retype (exercises the type index)
            replacement = _random_node(self.rng, identifier)
        else:
            replacement = old.with_text(
                old.text + f" r{self.rng.randrange(100)}"
            )
        self.argument.replace_node(replacement)
        self.shadow.replace_node(replacement)

    def random_op(self) -> None:
        population = len(self.births)
        if population == 0:
            self.op_add_node()
            return
        removal_bias = 2 if population > 60 else 1
        ops = (
            [self.op_add_node] * 5
            + [self.op_add_link] * 5
            + [self.op_replace_node] * 3
            + [self.op_remove_link] * (2 * removal_bias)
            + [self.op_remove_node] * (1 * removal_bias)
        )
        self.rng.choice(ops)()

    def step(self) -> None:
        if self.rng.random() < 0.25:
            # A batch block: the main argument groups 2-6 mutations into
            # one version bump; the shadow applies them unbatched.
            version_before = self.argument.version
            with self.argument.batch():
                for _ in range(self.rng.randint(2, 6)):
                    self.random_op()
                    # Reads must stay coherent mid-batch.
                    assert self.argument.depth() == oracle_depth(
                        self.argument
                    )
            assert self.argument.version <= version_before + 1, (
                "a batch must bump the version at most once"
            )
        else:
            self.random_op()

    def check(self, step_number: int) -> None:
        argument, shadow = self.argument, self.shadow
        # (a) incremental index == fresh rebuild
        incremental = argument_index(argument)
        fresh = ArgumentIndex(argument)
        assert canonical_index(incremental) == canonical_index(fresh), (
            f"step {step_number}: incremental index diverged from rebuild"
        )
        # (b) batched == one-at-a-time
        assert argument == shadow and shadow == argument, (
            f"step {step_number}: batched and unbatched arguments diverged"
        )
        assert argument.version >= 0 and shadow.version >= 0
        # (c) structural invariants vs the naive oracle
        assert [r.identifier for r in argument.roots()] == \
            oracle_roots(argument)
        assert [leaf.identifier for leaf in argument.leaves()] == \
            oracle_leaves(argument)
        assert argument.statistics() == oracle_statistics(argument)
        assert argument.find_cycle() is None
        # (e) three-way well-formedness oracle: the incremental checker
        # (delta replay, cached per-rule violation maps) equals a fresh
        # full check after every step ...
        incremental_violations = self.wellformed.check()
        fresh_violations = run_rules(argument, GSN_STANDARD_RULES.rules)
        assert incremental_violations == fresh_violations, (
            f"step {step_number}: incremental well-formedness diverged "
            "from a fresh full check"
        )
        # (h) obligation oracle: the incremental checker over the
        # obligation-extended rule set equals a fresh full check —
        # proof-result caching must never change an answer.  Every 3rd
        # step bounds the extra full-check cost.
        if step_number % 3 == 0:
            incremental_obligations = self.obligation_wellformed.check()
            fresh_obligations = run_rules(
                argument, GSN_OBLIGATION_RULES.rules
            )
            assert incremental_obligations == fresh_obligations, (
                f"step {step_number}: incremental obligation check "
                "diverged from a fresh full check"
            )
        # ... and periodically both equal a streaming check over the
        # argument saved to a sharded store, without hydration.
        if self.store_dir is not None and step_number % 10 == 0:
            from repro.store import StoredArgument

            store = self.store_dir / "invariant.store"
            argument.save(store)
            stored = StoredArgument(store)
            streamed = run_rules(
                stored, GSN_STANDARD_RULES.rules, mode="streaming"
            )
            assert streamed == fresh_violations, (
                f"step {step_number}: streaming check over the saved "
                "store diverged"
            )
            assert not stored.hydrated, (
                "the streaming check must not hydrate the store"
            )
        # (f) journal persistence: appends-only store ≡ live argument ≡
        # store-backed incremental checker; periodic compaction is
        # byte-stable against a clean save.
        if self.store_dir is not None and step_number % 15 == 0:
            from conftest import canonical_argument
            from repro.store import StoredArgument

            argument.save(self.journal_store, journal=True)
            stored = StoredArgument(self.journal_store)
            if step_number > 15:
                assert stored.journal_segments or step_number % 75 == 15, (
                    f"step {step_number}: the session should be appending"
                )
            replayed = stored.load()
            assert canonical_argument(replayed) == \
                canonical_argument(argument), (
                    f"step {step_number}: journal replay diverged from "
                    "the live argument"
                )
            if self.stored_wellformed is None:
                self.checker_store = StoredArgument(self.journal_store)
                self.stored_wellformed = IncrementalChecker(
                    self.checker_store, GSN_STANDARD_RULES.rules
                )
            assert self.stored_wellformed.check() == fresh_violations, (
                f"step {step_number}: store-backed incremental check "
                "diverged from a fresh full check"
            )
            assert not self.checker_store.hydrated, (
                "store-backed re-checking must never hydrate"
            )
            if step_number % 75 == 0:
                from conftest import store_files

                compact_handle = StoredArgument(self.journal_store)
                compact_handle.compact()
                compact_handle.gc()  # deferred sweep -> byte-stable dir
                # Compaction moved the manifest past the save baseline;
                # the argument still equals the store, so re-pin it.
                argument.mark_persisted(self.journal_store)
                fresh_dir = self.store_dir / "compaction-reference.store"
                argument.save(fresh_dir)
                assert store_files(self.journal_store) == \
                    store_files(fresh_dir), (
                        f"step {step_number}: compaction is not byte-stable"
                    )
                assert self.stored_wellformed.check() == \
                    fresh_violations, (
                        f"step {step_number}: checker lost sync across "
                        "compaction"
                    )
        # (g) search: journal-patched sidecar == fresh rebuild; stored
        # planner selects == naive scans; ranked search == its oracle.
        # Offset from (f)'s %15==0 so the byte-stability checks there
        # never see this store's extra saves.
        if self.store_dir is not None and step_number % 15 == 5:
            self._check_search(step_number)
        # (d) planner-backed selects == naive predicate scans
        if step_number % 10 == 0:
            worst = attribute_param("hazard", 1, "remote") \
                & attribute_param("hazard", 2, "catastrophic")
            queries = (
                has_attribute("hazard"),
                has_attribute("owner"),
                node_type_is(NodeType.GOAL),
                node_type_is(NodeType.SOLUTION),
                attribute_param("hazard", 1, "remote"),
                text_contains("hazard"),
                worst,
                worst | node_type_is(NodeType.STRATEGY),
                ~has_attribute("hazard"),
            )
            for query in queries:
                planned = [n.identifier for n in select(argument, query)]
                naive = [
                    n.identifier for n in argument.nodes if query(n)
                ]
                assert planned == naive, (
                    f"step {step_number}: {query.description}"
                )

    _NEEDLES = (
        ("hazard", False),            # common token, exact folded plan
        ("Hazard", True),             # case-sensitive: grams + predicate
        ("acceptably managed", False),  # substring spanning tokens
        ("analysis record", False),
        ("zzz absent", False),        # must plan to the empty set
    )

    def _check_search(self, step_number: int) -> None:
        from repro.core.search import search as ranked_search
        from repro.core.search import tokenize
        from repro.store import StoredArgument
        from repro.store.search import StoreSearchIndex, load_search_index

        argument = self.argument
        if not self.search_saved:
            argument.save(self.search_store, search_index=True)
            self.search_saved = True
        else:
            # The journal append leaves the sidecar file untouched;
            # readers must patch it forward from the delta log (or, on
            # a log-rotation fallback, the full save re-indexes because
            # the manifest already carries a sidecar).
            argument.save(self.search_store, journal=True)
        stored = StoredArgument(self.search_store)
        patched = load_search_index(stored)
        assert patched is not None, (
            f"step {step_number}: sidecar failed to load"
        )
        rebuilt = StoreSearchIndex.build(StoredArgument(self.search_store))
        assert patched.canonical() == rebuilt.canonical(), (
            f"step {step_number}: journal-patched sidecar diverged from "
            "a fresh rebuild"
        )
        live = argument_index(argument).text_postings()
        assert live.canonical() == patched.canonical(), (
            f"step {step_number}: live planner postings diverged from the "
            "journal-patched sidecar"
        )
        for needle, case_sensitive in self._NEEDLES:
            query = text_contains(needle, case_sensitive)
            planned = sorted(
                node.identifier for node in select(stored, query)
            )
            naive = sorted(
                node.identifier
                for node in argument.nodes
                if query(node)
            )
            assert planned == naive, (
                f"step {step_number}: stored text_contains({needle!r}, "
                f"case_sensitive={case_sensitive}) diverged"
            )
        # Ranked search: exactly the term-semantics oracle, ranked.
        for query_text in ("hazard analysis", "acceptably", "braking claim"):
            hits = ranked_search(
                stored, query_text, limit=10 ** 6, neighbourhood=0
            )
            expected: set[str] = set()
            for term in dict.fromkeys(tokenize(query_text)):
                token_ids = {
                    node.identifier
                    for node in argument.nodes
                    if term in tokenize(node.text)
                }
                if not token_ids and len(term) >= 3:
                    token_ids = {
                        node.identifier
                        for node in argument.nodes
                        if term in node.text.lower()
                    }
                expected |= token_ids
            assert {hit.identifier for hit in hits} == expected, (
                f"step {step_number}: ranked search({query_text!r}) "
                "diverged from the term-semantics oracle"
            )
            scores = [hit.score for hit in hits]
            assert scores == sorted(scores, reverse=True)


@pytest.mark.search
@pytest.mark.parametrize("seed", [0xA11CE, 0xB0B, 0xC0FFEE])
def test_randomized_mutation_invariants(seed: int, tmp_path) -> None:
    harness = Harness(seed, store_dir=tmp_path)
    for step_number in range(1, STEPS + 1):
        harness.step()
        harness.check(step_number)
    # The run must have actually exercised a non-trivial history.
    assert harness.argument.mutation_seq >= STEPS
    assert len(harness.argument) > 0


class TinyLogArgument(Argument):
    """An argument whose delta log rotates almost immediately."""

    MUTATION_LOG_LIMIT = 8


def test_log_rotation_forces_correct_rebuild() -> None:
    """When the bounded log rotates, the index rebuilds — and is right."""
    argument = TinyLogArgument("tiny-log")
    argument.add_node(Node("g0", NodeType.GOAL, "The top claim holds"))
    first = argument_index(argument)
    # Far more mutations than the log retains.
    for index in range(1, 30):
        argument.add_node(Node(
            f"g{index}", NodeType.GOAL, f"Claim {index} holds",
            metadata=(("hazard", (f"H{index}", "remote", "minor")),),
        ))
    assert argument.delta_since(first.seq) is None
    refreshed = argument_index(argument)
    assert refreshed is not first, "a rotated log cannot be patched over"
    assert canonical_index(refreshed) == \
        canonical_index(ArgumentIndex(argument))


@pytest.mark.claims
def test_incremental_reproves_only_touched_obligations() -> None:
    """Editing one claim's evidence re-proves exactly that obligation.

    Counter-instrumented: after a warm incremental check, a single
    node's obligation edit must cost one proof and zero cache
    consultations — untouched claims are not even looked at.  Atom
    names are process-unique so earlier tests' cached proofs cannot
    flatter the counters.
    """
    import uuid

    def atom() -> str:
        return f"inv_{uuid.uuid4().hex[:10]}"

    argument = Argument("selective-reproof")
    argument.add_node(Node("g0", NodeType.GOAL, "The system is safe"))
    for index in range(12):
        name = atom()
        argument.add_node(Node(
            f"sn{index}", NodeType.SOLUTION, f"Evidence record {index}",
            metadata=(
                (OBLIGATION_KEY, (f"valid: {name} -> {name}",)),
            ),
        ))
        argument.add_link("g0", f"sn{index}", LinkKind.SUPPORTED_BY)

    checker = IncrementalChecker(argument, GSN_OBLIGATION_RULES.rules)
    baseline = checker.check()
    assert [v.rule for v in baseline] == []

    edited = atom()
    argument.replace_node(argument.node("sn7").with_metadata({
        OBLIGATION_KEY: (f"sat: {edited} | ~{edited}",),
    }))
    proofs_before, hits_before = obligation_counters()
    violations = checker.check()
    proofs_after, hits_after = obligation_counters()
    assert violations == []
    assert proofs_after - proofs_before == 1, (
        "one edited obligation must cost exactly one new proof"
    )
    assert hits_after == hits_before, (
        "untouched claims' cached proofs must not even be consulted"
    )
    assert violations == run_rules(argument, GSN_OBLIGATION_RULES.rules)


def test_oversized_delta_declined_in_favour_of_rebuild() -> None:
    """A delta larger than the index itself triggers a rebuild instead."""
    argument = Argument("oversized")
    argument.add_node(Node("g0", NodeType.GOAL, "The top claim holds"))
    index = argument_index(argument)
    with argument.batch():
        for number in range(1, 200):
            argument.add_node(Node(
                f"g{number}", NodeType.GOAL, f"Claim {number} holds"
            ))
    delta = argument.delta_since(index.seq)
    assert delta is not None and len(delta) == 199
    assert not index.apply(delta), (
        "an oversized delta should be declined"
    )
    refreshed = argument_index(argument)
    assert canonical_index(refreshed) == \
        canonical_index(ArgumentIndex(argument))
