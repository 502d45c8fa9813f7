"""The ``single-root`` incremental hook: equal to the full rule, and cheap.

``_rule_single_root_delta`` keeps the previous verdict unless a batch
can move the root list (a claim-like node added or removed, a retype
across claim-likeness, a SupportedBy link into a claim-like node).
Two promises are pinned here:

* whenever the hook answers, its answer equals the full rule over the
  same context, and a live and two store-backed
  :class:`~repro.core.analysis.IncrementalChecker` (one following its
  handle, one following pinned snapshots) all equal a fresh one-shot
  check after every batch (randomised over a universe of four
  identifiers, every node type and both link kinds, plus the named
  scenarios as explicit examples);
* a check after an edit that cannot move the roots walks no node list:
  ``roots()`` is not called at all.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.analysis import (
    IncrementalChecker,
    Violation,
    _LiveContext,
    _Sidecar,
    run_rules,
)
from repro.core.argument import Argument, ArgumentError, Link, LinkKind
from repro.core.nodes import Node, NodeType
from repro.core.wellformed import (
    GSN_STANDARD_RULES,
    _rule_single_root,
    _rule_single_root_delta,
)
from repro.store import StoredArgument

pytestmark = pytest.mark.analysis

RULES = GSN_STANDARD_RULES.rules
IDS = ("A", "B", "C", "D")
SB = LinkKind.SUPPORTED_BY
IC = LinkKind.IN_CONTEXT_OF
GOAL = NodeType.GOAL
SOLUTION = NodeType.SOLUTION


def _node(identifier: str, node_type: NodeType, version: int = 0) -> Node:
    return Node(
        identifier,
        node_type,
        f"Claim {identifier} holds (v{version})",
        module="M" if node_type is NodeType.AWAY_GOAL else None,
    )


def _apply(argument: Argument, op: tuple, version: int) -> None:
    """Apply one generated op; ops invalid in the current state are
    skipped (every mutator validates before it changes anything)."""
    name = op[0]
    try:
        if name == "add_node":
            argument.add_node(_node(op[1], op[2], version))
        elif name == "remove_node":
            argument.remove_node(op[1])
        elif name == "replace_node":
            argument.replace_node(_node(op[1], op[2], version))
        elif name == "add_link":
            argument.add_link(op[1], op[2], op[3])
        else:
            argument.remove_link(Link(op[1], op[2], op[3]))
    except ArgumentError:
        pass


def _probed_rules(answers: "list[bool]") -> tuple:
    """The standard rules with a single-root hook that checks itself
    against the full rule over the same context every time it answers."""

    def probe(ctx, records, previous):
        found = _rule_single_root_delta(ctx, records, previous)
        if found is not None:
            assert found == _rule_single_root(ctx), records
        answers.append(found is not None)
        return found

    return tuple(
        dataclasses.replace(rule, delta_fn=probe)
        if rule.name == "single-root" else rule
        for rule in RULES
    )


SEEDS = {
    "empty": [],
    "rooted": [("add_node", "A", GOAL)],
    "two-roots": [("add_node", "A", GOAL), ("add_node", "B", GOAL)],
    "chain": [
        ("add_node", "A", GOAL),
        ("add_node", "B", GOAL),
        ("add_link", "A", "B", SB),
    ],
}


def drive(seed: str, batches: "list[list[tuple]]") -> "list[bool]":
    """Run the batches through a live and two store-backed checkers.

    One store-backed checker follows its own handle (``check()``); the
    other follows pinned snapshots the way the service does
    (``check(snapshot)``), so its link index, built on the first batch
    that asks about links, must come from the snapshot of that batch.
    Returns whether the hook answered, call by call, so callers can
    assert it was exercised.
    """
    answers: "list[bool]" = []
    rules = _probed_rules(answers)
    argument = Argument("roots")
    for op in SEEDS[seed]:
        _apply(argument, op, 0)
    with tempfile.TemporaryDirectory() as scratch:
        store = Path(scratch) / "case.store"
        argument.save(store)
        writer = StoredArgument(store)
        live = IncrementalChecker(argument, rules)
        stored = IncrementalChecker(StoredArgument(store), rules)
        pinned = IncrementalChecker(StoredArgument(store), rules)
        assert live.check() == stored.check() == run_rules(argument, RULES)
        for version, batch in enumerate(batches, start=1):
            seq = argument.mutation_seq
            with argument.batch():
                for op in batch:
                    _apply(argument, op, version)
            writer.append_delta(argument.delta_since(seq))
            expected = run_rules(argument, RULES)
            assert live.check() == expected, batch
            assert stored.check() == expected, batch
            snapshot = StoredArgument(store)
            assert pinned.check(snapshot) == expected, batch
            assert run_rules(snapshot, RULES, mode="streaming") == expected
            assert run_rules(snapshot.load(), RULES) == expected
    return answers


_ids = st.sampled_from(IDS)
_ops = st.one_of(
    st.tuples(st.just("add_node"), _ids, st.sampled_from(list(NodeType))),
    st.tuples(st.just("remove_node"), _ids),
    st.tuples(
        st.just("replace_node"), _ids, st.sampled_from(list(NodeType))
    ),
    st.tuples(
        st.just("add_link"), _ids, _ids, st.sampled_from([SB, SB, IC])
    ),
    st.tuples(
        st.just("remove_link"), _ids, _ids, st.sampled_from([SB, IC])
    ),
)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.sampled_from(sorted(SEEDS)),
    batches=st.lists(st.lists(_ops, min_size=1, max_size=4), max_size=6),
)
# A second root goal.
@example(seed="rooted", batches=[[("add_node", "B", GOAL)]])
# Removing the only root.
@example(seed="rooted", batches=[[("remove_node", "A")]])
# A goal retyped to a solution and back.
@example(seed="chain", batches=[
    [("replace_node", "B", SOLUTION)], [("replace_node", "B", GOAL)],
])
# A SupportedBy link added to and removed from a goal.
@example(seed="two-roots", batches=[
    [("add_link", "A", "B", SB)], [("remove_link", "A", "B", SB)],
])
# A link whose target is removed in the same batch.
@example(seed="rooted", batches=[
    [("add_node", "C", SOLUTION), ("add_link", "A", "C", SB),
     ("remove_node", "C")],
    [("add_node", "B", GOAL)],
    [("add_link", "A", "B", SB), ("remove_node", "B")],
])
# Remove and re-add of a root: it orders last.
@example(seed="two-roots", batches=[
    [("remove_node", "A"), ("add_node", "A", GOAL)],
])
# The multi-root message order.
@example(seed="two-roots", batches=[
    [("add_node", "C", NodeType.AWAY_GOAL)],
    [("add_node", "D", SOLUTION), ("add_link", "A", "D", SB)],
    [("remove_node", "B")],
])
# The first batch to ask about links adds one to a node and retypes it.
@example(seed="two-roots", batches=[
    [("add_link", "A", "B", SB), ("replace_node", "B", NodeType.CONTEXT)],
])
def test_hook_equals_the_full_rule(seed, batches) -> None:
    drive(seed, batches)


def test_named_scenarios_reach_both_verdicts() -> None:
    # The hook must answer where the roots cannot move and decline
    # where they can; otherwise the equivalence test proves nothing.
    answers = drive("two-roots", [
        [("remove_node", "A"), ("add_node", "A", GOAL)],
        [("add_node", "C", SOLUTION), ("add_link", "A", "C", SB),
         ("remove_node", "C")],
        [("add_link", "A", "B", IC)],
    ])
    # One answer per batch from the live checker, then the store-backed
    # one that follows its handle, then the one that follows snapshots.
    assert answers == [False] * 3 + [True] * 6


def _hook_after(
    seed: str, batch: "list[tuple]"
) -> "list[Violation] | None":
    """The hook's answer for one batch applied to a seed shape."""
    argument = Argument("roots")
    for op in SEEDS[seed]:
        _apply(argument, op, 0)
    ctx = _LiveContext(argument)
    previous = tuple(_rule_single_root(ctx))
    seq = argument.mutation_seq
    for op in batch:
        _apply(argument, op, 1)
    records = argument.delta_since(seq).records
    return _rule_single_root_delta(ctx, records, previous)


@pytest.mark.parametrize("seed, batch, answers", [
    ("chain", [("replace_node", "B", NodeType.AWAY_GOAL)], True),
    ("chain", [("replace_node", "B", SOLUTION)], False),
    ("rooted", [("add_node", "B", SOLUTION)], True),
    ("rooted", [("add_node", "B", GOAL)], False),
    ("chain", [("remove_node", "B")], False),
    ("chain", [("remove_link", "A", "B", SB)], False),
    ("two-roots", [("add_link", "A", "B", SB)], False),
    ("two-roots", [("add_link", "A", "B", IC)], True),
    ("rooted", [("add_node", "B", SOLUTION), ("add_link", "A", "B", SB)],
     True),
    ("rooted", [("add_node", "B", SOLUTION), ("add_link", "A", "B", SB),
                ("remove_node", "B")], True),
])
def test_hook_declines_exactly_when_the_roots_can_move(
    seed, batch, answers
) -> None:
    assert (_hook_after(seed, batch) is not None) is answers


# -- no whole-graph walk after an edit --------------------------------------


def _case() -> Argument:
    argument = Argument("guarded")
    argument.add_node(Node("G0", GOAL, "The system is safe"))
    argument.add_node(Node("S0", NodeType.STRATEGY, "Argue over hazards"))
    argument.add_link("G0", "S0", SB)
    for index in range(1, 6):
        argument.add_node(Node(f"G{index}", GOAL, f"Hazard {index} holds"))
        argument.add_link("S0", f"G{index}", SB)
        argument.add_node(Node(f"Sn{index}", SOLUTION, f"Record {index}"))
        argument.add_link(f"G{index}", f"Sn{index}", SB)
    return argument


@pytest.mark.journal
@pytest.mark.parametrize("backing", ["live", "store"])
def test_an_edit_that_cannot_move_the_roots_walks_no_nodes(
    backing, tmp_path, monkeypatch
) -> None:
    calls: "list[str]" = []
    for context in (_Sidecar, _LiveContext):
        original = context.roots

        def counting(self, _original=original):
            calls.append(type(self).__name__)
            return _original(self)

        monkeypatch.setattr(context, "roots", counting)
    argument = _case()
    store = tmp_path / "case.store"
    argument.save(store)
    writer = StoredArgument(store)
    subject = argument if backing == "live" else StoredArgument(store)
    checker = IncrementalChecker(subject, RULES)
    assert checker.check() == []  # the warm-up check

    def edit_and_count(edit) -> int:
        seq = argument.mutation_seq
        edit()
        writer.append_delta(argument.delta_since(seq))
        calls.clear()
        found = checker.check()
        walks = len(calls)
        assert found == run_rules(argument, RULES)
        return walks

    assert edit_and_count(lambda: argument.replace_node(
        argument.node("G2").with_text("Hazard 2 is closed")
    )) == 0

    def add_evidence() -> None:
        argument.add_node(Node("Sn9", SOLUTION, "Review record 9"))
        argument.add_link("G3", "Sn9", SB)

    assert edit_and_count(add_evidence) == 0
    assert edit_and_count(lambda: argument.add_node(
        Node("G9", GOAL, "A second claim holds")
    )) == 1
    assert [v.rule for v in checker.check()] == [
        "single-root", "undeveloped-unmarked",
    ]
