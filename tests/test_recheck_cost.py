"""What one re-check after one edit costs, and that it stays exact.

A store-backed :class:`IncrementalChecker` that follows its own handle
refreshes it on every check.  Right after the handle's own append the
manifest bytes on disk are the ones it just parsed, so that refresh
must decode nothing.  The checker also keeps each rule's report bucket
sorted as hits change, so a one-node edit calls ``_violation_key``
O(log v) times per changed violation, not once per violation.

The worker-count cap lives here too: one place (``_effective_workers``)
bounds every parallel pool, observed through a stand-in executor that
starts no process.
"""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import Future

import pytest

from repro.claims import GSN_OBLIGATION_RULES, OBLIGATION_KEY
from repro.core import analysis
from repro.core.analysis import (
    IncrementalChecker,
    _run_live,
    run_rules,
    shutdown_parallel_pools,
    worker_cap,
)
from repro.core.argument import (
    Argument,
    ArgumentError,
    LinkKind,
    MutationDelta,
)
from repro.core.nodes import Node, NodeType
from repro.store import StoredArgument

RULES = GSN_OBLIGATION_RULES.rules
PASS, FAIL = "sat: a", "sat: a & ~a"


def _case(goals: int, name: str = "recheck") -> Argument:
    """A root over ``goals`` sub-goals; every odd goal is supported by a
    solution whose obligation fails, every even goal is undeveloped, so
    each goal carries exactly one violation."""
    argument = Argument(name)
    argument.add_node(
        Node("G0", NodeType.GOAL, "The system is acceptably safe")
    )
    for index in range(1, goals + 1):
        argument.add_node(
            Node(f"G{index}", NodeType.GOAL, f"Hazard {index} is mitigated")
        )
        argument.add_link("G0", f"G{index}", LinkKind.SUPPORTED_BY)
        if index % 2:
            argument.add_node(Node(
                f"Sn{index}", NodeType.SOLUTION, f"Test report {index}",
                metadata=((OBLIGATION_KEY, (FAIL,)),),
            ))
            argument.add_link(f"G{index}", f"Sn{index}", LinkKind.SUPPORTED_BY)
    return argument


def _streaming(directory) -> list:
    return run_rules(StoredArgument(directory), RULES, mode="streaming")


def _count_manifest_decodes(monkeypatch) -> list:
    """Patch ``json.loads`` to count the decodes that yield a manifest."""
    decoded: list = []
    loads = json.loads

    def counting(*args, **kwargs):
        value = loads(*args, **kwargs)
        if isinstance(value, dict) and "shard_count" in value:
            decoded.append(value)
        return value

    monkeypatch.setattr(json, "loads", counting)
    return decoded


# -- refresh: no decode of bytes already parsed ------------------------------


@pytest.mark.store
@pytest.mark.journal
def test_append_then_check_decodes_each_manifest_once(tmp_path, monkeypatch):
    directory = tmp_path / "case.store"
    _case(12).save(directory)
    handle = StoredArgument(directory)
    checker = IncrementalChecker(handle, RULES)
    checker.check()
    decoded = _count_manifest_decodes(monkeypatch)
    cycles = 10
    for step in range(cycles):
        old = handle.node("G2")
        new = old.with_text(f"Hazard 2 is mitigated by barrier {step}")
        handle.append_delta(MutationDelta((("replace_node", (old, new)),)))
        assert handle.refresh() == "unchanged"
        checker.check()
    # One decode per committed manifest: the append's own refresh.  The
    # check's refresh (and the explicit one) read the same bytes again.
    assert len(decoded) == cycles
    monkeypatch.undo()
    assert checker.check() == _streaming(directory)


@pytest.mark.store
@pytest.mark.journal
def test_a_pinned_handle_advances_on_refresh_over_bytes_it_read(tmp_path):
    directory = tmp_path / "case.store"
    _case(4).save(directory)
    opened = StoredArgument(directory).pin()
    writer = StoredArgument(directory)
    old = writer.node("G1")
    new = old.with_text("Hazard 1 is gone")
    writer.append_delta(MutationDelta((("replace_node", (old, new)),)))
    # The pinned handle read exactly the bytes now on disk, then rewound
    # its view to the older generation: its refresh must still advance.
    pinned = StoredArgument(directory, generation=opened)
    assert pinned.pin() == opened != writer.pin()
    assert pinned.node("G1").text == "Hazard 1 is mitigated"
    assert pinned.refresh() == "journal"
    assert pinned.pin() == writer.pin()
    assert pinned.node("G1").text == "Hazard 1 is gone"
    assert pinned.refresh() == "unchanged"


@pytest.mark.store
@pytest.mark.journal
def test_another_handles_append_between_checks_is_seen(tmp_path):
    directory = tmp_path / "case.store"
    _case(6).save(directory)
    handle = StoredArgument(directory)
    checker = IncrementalChecker(handle, RULES)
    before = checker.check()
    assert checker.check() == before
    other = StoredArgument(directory)
    old = other.node("Sn1")
    other.append_delta(MutationDelta((
        ("replace_node", (old, old.with_metadata({OBLIGATION_KEY: (PASS,)}))),
    )))
    after = checker.check()
    assert after == _streaming(directory)
    assert len(after) == len(before) - 1
    assert handle.pin() == other.pin()
    # And the checker's own handle appending on top of that.
    old = handle.node("G2")
    handle.append_delta(MutationDelta((
        ("replace_node", (old, old.with_text("Hazard 2"))),
    )))
    assert checker.check() == _streaming(directory)


# -- report: sorted buckets, patched in O(log v) -----------------------------


@pytest.mark.analysis
def test_a_one_node_edit_reports_without_a_re_sort(tmp_path, monkeypatch):
    directory = tmp_path / "case.store"
    _case(220).save(directory)
    handle = StoredArgument(directory)
    checker = IncrementalChecker(handle, RULES)
    assert len(checker.check()) >= 200
    calls = []
    key = analysis._violation_key

    def counting(violation):
        calls.append(violation)
        return key(violation)

    monkeypatch.setattr(analysis, "_violation_key", counting)
    edits = [
        # No proposition: one violation more in a small bucket; then
        # the original text again, one fewer.
        ("G7", lambda node: node.with_text("Hazard 7 analysis")),
        ("G7", lambda node: node.with_text("Hazard 7 is mitigated")),
        # A passing obligation leaves a bucket of 110; failing again
        # rejoins it.
        ("Sn7", lambda node: node.with_metadata({OBLIGATION_KEY: (PASS,)})),
        ("Sn7", lambda node: node.with_metadata({OBLIGATION_KEY: (FAIL,)})),
    ]
    for identifier, edit in edits:
        old = handle.node(identifier)
        handle.append_delta(
            MutationDelta((("replace_node", (old, edit(old))),))
        )
        calls.clear()
        report = checker.check()
        assert 0 < len(calls) <= 64, len(calls)
        assert report == _streaming(directory)
    calls.clear()
    checker.check()
    assert calls == []


def _edit(argument: Argument, rng: random.Random, fresh: int) -> None:
    """One seeded edit: an obligation flip, a link added or removed, a
    retype, a node removed or added, or a text change."""
    nodes = argument.nodes
    kind = rng.choice(
        ("flip", "flip", "link+", "link-", "retype", "remove", "add", "text")
    )
    if kind == "flip":
        solutions = [n for n in nodes if n.node_type is NodeType.SOLUTION]
        if solutions:
            node = rng.choice(solutions)
            failing = FAIL in node.metadata_dict().get(OBLIGATION_KEY, ())
            spec = PASS if failing else FAIL
            argument.replace_node(
                node.with_metadata({OBLIGATION_KEY: (spec,)})
            )
            return
        kind = "add"
    if kind == "link+":
        source, target = rng.choice(nodes), rng.choice(nodes)
        link_kind = rng.choice((LinkKind.SUPPORTED_BY, LinkKind.IN_CONTEXT_OF))
        try:
            argument.add_link(source.identifier, target.identifier, link_kind)
            return
        except (ArgumentError, ValueError):
            kind = "text"
    if kind == "link-":
        if argument.links:
            argument.remove_link(rng.choice(argument.links))
            return
        kind = "text"
    if kind == "retype":
        node = rng.choice(nodes)
        new_type = rng.choice((
            NodeType.GOAL, NodeType.STRATEGY, NodeType.SOLUTION,
            NodeType.CONTEXT,
        ))
        argument.replace_node(Node(
            node.identifier, new_type, node.text, metadata=node.metadata,
        ))
        return
    if kind == "remove" and len(nodes) > 3:
        argument.remove_node(rng.choice(nodes[1:]).identifier)
        return
    if kind in ("add", "remove"):
        node_type = rng.choice((NodeType.GOAL, NodeType.SOLUTION))
        spec = rng.choice((PASS, FAIL))
        argument.add_node(Node(
            f"N{fresh}", node_type, f"Claim {fresh} holds",
            metadata=((OBLIGATION_KEY, (spec,)),)
            if node_type is NodeType.SOLUTION else (),
        ))
        argument.add_link(
            rng.choice(nodes).identifier, f"N{fresh}", LinkKind.SUPPORTED_BY
        )
        return
    node = rng.choice(nodes)
    text = rng.choice(("Hazard analysis", f"Claim {fresh} holds"))
    argument.replace_node(node.with_text(text))


@pytest.mark.analysis
@pytest.mark.parametrize("seed", [5, 29])
def test_live_and_stored_checkers_track_seeded_edits(tmp_path, seed):
    directory = tmp_path / "case.store"
    argument = _case(16, name=f"seeded-{seed}")
    argument.save(directory)
    handle = StoredArgument(directory)
    live = IncrementalChecker(argument, RULES)
    stored = IncrementalChecker(handle, RULES)
    assert live.check() == stored.check() == _run_live(argument, RULES)
    rng = random.Random(seed)
    for step in range(200):
        seq = argument.mutation_seq
        _edit(argument, rng, step)
        delta = argument.delta_since(seq)
        assert delta is not None
        handle.append_delta(delta)
        expected = _run_live(StoredArgument(directory).load(), RULES)
        assert live.check() == expected, step
        assert stored.check() == expected, step


# -- the worker cap: one place bounds every pool -----------------------------


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every pool the engine makes.  A stand-in
    executor runs each task inline, so no process starts."""
    sizes: list = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future: Future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    shutdown_parallel_pools()
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(analysis, "_SCAN_HANDLE", None)
    yield sizes
    shutdown_parallel_pools()


@pytest.mark.parallel
@pytest.mark.parametrize(
    "cpus, shards, workers, size",
    [
        (64, 4, 10_000, 4),   # the shard count caps
        (3, 8, 10_000, 3),    # the CPU count caps
        (1, 8, 10_000, 2),    # a parallel check keeps two workers
        (8, 8, 5, 5),         # a request under both caps stands
    ],
)
def test_the_pool_is_capped_at_shards_and_cpus(
    tmp_path, monkeypatch, pool_sizes, cpus, shards, workers, size
):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    directory = tmp_path / "case.store"
    argument = _case(10)
    argument.save(directory, shard_count=shards)
    report = run_rules(
        StoredArgument(directory), RULES, mode="parallel", workers=workers
    )
    assert pool_sizes == [size]
    assert report == _run_live(argument, RULES)


@pytest.mark.parallel
def test_the_worker_cap_is_the_cpu_count_but_at_least_two(monkeypatch):
    for cpus, cap in ((None, 2), (1, 2), (2, 2), (12, 12)):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert worker_cap() == cap
    # 12 CPUs: a request below two asks for no pool and stands.
    assert analysis._effective_workers(1) == 1
    assert analysis._effective_workers(None) == 12
    assert analysis._effective_workers(None, 3) == 3
    assert analysis._effective_workers(2, 1) == 2
