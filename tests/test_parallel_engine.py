"""Work-queue parallel checking: snapshot isolation, start methods, cleanup.

The forced-2-worker suite of the parallel engine rebuild — every test
here pins ``workers=2`` explicitly so the degradation path
(``effective < 2`` falls back to streaming) is never what gets tested,
whatever ``os.cpu_count()`` says about the host.  Covered contracts:

* parallel ≡ serial ≡ streaming on a **skew-sharded journaled** store
  (most identifiers mined to hash into one shard, so the old
  round-robin dealing would have idled every other worker);
* **one context, one answer** — a probe global rule asking every
  question on the global surface, for every node, gets the same
  answers in every mode (live and stored, one-shot and incremental);
* **snapshot isolation** — workers open the store at the parent's
  pinned :class:`~repro.store.StoreGeneration`: journal segments
  appended mid-check are rewound away, while a compacted (rotated)
  base raises :class:`~repro.store.StoreConflictError` naming both
  generations, and a compaction that *crashes at the manifest rename*
  (the PR 7 crash-window idiom) leaves the pinned check untouched;
* **fork safety** — :func:`repro.core.analysis._mp_context` picks
  ``fork`` only for a single-threaded parent, switches to
  ``forkserver``/``spawn`` when helper threads are alive, and honours
  the ``REPRO_MP_START`` override (the CI ``parallel`` job pins it to
  ``fork`` and ``spawn`` in turn, and leaves it unset in its ``auto``
  leg; tests that do not set it themselves run under whichever method
  the job selected);
* **failure cleanup** — the first worker exception cancels the queued
  tasks and re-raises with the failing shard noted on the exception
  (``add_note``, Python 3.11+);
* **bounded idle pools** — varying ``workers`` leaves one idle pool
  parked, never one per worker count, and consecutive checks reuse it;
* **one build** — ``parallel`` fills the checker ``streaming`` builds,
  so the two agree where the store holds a journalled re-add of a base
  link.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from zlib import crc32

import pytest

import repro
from conftest import check
from repro.analysis_static import audit_rule
from repro.core import analysis
from repro.core.analysis import (
    SCOPE_SURFACE,
    IncrementalChecker,
    Scope,
    Violation,
    _mp_context,
    global_rule,
    per_node,
    run_rules,
    shutdown_parallel_pools,
)
from repro.core.argument import Argument, Link, LinkKind, MutationDelta
from repro.core.nodes import Node, NodeType
from repro.core.wellformed import GSN_STANDARD_RULES
from repro.store import StoreConflictError, StoredArgument

pytestmark = pytest.mark.parallel

_METHODS = multiprocessing.get_all_start_methods()


def _skewed_identifier(prefix: str, counter: int, shard: int,
                       shard_count: int = 8) -> str:
    """Mine an identifier that hashes to ``shard`` (the store's id-hash
    is ``crc32(id) % shard_count`` — see ``repro.store.format``)."""
    nonce = 0
    while True:
        candidate = f"{prefix}{counter}x{nonce}"
        if crc32(candidate.encode("utf-8")) % shard_count == shard:
            return candidate
        nonce += 1


def skewed_case(hazards: int = 60, skew_every: int = 2) -> Argument:
    """A GSN case with deliberate shard skew and real violations.

    Every ``skew_every``-th hazard pair is mined into shard 0, so one
    shard carries far more than 1/8 of the store.  A handful of
    violations (unsupported goals, a solution citing support, a context
    link to a solution, a second root) keep the checkers honest.
    """
    argument = Argument("parallel-skew-fixture")
    argument.add_nodes([
        Node("G0", NodeType.GOAL, "The system is acceptably safe"),
        Node("S0", NodeType.STRATEGY, "Argument over each hazard"),
    ])
    argument.add_links([("G0", "S0", LinkKind.SUPPORTED_BY)])
    for index in range(1, hazards + 1):
        if index % skew_every == 0:
            goal = _skewed_identifier("G", index, shard=0)
            solution = _skewed_identifier("Sn", index, shard=0)
        else:
            goal = f"G{index}"
            solution = f"Sn{index}"
        argument.add_node(Node(
            goal, NodeType.GOAL, f"Hazard {index} is acceptably managed"
        ))
        argument.add_link("S0", goal, LinkKind.SUPPORTED_BY)
        argument.add_node(Node(
            solution, NodeType.SOLUTION, f"Verification record VR-{index}"
        ))
        if index % 9 == 0:
            continue  # dangling solution: solution-unreferenced fires
        argument.add_link(goal, solution, LinkKind.SUPPORTED_BY)
    # Cross-cutting violations.
    argument.add_node(Node("G_lone", NodeType.GOAL,
                           "A second root claim stands alone"))
    argument.add_node(Node("Sn_ctx", NodeType.SOLUTION, "Report used as context"))
    argument.add_link("G1", "Sn_ctx", LinkKind.IN_CONTEXT_OF)
    argument.add_link("Sn1", "Sn3", LinkKind.SUPPORTED_BY)
    return argument


def _journal_rounds(argument: Argument, store_dir, rounds: int = 6) -> None:
    """Append ``rounds`` journaled edit sessions (replace/remove/add)."""
    for round_index in range(rounds):
        # Only odd hazard indices keep their plain G{i}/Sn{i} names
        # (even ones were mined into shard 0 under other identifiers).
        target = f"G{1 + 6 * round_index}"
        node = argument.node(target)
        argument.replace_node(node.with_text(
            f"{node.text} (revalidated r{round_index})"
        ))
        fresh = _skewed_identifier("X", round_index, shard=0)
        argument.add_node(Node(
            fresh, NodeType.GOAL, f"Late-added claim {round_index} holds"
        ))
        if round_index % 2 == 0:
            churn = 5 + 6 * round_index
            argument.remove_link(
                Link(f"G{churn}", f"Sn{churn}", LinkKind.SUPPORTED_BY)
            )
        argument.save(store_dir, journal=True)


@pytest.fixture
def skewed_store(tmp_path):
    argument = skewed_case()
    store_dir = tmp_path / "skewed.store"
    argument.save(store_dir)
    _journal_rounds(argument, store_dir)
    return argument, store_dir


class TestForcedTwoWorkerEquivalence:
    def test_parallel_equals_serial_equals_streaming(self, skewed_store):
        argument, store_dir = skewed_store
        serial = check(argument)
        assert serial, "fixture must actually violate rules"
        streaming = check(
            StoredArgument(store_dir), mode="streaming"
        )
        handle = StoredArgument(store_dir)
        parallel = check(
            handle, mode="parallel", workers=2
        )
        assert serial == streaming == parallel

    def test_parent_parses_nothing(self, skewed_store):
        # The work-queue design's no-serial-parsing guarantee: workers
        # parse every shard; the parent only rebuilds its sidecar from
        # the shipped fragment rows.
        _, store_dir = skewed_store
        handle = StoredArgument(store_dir)
        check(handle, mode="parallel", workers=2)
        assert not handle.hydrated
        assert handle.shards_read == set()

    def test_live_argument_parallel_equivalence(self, skewed_store):
        argument, _ = skewed_store
        assert check(
            argument, mode="parallel", workers=2
        ) == check(argument)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_equivalence_under_pinned_start_method(
        self, skewed_store, monkeypatch, method
    ):
        if method not in _METHODS:
            pytest.skip(f"start method {method!r} unavailable here")
        monkeypatch.setenv("REPRO_MP_START", method)
        argument, store_dir = skewed_store
        assert check(
            StoredArgument(store_dir), mode="parallel", workers=2
        ) == check(argument)


def test_journalled_readd_of_a_base_link_reports_once_in_every_mode(
    tmp_path,
):
    # append_delta does not yet refuse an add_link of a present link, so
    # the overlay streams Sn1 -> G1 twice.  Each link rule must still
    # report the link once, in every mode.
    argument = Argument("readd")
    argument.add_nodes([
        Node("G1", NodeType.GOAL, "The system is acceptably safe"),
        Node("Sn1", NodeType.SOLUTION, "Test report TR-1"),
        Node("G2", NodeType.GOAL, "The controller is acceptably safe"),
    ])
    argument.add_links([
        ("G1", "G2", LinkKind.SUPPORTED_BY),
        ("Sn1", "G1", LinkKind.SUPPORTED_BY),
    ])
    store_dir = tmp_path / "readd.store"
    argument.save(store_dir)
    StoredArgument(store_dir).append_delta(MutationDelta((
        ("add_link", Link("Sn1", "G1", LinkKind.SUPPORTED_BY)),
    )))
    serial = check(argument)
    assert [v.rule for v in serial if v.subject == "Sn1 -> G1"] == [
        "supported-by-source", "solution-leaf",
    ]
    streaming = check(StoredArgument(store_dir), mode="streaming")
    parallel = check(StoredArgument(store_dir), mode="parallel", workers=2)
    assert parallel == streaming == serial


class TestSnapshotIsolation:
    def test_pinned_open_serves_older_generation_after_append(
        self, skewed_store, tmp_path
    ):
        _, store_dir = skewed_store
        reader = StoredArgument(store_dir)
        token = reader.pin()
        nodes_before = reader.node_count
        editor = StoredArgument(store_dir).load()
        editor.add_node(Node("Z_late", NodeType.GOAL, "Appended behind pin"))
        editor.save(store_dir, journal=True)
        reopened = StoredArgument(store_dir, generation=token)
        assert reopened.pin() == token
        assert reopened.node_count == nodes_before
        assert "Z_late" not in reopened
        assert "Z_late" in StoredArgument(store_dir)

    def test_pinned_open_to_journal_free_base(self, tmp_path):
        # Rewinding to a generation with *no* segments must patch the
        # counts back to the base totals (the manifest's counts already
        # include the newer journal's deltas).
        argument = skewed_case(hazards=8)
        store_dir = tmp_path / "base.store"
        argument.save(store_dir)
        token = StoredArgument(store_dir).pin()
        total = len(argument)
        argument.add_node(Node("Z1", NodeType.GOAL, "Post-pin claim"))
        argument.save(store_dir, journal=True)
        reopened = StoredArgument(store_dir, generation=token)
        assert reopened.node_count == total
        assert reopened.pin() == token

    def test_pinned_open_conflicts_after_compact(self, skewed_store):
        _, store_dir = skewed_store
        token = StoredArgument(store_dir).pin()
        StoredArgument(store_dir).compact()
        with pytest.raises(StoreConflictError) as excinfo:
            StoredArgument(store_dir, generation=token)
        message = str(excinfo.value)
        assert str(token) in message, "conflict must name the pinned generation"
        assert str(StoredArgument(store_dir).pin()) in message, \
            "conflict must name the generation found on disk"

    def test_pinned_open_conflicts_after_coalesce(self, skewed_store):
        _, store_dir = skewed_store
        token = StoredArgument(store_dir).pin()
        assert len(token.segments) > 1
        StoredArgument(store_dir).coalesce()
        with pytest.raises(StoreConflictError):
            StoredArgument(store_dir, generation=token)

    def test_parallel_check_sees_pinned_snapshot_despite_append(
        self, skewed_store
    ):
        _, store_dir = skewed_store
        reader = StoredArgument(store_dir)
        pinned_view = check(reader, mode="streaming")
        editor = StoredArgument(store_dir).load()
        editor.add_node(Node("Z_mid", NodeType.GOAL,
                             "Appended while the check ran"))
        editor.save(store_dir, journal=True)
        # The stale reader's parallel check must equal its own snapshot,
        # not the moved HEAD (which now has one more unsupported goal).
        parallel = check(reader, mode="parallel", workers=2)
        assert parallel == pinned_view
        head = check(
            StoredArgument(store_dir), mode="streaming"
        )
        assert parallel != head

    def test_parallel_check_conflicts_when_base_rotates(self, skewed_store):
        # The generation-rotation regression: pre-rebuild, workers
        # opened whatever HEAD they found and silently checked a store
        # the parent never pinned.
        _, store_dir = skewed_store
        reader = StoredArgument(store_dir)
        StoredArgument(store_dir).compact()
        with pytest.raises(StoreConflictError) as excinfo:
            check(reader, mode="parallel", workers=2)
        assert str(reader.pin()) in str(excinfo.value)

    def test_crashed_compaction_leaves_pinned_check_untouched(
        self, skewed_store, monkeypatch
    ):
        # The PR 7 crash-window idiom: the compaction dies at the
        # manifest rename, so the swap never commits — the pinned
        # generation is still HEAD and the parallel check must succeed.
        _, store_dir = skewed_store
        reader = StoredArgument(store_dir)
        expected = check(reader, mode="streaming")
        real_replace = os.replace

        def exploding_replace(src, dst, **kwargs):
            if str(dst).endswith("manifest.json"):
                raise OSError(28, "simulated crash at the rename window")
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            StoredArgument(store_dir).compact()
        monkeypatch.undo()
        assert check(
            reader, mode="parallel", workers=2
        ) == expected


class TestStartMethodSelection:
    @pytest.mark.skipif("fork" not in _METHODS,
                        reason="no fork on this platform")
    def test_single_threaded_parent_prefers_fork(self, monkeypatch):
        from repro.core.analysis import _foreign_thread_count

        monkeypatch.delenv("REPRO_MP_START", raising=False)
        if _foreign_thread_count() > 1:
            pytest.skip("test runner already has foreign helper threads")
        # A cached idle pool's manager threads must NOT disqualify fork
        # (the pool is reused, or joined before a new pool forks).
        assert _mp_context().get_start_method() == "fork"

    def test_threaded_parent_never_forks(self, monkeypatch):
        monkeypatch.delenv("REPRO_MP_START", raising=False)
        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        helper.start()
        try:
            assert _mp_context().get_start_method() in (
                "forkserver", "spawn"
            )
        finally:
            release.set()
            helper.join()

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        assert _mp_context().get_start_method() == "spawn"

    def test_unknown_override_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "vfork")
        with pytest.raises(ValueError):
            _mp_context()


def _exploding_rule(node, ctx):
    """Module-level (spawn-picklable) rule that fails on one node."""
    if node.identifier == "G1":
        raise RuntimeError("rule exploded in a worker")
    return []


class TestFailureCleanup:
    def test_stored_failure_surfaces_and_names_the_shard(self, skewed_store):
        _, store_dir = skewed_store
        rules = (per_node("boom", "explodes on G1", _exploding_rule),)
        with pytest.raises(RuntimeError, match="rule exploded") as excinfo:
            run_rules(StoredArgument(store_dir), rules,
                      mode="parallel", workers=2)
        if sys.version_info >= (3, 11):
            notes = getattr(excinfo.value, "__notes__", [])
            assert any("shard" in note for note in notes), notes

    def test_live_failure_surfaces_in_process(self, skewed_store):
        # A live argument is never shipped to workers: parallel
        # resolves to serial and the rule's error surfaces directly.
        argument, _ = skewed_store
        rules = (per_node("boom", "explodes on G1", _exploding_rule),)
        with pytest.raises(RuntimeError, match="rule exploded"):
            run_rules(argument, rules, mode="parallel", workers=2)
        assert repro.check(argument, mode="parallel", workers=2).mode \
            == "serial"

    def test_corruption_still_pickles_across_the_pool(self, skewed_store):
        from repro.store import StoreCorruptionError

        _, store_dir = skewed_store
        handle = StoredArgument(store_dir)
        shard_name = handle.manifest["node_shards"][0]
        shard_path = store_dir / shard_name
        shard_path.write_bytes(shard_path.read_bytes() + b"garbage\n")
        with pytest.raises(StoreCorruptionError):
            check(handle, mode="parallel", workers=2)


# -- one context, one answer ------------------------------------------------


def surface_probe(identifiers):
    """A global rule asking every global-surface question per node."""
    assert set(SCOPE_SURFACE[Scope.GLOBAL]) == {
        "name", "node_type", "cites_support", "roots", "find_cycle",
        "has_support", "supported_walk",
    }, "the probe must ask every member of the global surface"

    def probe(ctx):
        found = [
            Violation("surface-probe", ctx.name, f"roots {ctx.roots()}"),
            Violation("surface-probe", ctx.name, f"cycle {ctx.find_cycle()}"),
        ]
        for identifier in identifiers:
            reached = sorted(ctx.supported_walk(identifier))
            supports = [
                target for target in reached
                if ctx.has_support(identifier, target)
            ]
            found.append(Violation(
                "surface-probe", identifier,
                f"{ctx.node_type(identifier).value} "
                f"cites={ctx.cites_support(identifier)} "
                f"supports={supports} reaches={reached}",
            ))
        return found

    return global_rule("surface-probe", "asks every global question", probe)


def unsupported_root_case() -> Argument:
    """A small developed case plus one root goal with no support."""
    argument = Argument("unsupported-root")
    argument.add_nodes([
        Node("G1", NodeType.GOAL, "The system is acceptably safe"),
        Node("S1", NodeType.STRATEGY, "Argument over each hazard"),
        Node("G2", NodeType.GOAL, "Hazard H1 is mitigated"),
        Node("Sn1", NodeType.SOLUTION, "Fault tree analysis FTA-1"),
        Node("G9", NodeType.GOAL, "The lone claim has no support"),
    ])
    argument.add_links([
        ("G1", "S1", LinkKind.SUPPORTED_BY),
        ("S1", "G2", LinkKind.SUPPORTED_BY),
        ("G2", "Sn1", LinkKind.SUPPORTED_BY),
    ])
    return argument


def _develop_one_more_hazard(argument: Argument, store_dir) -> None:
    argument.add_nodes([
        Node("G3", NodeType.GOAL, "Hazard H3 is mitigated"),
        Node("Sn3", NodeType.SOLUTION, "Test report TR-3"),
    ])
    argument.add_links([
        ("S1", "G3", LinkKind.SUPPORTED_BY),
        ("G3", "Sn3", LinkKind.SUPPORTED_BY),
    ])
    argument.save(store_dir, journal=True)


@pytest.mark.parametrize("case, edit", [
    (skewed_case, _journal_rounds),
    (unsupported_root_case, _develop_one_more_hazard),
], ids=["skewed", "unsupported-root"])
def test_every_mode_answers_the_global_surface_alike(tmp_path, case, edit):
    argument = case()
    rules = GSN_STANDARD_RULES.rules + (
        surface_probe(tuple(node.identifier for node in argument.nodes)),
    )
    assert audit_rule(rules[-1]) == [], "the probe keeps the contract"
    store_dir = tmp_path / "probe.store"
    argument.save(store_dir)
    live_incremental = IncrementalChecker(argument, rules)
    stored_incremental = IncrementalChecker(StoredArgument(store_dir), rules)
    edit(argument, store_dir)
    serial = run_rules(argument, rules, mode="serial")
    assert [v for v in serial if v.rule == "surface-probe"]
    assert serial == run_rules(
        StoredArgument(store_dir), rules, mode="streaming"
    )
    assert serial == run_rules(
        StoredArgument(store_dir), rules, mode="parallel", workers=2
    )
    assert serial == live_incremental.check()
    assert serial == stored_incremental.check()


# -- bounded idle pools -----------------------------------------------------


def _children_settle_to(limit: int, timeout: float = 30.0) -> int:
    """Live child processes, once at most ``limit`` or the timeout hits."""
    deadline = time.monotonic() + timeout
    while True:
        alive = len(multiprocessing.active_children())
        if alive <= limit or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


def test_varying_worker_counts_park_at_most_one_pool(tmp_path, monkeypatch):
    # Requests of 2..11 workers on a 4-shard store with 3 CPUs make pools
    # of 2 and then 3 (the CPU cap): the key changes once, and only the
    # last pool stays parked.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argument = skewed_case(hazards=8)
    store_dir = tmp_path / "pools.store"
    argument.save(store_dir, shard_count=4)
    shutdown_parallel_pools()
    assert _children_settle_to(0) == 0
    expected = check(argument)
    handle = StoredArgument(store_dir)
    for workers in range(2, 12):
        assert check(handle, mode="parallel", workers=workers) == expected
    parked = analysis._IDLE_POOL
    assert parked is not None, "the last pool must stay warm"
    (_, size), _ = parked
    assert size == 3
    assert _children_settle_to(size) <= size


def test_consecutive_checks_reuse_the_parked_pool(tmp_path, monkeypatch):
    # The start method is chosen afresh per check; the parked pool's own
    # manager thread must not make the second check pick another method
    # (and so another pool key) than the first.
    monkeypatch.delenv("REPRO_MP_START", raising=False)
    argument = skewed_case(hazards=8)
    store_dir = tmp_path / "reuse.store"
    argument.save(store_dir, shard_count=2)
    shutdown_parallel_pools()
    # Let retired pools' threads exit, so the first check may fork.
    deadline = time.monotonic() + 10.0
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.05)
    expected = check(argument)
    handle = StoredArgument(store_dir)
    assert check(handle, mode="parallel", workers=2) == expected
    first = analysis._IDLE_POOL
    assert first is not None
    assert check(handle, mode="parallel", workers=2) == expected
    second = analysis._IDLE_POOL
    assert second is not None and second[1] is first[1], (first, second)


def test_shutdown_joins_every_worker_of_the_parked_pool(tmp_path):
    # An unjoined pool's workers outlive the call, and on Python 3.10
    # the exit hook could then write to the pool's closed wakeup pipe.
    argument = skewed_case(hazards=8)
    store_dir = tmp_path / "join.store"
    argument.save(store_dir, shard_count=2)
    expected = check(argument)
    handle = StoredArgument(store_dir)
    assert check(handle, mode="parallel", workers=2) == expected
    parked = analysis._IDLE_POOL
    assert parked is not None
    workers = list(parked[1]._processes.values())
    assert workers
    shutdown_parallel_pools()
    assert [worker.pid for worker in workers if worker.is_alive()] == []
