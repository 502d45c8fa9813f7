"""Durability and multi-editor concurrency of the sharded store.

The bugs this suite pins down (and their fixes):

* **durability** — sealed shard/segment/manifest files must be fsynced
  *before* their content-addressed rename and the directory *after* the
  manifest swap, else a power loss can publish a name with torn content
  or make the commit point itself vanish (``set_durability`` /
  ``REPRO_STORE_FSYNC=0`` is the test opt-out);
* **tmp collisions** — in-flight files carry a pid+random infix, so two
  processes saving into one directory can never scribble over each
  other's half-written data (and ``gc()``/fsck recognise both the
  unique and the legacy deterministic form);
* **lost updates** — ``save(journal=True)`` onto a store that moved
  past the argument's baseline raises
  :class:`~repro.store.StoreConflictError` (``force=True`` overwrites
  deliberately) instead of silently rewriting another writer's commit;
* **torn-overlay refresh** — a reader that recovered a torn journal
  tail must rebuild, not extend, its overlay when the journal grows or
  the segment is repaired in place;
* **coalesce crash and fault windows** — a crash sealing the merged
  segment or at its manifest swap leaves the old generation (and only
  gc-able litter), and a segment rewritten on disk after the handle
  parsed it fails the byte-copying coalesce before anything commits;
* and the **multi-process torture test**: concurrent writer processes
  and snapshot readers over one directory — every committed update
  survives, no reader ever observes a torn generation, and the final
  store is fsck-clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any

import pytest

from conftest import store_files
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.store import (
    StoreConflictError,
    StoreCorruptionError,
    StoredArgument,
    set_durability,
)
from repro.store import writer as writer_module
from repro.store.format import LEASE_NAME, MANIFEST_NAME, tmp_name
from repro.store.lease import writer_lease

pytestmark = pytest.mark.service

SRC = str(Path(__file__).resolve().parent.parent / "src")


def small_argument(name: str = "concurrency-case") -> Argument:
    argument = Argument(name)
    argument.add_node(Node("G0", NodeType.GOAL, "The claim holds"))
    argument.add_node(Node("Sn0", NodeType.SOLUTION, "Evidence record"))
    argument.add_link("G0", "Sn0", LinkKind.SUPPORTED_BY)
    return argument


class _FsyncLog:
    """Record fsync and rename events, in order, with resolved names."""

    def __init__(self, monkeypatch: Any) -> None:
        self.events: "list[tuple[str, str]]" = []
        original_fsync = os.fsync
        original_replace = os.replace

        def logging_fsync(fd: int) -> None:
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:  # pragma: no cover - non-procfs platform
                target = "?"
            self.events.append(("fsync", target))
            original_fsync(fd)

        def logging_replace(src: Any, dst: Any, **kwargs: Any) -> None:
            original_replace(src, dst, **kwargs)
            self.events.append(("rename", os.fspath(dst)))

        monkeypatch.setattr(os, "fsync", logging_fsync)
        monkeypatch.setattr(os, "replace", logging_replace)

    def fsyncs_before(self, rename_suffix: str) -> "list[str]":
        """Paths fsynced before the first rename ending in the suffix."""
        synced: "list[str]" = []
        for kind, target in self.events:
            if kind == "fsync":
                synced.append(target)
            elif target.endswith(rename_suffix):
                return synced
        raise AssertionError(f"no rename to ...{rename_suffix} happened")


class TestDurability:
    def test_save_fsyncs_files_before_rename_and_directory_after(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "case.store"
        set_durability(True)  # the autouse fixture turned it off
        try:
            log = _FsyncLog(monkeypatch)
            manifest = small_argument().save(store)
        finally:
            set_durability(False)
        # Every sealed shard's rename was preceded by an fsync of the
        # tmp file that became it.
        for name in manifest["shards"]:
            synced = log.fsyncs_before(name)
            assert any(".tmp" in path for path in synced), (
                f"shard {name} was renamed without fsyncing its tmp file"
            )
        # The manifest swap: tmp fsynced before the rename, the
        # *directory* fsynced after it.
        manifest_index = next(
            index for index, (kind, target) in enumerate(log.events)
            if kind == "rename" and target.endswith(MANIFEST_NAME)
        )
        after = log.events[manifest_index + 1:]
        assert ("fsync", str(store)) in after, (
            "the store directory must be fsynced after the manifest "
            "swap, or the commit can vanish on power loss"
        )

    def test_journal_append_fsyncs_the_segment(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        argument.add_node(Node("X1", NodeType.GOAL, "A late claim holds"))
        set_durability(True)
        try:
            log = _FsyncLog(monkeypatch)
            manifest = argument.save(store, journal=True)
        finally:
            set_durability(False)
        (segment,) = manifest["journal"]
        assert any(".tmp" in path for path in log.fsyncs_before(segment)), (
            "journal segment renamed without fsyncing its content first"
        )

    def test_a_journal_append_makes_three_fsyncs(self, tmp_path, monkeypatch):
        """The sealed segment, the manifest tmp file and the directory:
        the writer lock itself adds none."""
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        argument.add_node(Node("X1", NodeType.GOAL, "A late claim holds"))
        set_durability(True)
        try:
            log = _FsyncLog(monkeypatch)
            argument.save(store, journal=True)
        finally:
            set_durability(False)
        synced = [target for kind, target in log.events if kind == "fsync"]
        assert len(synced) == 3, synced
        assert not any(LEASE_NAME in target for target in synced)

    def test_opt_out_skips_every_fsync(self, tmp_path, monkeypatch):
        calls: "list[int]" = []
        original = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(fd), original(fd))
        )
        set_durability(False)
        small_argument().save(tmp_path / "case.store")
        assert not calls, "durability off must mean zero fsync calls"

    def test_set_durability_returns_previous_value(self):
        previous = set_durability(True)
        assert set_durability(previous) is True


class TestTmpCollisions:
    def test_tmp_names_are_unique_per_call(self):
        names = {tmp_name("nodes-0003") for _ in range(64)}
        assert len(names) == 64
        for name in names:
            assert name.startswith("nodes-0003.")
            assert name.endswith(".tmp")

    def test_gc_sweeps_unique_and_legacy_tmp_forms(self, tmp_path):
        store = tmp_path / "case.store"
        small_argument().save(store)
        legacy = "links-0002.tmp"
        unique = tmp_name("nodes-0001")
        manifest_tmp = tmp_name(MANIFEST_NAME)
        for name in (legacy, unique, manifest_tmp):
            (store / name).write_bytes(b"half-written junk")
        removed = StoredArgument(store).gc()
        assert set(removed) == {legacy, unique, manifest_tmp}

    def test_interrupted_writer_cannot_be_overwritten_midflight(
        self, tmp_path, monkeypatch
    ):
        """A second save's in-flight files never share the first's names.

        Simulated by capturing the tmp paths a save opens and asserting
        a concurrent save in the same directory opens disjoint ones —
        the exact collision the deterministic ``<base>.tmp`` scheme had.
        """
        store = tmp_path / "case.store"
        opened: "list[str]" = []
        original_init = writer_module._ShardWriter.__init__

        def spying_init(self, directory, base, compression=None):
            original_init(self, directory, base, compression)
            opened.append(self._tmp.name)

        monkeypatch.setattr(writer_module._ShardWriter, "__init__", spying_init)
        small_argument().save(store)
        first = set(opened)
        opened.clear()
        small_argument().save(store)
        assert first.isdisjoint(opened), (
            "two saves opened the same in-flight filename"
        )


class TestCrashWindows:
    def _crash_on_rename_to(self, monkeypatch, suffix: str) -> None:
        original = os.replace

        def crashing_replace(src: Any, dst: Any, **kwargs: Any) -> None:
            if os.fspath(dst).endswith(suffix):
                raise OSError(28, "simulated crash at the rename window")
            original(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", crashing_replace)

    def test_crash_before_manifest_swap_preserves_the_old_store(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        before = store_files(store)
        changed = small_argument()
        changed.add_node(Node("X1", NodeType.GOAL, "A doomed claim"))
        self._crash_on_rename_to(monkeypatch, MANIFEST_NAME)
        with pytest.raises(OSError, match="simulated crash"):
            changed.save(store)
        monkeypatch.undo()
        loaded = StoredArgument(store).load()
        assert loaded == argument, "interrupted save damaged the old store"
        # The sealed-but-unreferenced files are exactly gc's inventory;
        # after the sweep the directory is byte-identical to before.
        StoredArgument(store).gc()
        assert store_files(store) == before

    def test_crash_during_append_leaves_previous_state_loadable(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        snapshot = argument.copy()
        argument.add_node(Node("X1", NodeType.GOAL, "A doomed claim"))
        self._crash_on_rename_to(monkeypatch, MANIFEST_NAME)
        with pytest.raises(OSError, match="simulated crash"):
            argument.save(store, journal=True)
        monkeypatch.undo()
        assert StoredArgument(store).load() == snapshot
        report_orphans = StoredArgument(store).gc()
        assert any(name.startswith("journal-") for name in report_orphans)

    def test_crash_sealing_a_shard_leaves_only_tmp_litter(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        before = store_files(store)

        def crashing_finish(self):
            raise OSError(28, "simulated crash sealing a shard")

        monkeypatch.setattr(
            writer_module._ShardWriter, "finish", crashing_finish
        )
        with pytest.raises(OSError, match="sealing a shard"):
            small_argument().save(store)
        monkeypatch.undo()
        assert StoredArgument(store).load() == argument
        StoredArgument(store).gc()
        assert store_files(store) == before


    @staticmethod
    def _journaled_store(tmp_path, segments: int = 4):
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        for index in range(segments):
            argument.add_node(Node(
                f"J{index}", NodeType.GOAL, f"Journaled claim {index}",
            ))
            argument.save(store, journal=True)
        return store, argument

    @pytest.mark.journal
    def test_crash_sealing_the_merged_segment_leaves_only_tmp_litter(
        self, tmp_path, monkeypatch
    ):
        store, argument = self._journaled_store(tmp_path)
        before = store_files(store)
        ops = list(StoredArgument(store).journal_ops())

        def crashing_finish(self):
            raise OSError(28, "simulated crash sealing a segment")

        monkeypatch.setattr(
            writer_module._ShardWriter, "finish", crashing_finish
        )
        with pytest.raises(OSError, match="sealing a segment"):
            StoredArgument(store).coalesce()
        monkeypatch.undo()
        litter = set(store_files(store)) - set(before)
        assert litter and all(name.endswith(".tmp") for name in litter)
        reopened = StoredArgument(store)
        assert reopened.journal_ops() == ops
        assert reopened.load() == argument
        assert sorted(StoredArgument(store).gc()) == sorted(litter)
        assert store_files(store) == before

    @pytest.mark.journal
    def test_crash_at_the_coalesce_manifest_swap_keeps_the_old_generation(
        self, tmp_path, monkeypatch
    ):
        store, argument = self._journaled_store(tmp_path)
        before = store_files(store)
        handle = StoredArgument(store)
        generation = handle.pin()
        ops = list(handle.journal_ops())
        self._crash_on_rename_to(monkeypatch, MANIFEST_NAME)
        with pytest.raises(OSError, match="simulated crash"):
            handle.coalesce()
        monkeypatch.undo()
        reopened = StoredArgument(store)
        assert reopened.pin() == generation
        assert reopened.journal_ops() == ops
        assert reopened.load() == argument
        orphans = StoredArgument(store).gc()
        assert any(name.startswith("journal-0000-") for name in orphans)
        assert store_files(store) == before

    @pytest.mark.journal
    def test_segment_rewritten_after_the_parse_fails_the_coalesce(
        self, tmp_path
    ):
        store, argument = self._journaled_store(tmp_path)
        handle = StoredArgument(store)
        handle.journal_ops()  # parsed and verified against the manifest
        first, second = handle.journal_segments[:2]
        (store / second).write_bytes((store / first).read_bytes())
        manifest = (store / MANIFEST_NAME).read_bytes()
        names = set(store_files(store))
        with pytest.raises(StoreCorruptionError, match=second):
            handle.coalesce()
        assert (store / MANIFEST_NAME).read_bytes() == manifest
        assert set(store_files(store)) == names, "nothing was written"
        # The lock was released: another thread takes it at once.
        taken = []
        thread = threading.Thread(
            target=lambda: taken.append(writer_lease(store, timeout=0.2))
        )
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive() and taken
        taken[0].release()


class TestLostUpdateProtocol:
    def test_force_true_overwrites_a_diverged_store(self, tmp_path):
        store = tmp_path / "case.store"
        ours = small_argument()
        ours.save(store)
        theirs = Argument.load(store)
        theirs.add_node(Node("T1", NodeType.GOAL, "Their claim holds"))
        theirs.save(store, journal=True)
        ours.add_node(Node("O1", NodeType.GOAL, "Our claim holds"))
        with pytest.raises(StoreConflictError):
            ours.save(store, journal=True)
        manifest = ours.save(store, journal=True, force=True)
        assert "journal" not in manifest, "force falls back to a rewrite"
        final = StoredArgument(store).load()
        assert "O1" in final and "T1" not in final, (
            "force=True means: deliberately overwrite their committed edit"
        )

    def test_clean_appends_never_pay_the_conflict_path(self, tmp_path):
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        for index in range(3):
            argument.add_node(Node(
                f"X{index}", NodeType.GOAL, f"Claim {index} holds",
            ))
            manifest = argument.save(store, journal=True)
            assert manifest["journal"], "single-writer appends must append"


class TestTornOverlayRefresh:
    def _store_with_journal(self, tmp_path):
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        argument.add_node(Node("X1", NodeType.GOAL, "First edit holds"))
        argument.save(store, journal=True)
        return store, argument

    def test_repaired_tail_is_served_after_refresh(self, tmp_path):
        store, argument = self._store_with_journal(tmp_path)
        (segment,) = StoredArgument(store).journal_segments
        intact = (store / segment).read_bytes()
        (store / segment).write_bytes(intact[: len(intact) // 2])
        reader = StoredArgument(store, ignore_torn_tail=True)
        assert "X1" not in reader, "torn tail recovered to pre-append state"
        # The operator restores the segment in place: same manifest,
        # content back.  refresh() must NOT keep serving the recovered
        # overlay.
        (store / segment).write_bytes(intact)
        assert reader.refresh() == "unchanged"
        assert "X1" in reader, (
            "refresh carried a torn overlay across an in-place repair"
        )

    def test_grown_journal_rebuilds_a_torn_overlay(self, tmp_path):
        store, argument = self._store_with_journal(tmp_path)
        (segment,) = StoredArgument(store).journal_segments
        intact = (store / segment).read_bytes()
        (store / segment).write_bytes(intact[: len(intact) // 2])
        reader = StoredArgument(store, ignore_torn_tail=True)
        assert "X1" not in reader  # overlay built, tail dropped
        # Repair + a second writer appends: the journal grew past the
        # segment this reader recovered around.
        (store / segment).write_bytes(intact)
        writer = Argument.load(store)
        writer.add_node(Node("X2", NodeType.GOAL, "Second edit holds"))
        writer.save(store, journal=True)
        assert reader.refresh() == "journal"
        assert "X1" in reader and "X2" in reader, (
            "the journal-grew refresh path extended a torn overlay "
            "instead of rebuilding it"
        )


class TestCoalescing:
    def _appends(self, store, argument, count: int) -> None:
        for index in range(count):
            argument.add_node(Node(
                f"C{index}", NodeType.GOAL, f"Claim {index} holds",
            ))
            argument.save(store, journal=True)

    def test_coalesce_merges_segments_preserving_state(self, tmp_path):
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        self._appends(store, argument, 5)
        handle = StoredArgument(store)
        assert len(handle.journal_segments) == 5
        handle.coalesce()
        assert len(handle.journal_segments) == 1
        assert handle.load() == argument
        assert StoredArgument(store).load() == argument

    def test_refresh_reports_coalesced_and_keeps_base_caches(
        self, tmp_path
    ):
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        self._appends(store, argument, 3)
        reader = StoredArgument(store)
        reader.node("G0")  # hydrate a base shard
        shards_before = set(reader.shards_read)
        assert shards_before
        StoredArgument(store).coalesce()
        assert reader.refresh() == "coalesced"
        assert shards_before <= reader.shards_read, (
            "a coalesce must not invalidate base shard caches"
        )
        assert reader.load() == argument

    def test_append_auto_coalesces_past_the_bound(
        self, tmp_path, monkeypatch
    ):
        from repro.store import journal as journal_module

        monkeypatch.setattr(journal_module, "COALESCE_AFTER", 4)
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        self._appends(store, argument, 10)
        segments = StoredArgument(store).journal_segments
        assert len(segments) <= 4 + 1, (
            f"the manifest grew unboundedly: {len(segments)} segments"
        )
        assert StoredArgument(store).load() == argument

    def test_coalesce_baseline_still_appends(self, tmp_path):
        """A coalesce mid-session must not break the session's appends:
        save(journal=True) records the post-coalesce fingerprint."""
        from repro.store import journal as journal_module

        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        self._appends(store, argument, journal_module.COALESCE_AFTER)
        # The next save crosses the bound: coalesce + append, one call.
        argument.add_node(Node("AFTER", NodeType.GOAL, "Still appending"))
        manifest = argument.save(store, journal=True)
        assert len(manifest["journal"]) == 2, (
            "expected [coalesced segment, fresh append]"
        )
        assert StoredArgument(store).load() == argument


# -- the multi-process torture test -----------------------------------------

_WRITER_SCRIPT = """
import sys
from repro.core.argument import Argument
from repro.core.nodes import Node, NodeType
from repro.store import StoreConflictError

store, worker, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
landed = 0
for round_index in range(rounds):
    while True:
        argument = Argument.load(store)
        argument.add_node(Node(
            f"W{worker}R{round_index}", NodeType.GOAL,
            f"Claim {worker}/{round_index} holds",
        ))
        try:
            argument.save(store, journal=True)
            landed += 1
            break
        except StoreConflictError:
            continue
print(landed)
"""

_READER_SCRIPT = """
import sys
from repro.store import StoredArgument

store, passes = sys.argv[1], int(sys.argv[2])
for _ in range(passes):
    handle = StoredArgument(store)
    generation = handle.pin()
    nodes = {node.identifier for node in handle.iter_nodes()}
    links = list(handle.iter_links())
    assert len(nodes) == handle.node_count, "torn node view"
    assert len(links) == handle.link_count, "torn link view"
    for link in links:
        assert link.source in nodes and link.target in nodes, (
            "dangling link in a pinned snapshot"
        )
    assert handle.pin() == generation, "generation moved under a reader"
print("clean")
"""


@pytest.mark.slow
def test_multiprocess_writers_and_readers_torture(tmp_path):
    """2 writer processes + 3 snapshot readers over one directory.

    No lost updates (every writer's every round lands), no torn reads
    (each reader verifies node/link counts and referential integrity on
    pinned snapshots), and the final store is fsck-clean.
    """
    store = tmp_path / "case.store"
    base = small_argument("torture")
    base.save(store)
    rounds = 6
    env = dict(
        os.environ,
        PYTHONPATH=SRC,
        REPRO_STORE_FSYNC="0",
    )
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT,
             str(store), str(worker), str(rounds)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for worker in range(2)
    ]
    readers = [
        subprocess.Popen(
            [sys.executable, "-c", _READER_SCRIPT, str(store), "12"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(3)
    ]
    for process in writers + readers:
        out, err = process.communicate(timeout=300)
        assert process.returncode == 0, (
            f"worker failed:\nstdout: {out}\nstderr: {err}"
        )
        process._last_out = out  # type: ignore[attr-defined]
    for process in writers:
        assert process._last_out.strip() == str(rounds)  # type: ignore
    for process in readers:
        assert process._last_out.strip() == "clean"  # type: ignore

    final = StoredArgument(store).load()
    expected = {
        f"W{worker}R{round_index}"
        for worker in range(2) for round_index in range(rounds)
    }
    got = {node.identifier for node in final.nodes}
    assert expected <= got, f"lost updates: {sorted(expected - got)}"

    from repro.analysis_static.fsck import fsck_store

    report = fsck_store(store)
    assert report.ok, (
        f"store not fsck-clean after torture: {report.fatal}"
    )
