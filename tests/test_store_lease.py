"""The writer lock: enforcement of the store's single-writer contract.

Covers the lock from :mod:`repro.store.lease` directly — acquire /
release, contention timeout naming the holder, per-thread reentrancy,
exclusion across processes, release by the kernel when a holder is
killed (also while a forked child of it lives), and a forked child that
can never unlock its parent — and its integration: every mutating store
operation holds the lock while it runs and frees it afterwards, two
*threads* contending over one directory serialize their commits, and a
holder that stalls past any clock jump never loses a contender's append.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.store import StoreConflictError, StoredArgument, writer_lease
from repro.store.format import LEASE_NAME

pytestmark = pytest.mark.service

SRC = str(Path(__file__).resolve().parent.parent / "src")


def small_argument(name: str = "lease-case") -> Argument:
    argument = Argument(name)
    argument.add_node(Node("G0", NodeType.GOAL, "The claim holds"))
    argument.add_node(Node("Sn0", NodeType.SOLUTION, "Evidence record"))
    argument.add_link("G0", "Sn0", LinkKind.SUPPORTED_BY)
    return argument


def lock_is_free(directory: Path) -> bool:
    """Whether *another thread* takes the lock within 0.2 s."""
    outcome: "list[bool]" = []

    def contender() -> None:
        try:
            writer_lease(directory, timeout=0.2).release()
            outcome.append(True)
        except StoreConflictError:
            outcome.append(False)

    thread = threading.Thread(target=contender)
    thread.start()
    thread.join(10)
    assert outcome, "the contender thread did not finish"
    return outcome[0]


#: A holder process: takes the lock on argv[1], then per argv[2]
#: ``hold`` prints its pid; ``fork`` forks a sleeping child and prints
#: the child's pid; ``fork-release`` forks a child that releases its
#: copy of the lease and tries to take the lock afresh, and prints the
#: child's exit status (0: the child could not take the lock).  Then it
#: sleeps until killed.
HOLDER = """
import os, sys, time
from repro.store import StoreConflictError, writer_lease
lease = writer_lease(sys.argv[1])
mode = sys.argv[2]
if mode == "hold":
    print(os.getpid(), flush=True)
else:
    child = os.fork()
    if child == 0:
        if mode == "fork":
            time.sleep(60)
            os._exit(0)
        lease.release()
        try:
            writer_lease(sys.argv[1], timeout=0.3)
        except StoreConflictError:
            os._exit(0)
        os._exit(1)
    if mode == "fork":
        print(child, flush=True)
    else:
        print(os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]), flush=True)
time.sleep(60)
"""


def start_holder(store: Path, mode: str) -> "tuple[subprocess.Popen, int]":
    process = subprocess.Popen(
        [sys.executable, "-c", HOLDER, str(store), mode],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    line = process.stdout.readline()
    assert line.strip(), "the holder process failed to take the lock"
    return process, int(line)


def stop(process: subprocess.Popen) -> None:
    process.kill()
    process.wait(10)
    process.stdout.close()


class TestAcquireRelease:
    def test_acquire_records_the_pid_and_release_frees_the_lock(
        self, tmp_path
    ):
        with writer_lease(tmp_path):
            assert (tmp_path / LEASE_NAME).read_text() == f"{os.getpid()}\n"
            assert not lock_is_free(tmp_path)
        assert lock_is_free(tmp_path)
        assert (tmp_path / LEASE_NAME).exists(), "the lock file is kept"

    def test_contention_times_out_naming_the_holder(self, tmp_path):
        # A *different thread* of this process contends like a foreign
        # process: the reentrancy registry is per thread.
        outcome: "dict[str, BaseException]" = {}

        def contender() -> None:
            try:
                writer_lease(tmp_path, timeout=0.2).release()
            except StoreConflictError as error:
                outcome["error"] = error

        with writer_lease(tmp_path):
            thread = threading.Thread(target=contender)
            thread.start()
            thread.join(10)
        assert f"pid {os.getpid()}" in str(outcome["error"])

    def test_release_is_not_fooled_by_a_takeover(self, tmp_path):
        """A lease released again after another holder took the lock
        must not free that holder's lock."""
        lease = writer_lease(tmp_path)
        lease.release()
        taken = threading.Event()
        done = threading.Event()

        def holder() -> None:
            with writer_lease(tmp_path):
                taken.set()
                done.wait(10)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert taken.wait(10)
            lease.release()  # stale: its hold already ended
            with pytest.raises(StoreConflictError):
                writer_lease(tmp_path, timeout=0.2)
        finally:
            done.set()
            thread.join(10)


class TestStaleTakeover:
    def test_expired_lease_is_taken_over_immediately(self, tmp_path):
        """A store still holding a crashed writer's JSON lease (the TTL
        protocol of earlier releases) is writable at once: the file is
        a lock nobody holds."""
        (tmp_path / LEASE_NAME).write_text(json.dumps({
            "holder": "crashed", "expires": time.time() - 5.0,
        }))
        start = time.monotonic()
        with writer_lease(tmp_path, timeout=5.0):
            assert not lock_is_free(tmp_path)
        assert time.monotonic() - start < 2.0


class TestReentrancy:
    def test_same_thread_reenters_one_file(self, tmp_path):
        with writer_lease(tmp_path) as outer:
            with writer_lease(tmp_path) as inner:
                assert inner is outer
            # Inner exit must not drop the lock out from under outer.
            assert not lock_is_free(tmp_path)
        assert lock_is_free(tmp_path)

    def test_other_thread_contends(self, tmp_path):
        with writer_lease(tmp_path):
            assert not lock_is_free(tmp_path), (
                "a second thread must not share the first thread's lease"
            )


class TestAcrossProcesses:
    def test_another_process_is_excluded_and_named(self, tmp_path):
        holder, pid = start_holder(tmp_path, "hold")
        try:
            with pytest.raises(StoreConflictError, match=f"pid {pid}\\b"):
                writer_lease(tmp_path, timeout=0.2)
        finally:
            stop(holder)

    def test_a_killed_holder_frees_the_store_at_once(self, tmp_path):
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        holder, _ = start_holder(store, "hold")
        stop(holder)  # SIGKILL: no release code runs
        argument.add_node(Node("X1", NodeType.GOAL, "A late claim holds"))
        start = time.monotonic()
        argument.save(store, journal=True)
        assert time.monotonic() - start < 1.0
        assert "X1" in StoredArgument(store).load()

    def test_a_killed_parent_frees_the_store_while_its_child_lives(
        self, tmp_path
    ):
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        holder, child = start_holder(store, "fork")
        try:
            stop(holder)
            argument.add_node(Node("X1", NodeType.GOAL, "A late claim"))
            start = time.monotonic()
            argument.save(store, journal=True)
            assert time.monotonic() - start < 1.0
            os.kill(child, 0)  # the forked child still runs
        finally:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover
                pass
        assert "X1" in StoredArgument(store).load()

    def test_a_forked_child_never_unlocks_its_parent(self, tmp_path):
        holder, child_status = start_holder(tmp_path, "fork-release")
        try:
            assert child_status == 0, (
                "the child re-entered or took its parent's lock"
            )
            with pytest.raises(StoreConflictError, match=f"pid {holder.pid}"):
                writer_lease(tmp_path, timeout=0.2)
        finally:
            stop(holder)


class TestStoreIntegration:
    def test_save_runs_under_lease_and_cleans_up(self, tmp_path, monkeypatch):
        """A save must hold the lock at commit time and release after."""
        from repro.store import writer as writer_module

        store = tmp_path / "case.store"
        seen: "list[bool]" = []
        original_commit = writer_module._commit

        def spying_commit(directory, manifest, **kwargs):
            seen.append(lock_is_free(directory))
            return original_commit(directory, manifest, **kwargs)

        monkeypatch.setattr(writer_module, "_commit", spying_commit)
        small_argument().save(store)
        assert seen == [False], (
            "the manifest swap must happen while the lock is held"
        )
        assert lock_is_free(store), "the lock must be released after save"

    def test_mutating_operations_leave_no_lease_behind(self, tmp_path):
        store = tmp_path / "case.store"
        argument = small_argument()
        argument.save(store)
        argument.add_node(Node("X1", NodeType.GOAL, "A late claim holds"))
        argument.save(store, journal=True)
        handle = StoredArgument(store)
        handle.coalesce()
        handle.compact()
        handle.gc()
        assert lock_is_free(store)
        assert StoredArgument(store).load() == argument

    def test_two_threads_appending_serialize_without_loss(self, tmp_path):
        """N threads × M appends through one directory: all land."""
        store = tmp_path / "case.store"
        base = small_argument()
        base.save(store)
        errors: "list[BaseException]" = []

        def editor(worker: int) -> None:
            try:
                for round_index in range(4):
                    while True:
                        argument = Argument.load(store)
                        argument.add_node(Node(
                            f"W{worker}R{round_index}", NodeType.GOAL,
                            f"Claim {worker}/{round_index} holds",
                        ))
                        try:
                            argument.save(store, journal=True)
                            break
                        except StoreConflictError:
                            continue  # another thread landed first: rebase
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=editor, args=(worker,))
            for worker in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors, errors
        final = StoredArgument(store).load()
        expected = {
            f"W{worker}R{round_index}"
            for worker in range(3) for round_index in range(4)
        }
        assert expected <= {node.identifier for node in final.nodes}, (
            "a concurrent append was lost"
        )

    def test_a_stalled_holder_loses_no_append(self, tmp_path, monkeypatch):
        """Thread A stalls inside its append after sealing the segment;
        contender B sees a clock one hour ahead.  B must wait and land
        or raise — never land and then be overwritten by A's commit."""
        from repro.store import journal as journal_module

        store = tmp_path / "case.store"
        small_argument().save(store)
        editor_a = Argument.load(store)
        editor_a.add_node(Node("GA", NodeType.GOAL, "A's claim holds"))
        editor_b = Argument.load(store)
        editor_b.add_node(Node("GB", NodeType.GOAL, "B's claim holds"))
        sealed = threading.Event()
        b_done = threading.Event()
        original_commit = journal_module._commit

        def stalling_commit(directory, manifest, **kwargs):
            if threading.current_thread() is thread_a:
                sealed.set()
                b_done.wait(1.0)
            return original_commit(directory, manifest, **kwargs)

        monkeypatch.setattr(journal_module, "_commit", stalling_commit)
        errors: "list[BaseException]" = []

        def run_a() -> None:
            try:
                editor_a.save(store, journal=True)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        thread_a = threading.Thread(target=run_a)
        thread_a.start()
        assert sealed.wait(10), "A never reached its commit"
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 3600.0)
        try:
            editor_b.save(store, journal=True)
            b_landed = True
        except StoreConflictError:
            b_landed = False
        finally:
            b_done.set()
            thread_a.join(10)
        monkeypatch.setattr(time, "time", real_time)
        assert not errors, errors
        final = StoredArgument(store).load()
        assert "GA" in final
        if b_landed:
            assert "GB" in final, "B's append returned normally and was lost"

    def test_gc_refuses_while_another_writer_holds_the_lease(self, tmp_path):
        from repro.store.journal import gc

        store = tmp_path / "case.store"
        small_argument().save(store)
        handle = StoredArgument(store)
        taken = threading.Event()
        done = threading.Event()

        def holder() -> None:
            with writer_lease(store):
                taken.set()
                done.wait(10)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert taken.wait(10)
            with pytest.raises(StoreConflictError, match=f"pid {os.getpid()}"):
                gc(handle, timeout=0.2)
        finally:
            done.set()
            thread.join(10)
        assert gc(handle, timeout=0.2) == []
