"""The writer lock: at most one mutating writer per store directory.

Readers are lock-free: content-addressed shards and the atomic manifest
swap give every open handle a consistent generation.  Writers take turns
here, or their check-then-commit windows interleave and one silently
loses the other's append.

Each mutating operation (save, append, compact, coalesce, gc) holds an
exclusive ``flock`` on the store's ``writer.lease`` file, which is
created on first use and then kept.

* **Acquire** opens the file ``O_CLOEXEC`` and polls ``LOCK_NB`` with
  capped, jittered backoff until the deadline, then raises
  :class:`~repro.store.format.StoreConflictError` naming the holder's
  pid, which the holder wrote into the file (unsynced) for that alone.
* **Release** unlocks and closes.  The kernel drops the lock anyway when
  its holder exits, however it exits, so a killed writer never blocks
  the next one.  There is no TTL: a stalled holder keeps the lock, and
  nobody commits over it.  Nothing needs to survive a power loss, so
  nothing is fsynced; an old store's JSON lease is a lock nobody holds.
* **Fork**: a child shares its parent's open file descriptions, and so
  the lock.  An at-fork hook closes the child's copies (never unlocking
  them, which would unlock the parent) and forgets the parent's holds.

The lock is **reentrant per thread**: ``Argument.save(journal=True)``
holds it across its conflict check and the fallback rewrite, whose
``save_argument`` re-enters.  Another thread opens its own file
description and contends like another process.

Scope: one host.  ``flock`` over a network filesystem is emulated or
per-client; a store shared across hosts over NFS or SMB is unsupported.
"""

from __future__ import annotations

import fcntl
import os
import random
import threading
import time
from pathlib import Path

from .format import LEASE_NAME, StoreConflictError

__all__ = ["WriterLease", "writer_lease", "DEFAULT_ACQUIRE_TIMEOUT"]

#: How long an acquirer keeps retrying against a live holder before
#: raising :class:`StoreConflictError`.
DEFAULT_ACQUIRE_TIMEOUT = 10.0

#: The lock file is created on first use and never inherited by ``exec``.
_FLAGS = os.O_RDWR | os.O_CREAT | os.O_CLOEXEC

#: Backoff bounds for the acquire retry loop, seconds.
_RETRY_INITIAL = 0.005
_RETRY_CAP = 0.25


class WriterLease:
    """One held writer lock; a context manager releasing on exit."""

    __slots__ = ("directory", "_key", "_owner", "_fd", "_depth")

    def __init__(self, directory: Path, key: str, owner: int, fd: int) -> None:
        self.directory = directory
        self._key = key
        self._owner = owner
        self._fd = fd
        self._depth = 1

    def release(self) -> None:
        """Leave one nesting level; unlock and close at the outermost."""
        with _GUARD:
            self._depth -= 1
            if self._depth > 0:
                return
            if _HELD.get(self._key) is self:
                del _HELD[self._key]
            _close(self, unlock=True)

    def __enter__(self) -> "WriterLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


#: This process's held locks by absolute directory (the reentrancy
#: registry), and every lease whose fd is open, held or still polling,
#: so that a forked child can close them all.  Both are guarded by
#: ``_GUARD``, which a fork holds across the fork.
_GUARD = threading.Lock()
_HELD: "dict[str, WriterLease]" = {}
_OPEN: "set[WriterLease]" = set()


def _close(lease: WriterLease, *, unlock: bool) -> None:
    """Close a lease's fd once; the caller holds ``_GUARD``."""
    if lease._fd >= 0:
        _OPEN.discard(lease)
        if unlock:
            fcntl.flock(lease._fd, fcntl.LOCK_UN)
        os.close(lease._fd)
        lease._fd = -1


def _forget_in_child() -> None:
    for lease in list(_OPEN):
        _close(lease, unlock=False)
    _HELD.clear()
    _GUARD.release()


os.register_at_fork(
    before=_GUARD.acquire,
    after_in_parent=_GUARD.release,
    after_in_child=_forget_in_child,
)


def _holder(fd: int) -> str:
    """The holder's recorded pid, as a message part."""
    pid = os.pread(fd, 32, 0).split(b"\n", 1)[0]
    return f"pid {pid.decode()}" if pid.isdigit() else "an unknown holder"


def writer_lease(
    directory: Path | str, *, timeout: float = DEFAULT_ACQUIRE_TIMEOUT
) -> WriterLease:
    """``with writer_lease(directory): ...`` around one mutating operation.

    Every store write path wraps itself in this, and a caller may take
    the lock *around* a larger critical section (check-then-write):
    nested acquisition by the same thread returns the held lease one
    level deeper.  Blocks up to ``timeout`` seconds while another holder
    has the lock, then raises :class:`StoreConflictError` naming it.
    """
    directory = Path(directory)
    key = os.path.abspath(directory)
    me = threading.get_ident()
    with _GUARD:
        held = _HELD.get(key)
        if held is not None and held._owner == me:
            held._depth += 1
            return held
        try:
            fd = os.open(os.path.join(key, LEASE_NAME), _FLAGS, 0o644)
        except FileNotFoundError:
            directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(os.path.join(key, LEASE_NAME), _FLAGS, 0o644)
        lease = WriterLease(directory, key, me, fd)
        _OPEN.add(lease)
    deadline = time.monotonic() + timeout
    delay = _RETRY_INITIAL
    try:
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                if time.monotonic() >= deadline:
                    raise StoreConflictError(
                        f"store at {directory} is being written by "
                        f"{_holder(fd)}; retry, or raise the acquire timeout"
                    ) from None
            time.sleep(delay * (0.5 + random.random()))
            delay = min(delay * 2, _RETRY_CAP)
        # Only the first line is ever read, so bytes left past it (a
        # longer pid, an old JSON lease) need no truncate.
        os.pwrite(fd, f"{os.getpid()}\n".encode("ascii"), 0)
    except BaseException:
        with _GUARD:
            _close(lease, unlock=False)
        raise
    with _GUARD:
        _HELD[key] = lease
    return lease
