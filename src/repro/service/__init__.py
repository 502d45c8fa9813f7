"""A multi-editor argument service over one shared store directory.

The store layer (:mod:`repro.store`) gives many processes safe access to
one on-disk case: lock-free snapshot readers over content-addressed
generations, and writers serialized by a kernel-held ``flock``, with
compare-and-append conflict detection.  The lock's scope is one host: a
store directory shared across hosts over a network filesystem is
unsupported.  This package puts a wire protocol on top so the editing
processes do not even have to share a filesystem: a stdlib-only asyncio
HTTP/JSON front end (:mod:`~repro.service.server`) serving reads from
pinned snapshot handles — concurrently, without locks — and funnelling
every mutation through one per-store write queue, plus a small
synchronous client (:mod:`~repro.service.client`) for editor tooling
and tests.

Run it with ``python -m repro.service /path/to/root``; every
``<name>.store`` directory under the root (any directory carrying a
store manifest, actually) is served as ``/stores/<name>``.

Concurrency model
=================

* **Reads** (``GET`` node/subtree, ``POST`` query/check) execute against
  the store's *current snapshot handle* in worker threads.  A snapshot
  never changes under a request: commits swap in a fresh handle (which
  adopts the previous one's base-shard caches, so the swap is O(journal
  delta)) while in-flight reads finish on the generation they started
  with.
* **Writes** (``POST`` append/compact/gc) serialize on an
  :class:`asyncio.Lock` per store, then take the store's on-disk writer
  lock like any other writer — so a service instance composes safely
  with direct ``save(journal=True)`` editors on the same directory.
* **Optimistic concurrency** for editors: every response carries the
  store's generation token; ``POST append`` accepts
  ``expect_generation`` and fails with ``409`` when the store moved —
  the HTTP rendering of :class:`repro.store.StoreConflictError`.  A
  read of a snapshot whose files another process's ``gc()`` swept is a
  ``409`` too (:class:`repro.store.StoreGenerationGoneError`).
"""

from .client import ServiceClient, ServiceClientError
from .server import ArgumentService

__all__ = ["ArgumentService", "ServiceClient", "ServiceClientError"]
