"""Persistent sharded storage for arguments and assurance cases.

Answering the paper's scale question — do formal assurance arguments pay
their way on *real* projects? — needs tool-generated cases with 100k+
nodes, which PR 1–2 made fast in memory but which still could not
outlive the process or exceed RAM.  This package gives them a durable,
incrementally-reloadable on-disk form:

* :mod:`~repro.store.format` — the JSONL shard layout, manifest schema,
  id-hash sharding, the durability switch (:func:`set_durability` /
  ``REPRO_STORE_FSYNC``), and the :class:`StoreError` /
  :class:`StoreCorruptionError` / :class:`StoreConflictError` taxonomy;
* :mod:`~repro.store.writer` — :func:`save_argument` / :func:`save_case`,
  streaming records out shard by shard without materialising a document;
* :mod:`~repro.store.reader` — :class:`StoredArgument` (streaming
  iteration, lazy per-shard loading, partial ``subtree`` hydration) and
  the :func:`load_argument` / :func:`load_case` full loaders;
* :mod:`~repro.store.journal` — the append-only edit journal:
  ``StoredArgument.append_delta`` persists one mutation delta in
  O(delta) writes, readers replay the journal transparently,
  ``coalesce()`` bounds the manifest for long sessions, ``compact()``
  folds the journal back into byte-stable shards, and ``gc()`` sweeps
  orphaned files; ``ignore_torn_tail=True`` recovers from a crash
  mid-append;
* :mod:`~repro.store.search` — the persisted token/trigram search index
  sidecar: sealed and checksummed like a shard, referenced from the
  manifest, journal-patched in O(delta) per edit, rebuilt by
  ``compact()``, swept by ``gc()``; :class:`CaseCorpus` drives ranked
  query-biased search (:func:`repro.core.search.search`) over a
  directory of stores;
* :mod:`~repro.store.lease` — the writer lock enforcing the
  single-writer contract: every mutating operation holds an exclusive
  ``flock`` on the store's ``writer.lease`` file, contenders back off
  and raise :class:`StoreConflictError` on deadline, and the kernel
  drops the lock when its holder exits, so a crashed writer never
  blocks the next;
* :mod:`~repro.store.fsck` — the ``python -m repro.store.fsck`` CLI:
  offline verification of a store directory (manifest, shard seals and
  content-addresses, id-hash partition, journal torn-tail
  classification, orphan inventory) without loading it into the
  engine; the checking machinery lives in
  :mod:`repro.analysis_static.fsck`.

Concurrency contract
====================

*Readers are lock-free snapshots.*  Content-addressed shard names plus
the atomic manifest rename mean an open :class:`StoredArgument` keeps
streaming the generation it opened — concurrent commits create new
files, never mutate referenced ones.  ``pin()`` captures the generation
as a token; ``refresh()`` is the explicit opt-in to a newer one.  Only
``gc()`` deletes files, which is why it takes the writer lock and why
long-lived readers should be refreshed before a gc is scheduled; a
handle that reads a file gc swept from its superseded generation raises
:class:`StoreGenerationGoneError` (a :class:`StoreConflictError`: refresh
and retry), never corruption.

*Writers are serialized by the lock.*  ``save_argument`` /
``save_case`` / ``append_delta`` / ``coalesce`` / ``compact`` / ``gc``
each hold an exclusive ``flock`` on the store's ``writer.lease``;
``Argument.save(journal=True)`` holds it across its conflict check and
the commit it decides on, raising :class:`StoreConflictError` — instead
of silently losing the other writer's update — when the store moved
past the generation this argument last saw (``force=True`` overwrites
deliberately).  The lock has no TTL: the kernel holds it exactly as long
as its holder lives, so a killed writer frees the store at once and a
stalled one is never overtaken.  Its scope is one host: a store shared
across hosts over a network filesystem is unsupported.

``Argument.save/load`` (including ``save(journal=True)``) and
``AssuranceCase.save/load`` are the convenience entry points built on
these; :func:`repro.core.query.select` and :func:`repro.check` accept a
:class:`StoredArgument` directly, ``repro.check(stored,
mode="incremental")`` re-checks a journalled store incrementally
without hydrating it, and
:mod:`repro.service` serves one shared store to many editors over HTTP.
"""

from .format import (
    DEFAULT_SHARD_COUNT,
    JOURNAL_SCHEMA_VERSION,
    STORE_SCHEMA_VERSION,
    StoreConflictError,
    StoreCorruptionError,
    StoreError,
    StoreGenerationGoneError,
    durable,
    set_durability,
    shard_of,
)
from .journal import JournalOverlay, coalesce, compact, gc
from .lease import DEFAULT_ACQUIRE_TIMEOUT, WriterLease, writer_lease
from .reader import StoredArgument, StoreGeneration, load_argument, load_case
from .search import (
    SEARCH_SCHEMA_VERSION,
    CaseCorpus,
    SearchIndexView,
    StoreSearchIndex,
    build_search_index,
    load_search_index,
)
from .writer import save_argument, save_case

__all__ = [
    "DEFAULT_SHARD_COUNT",
    "JOURNAL_SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "StoreConflictError",
    "StoreCorruptionError",
    "StoreError",
    "StoreGenerationGoneError",
    "durable",
    "set_durability",
    "shard_of",
    "JournalOverlay",
    "coalesce",
    "compact",
    "gc",
    "DEFAULT_ACQUIRE_TIMEOUT",
    "WriterLease",
    "writer_lease",
    "StoredArgument",
    "StoreGeneration",
    "load_argument",
    "load_case",
    "SEARCH_SCHEMA_VERSION",
    "CaseCorpus",
    "SearchIndexView",
    "StoreSearchIndex",
    "build_search_index",
    "load_search_index",
    "save_argument",
    "save_case",
]
