"""The on-disk format of the persistent sharded argument store.

Tool-generated assurance cases reach 100k+ nodes (Resolute derives cases
from architecture models; Isabelle/SACM persists mechanised cases next to
their proof artifacts), so a case must be able to outlive the process that
built it and be reloaded *partially* — a reviewer inspecting one hazard's
sub-argument should not pay to hydrate the whole case.  The store lays an
argument out as a directory:

::

    case.store/
        manifest.json               # schema version, kind, shard map,
                                    # counts, per-shard record counts +
                                    # CRC-32 checksums
        nodes-0000-1a2b3c4d.jsonl   # one node record per line, seq-ordered
        nodes-0001-00000000.jsonl
        links-0000-5e6f7a8b.jsonl   # one link record per line, sharded
        ...                         # by SOURCE id
        evidence-9c0d1e2f.jsonl     # kind == "case" only
        citations-3a4b5c6d.jsonl    # kind == "case" only

Records are sharded by **identifier hash** — ``crc32(id) % shard_count``
— nodes by their own id, links by their *source* id, so a traversal that
knows a frontier node can find all of its outgoing links by reading
exactly one shard.  Every record carries a ``seq`` field (its global
insertion index at save time): within a shard seqs are ascending, so a
heap-merge across shards streams records back in exact insertion order,
and a save → load → save cycle is **byte-stable** (same shard assignment,
same per-shard order, same seqs).

Shard filenames are **content-addressed** — ``<kind>-<index>-<crc>.jsonl``
— and the manifest maps shard indices to filenames.  Identical content
produces identical names (byte-stability holds), while *changed* content
lands under fresh names that never overwrite the previous store's files:
renaming the new manifest into place is the single atomic commit point,
so an interrupted save at any moment leaves the old store fully loadable
(plus, at worst, some orphaned files no manifest references).

Integrity is checked per shard: the manifest records each shard's line
count and the CRC-32 of its bytes; the reader verifies both as it
streams and raises :class:`StoreCorruptionError` *naming the shard* on
any mismatch, truncated line, or undecodable record.  The record
vocabulary — the keys each record kind carries and the valid node types
and link kinds — is defined once, at the end of this module, with the
decoders every reader uses to turn records back into nodes and links.

Shards may optionally be **gzip-compressed**, recorded in the manifest as
``"compression": "gzip"`` and reflected in the ``.jsonl.gz`` filename
suffix; reads are transparent.  Record counts, checksums, and the
content-addressed names are always computed over the *decompressed*
JSONL lines, and the gzip stream is written deterministically (fixed
mtime, no embedded filename), so byte-stability — save → load → save
producing identical files — holds for compressed stores too.

The append journal
==================

An editing session must not pay an O(store) rewrite per save.  A store
may therefore carry an **append-only edit journal** beside its shards::

    case.store/
        manifest.json               # + "journal": [segment names, in
                                    #   order], "journal_schema": 1
        journal-0000-7f8e9dab.jsonl # one serialised mutation per line
        journal-0001-2c3d4e5f.jsonl

Each segment holds the serialised :class:`~repro.core.argument.
MutationDelta` records of one ``save(journal=True)`` — ``add_node`` /
``remove_node`` / ``replace_node`` / ``add_link`` / ``remove_link``
payloads in application order.  Segments get the same durability story
as shards: streamed to a ``.tmp`` file, sealed under a content-addressed
name (CRC-32 of the decompressed lines), entered into the manifest's
``shards`` map for count/checksum verification, and committed by the
atomic manifest rename — so one append is all-or-nothing, and a crash
mid-append leaves the previous state fully loadable.  Readers replay
the journal transparently: journal entries shadow shard records by
identifier, appended records order after the base records, and
``compact()`` folds the whole journal back into fresh content-addressed
shards (byte-identical to a clean save of the same argument) in one
manifest swap.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any

from ..core.argument import Link, LinkKind
from ..core.nodes import Node, NodeType

__all__ = [
    "STORE_SCHEMA_VERSION",
    "JOURNAL_SCHEMA_VERSION",
    "MANIFEST_NAME",
    "LEASE_NAME",
    "DEFAULT_SHARD_COUNT",
    "ID_HASH",
    "GZIP_COMPRESSION",
    "COMPRESSIONS",
    "StoreError",
    "StoreCorruptionError",
    "StoreConflictError",
    "StoreGenerationGoneError",
    "shard_of",
    "shard_base",
    "shard_filename",
    "journal_base",
    "tmp_name",
    "validate_compression",
    "encode_record",
    "NODE_KEYS",
    "LINK_KEYS",
    "EVIDENCE_KEYS",
    "CITATION_KEYS",
    "NODE_TYPE_BY_VALUE",
    "LINK_KIND_BY_VALUE",
    "RECORD_ERRORS",
    "node_from_record",
    "link_from_record",
    "durable",
    "set_durability",
    "fsync_fileobj",
    "fsync_path",
    "fsync_directory",
]

#: Bumped on any incompatible layout or record change.
STORE_SCHEMA_VERSION = 1

#: Bumped on any incompatible journal record change (recorded in the
#: manifest as ``journal_schema`` whenever a journal is present).
JOURNAL_SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: The writer lock file (see :mod:`repro.store.lease`): the one process
#: allowed to mutate the store holds an exclusive ``flock`` on it.
LEASE_NAME = "writer.lease"

#: Default number of shards per record kind.  Small enough that a full
#: load opens a handful of files, large enough that a subtree load over
#: a localised region of a big case skips most of them.
DEFAULT_SHARD_COUNT = 8

#: Name of the identifier-hash function recorded in the manifest, so a
#: reader can refuse a store written with a different placement scheme.
ID_HASH = "crc32"

#: The one supported per-shard compression scheme (manifest value).
GZIP_COMPRESSION = "gzip"

#: Accepted values for the manifest's optional ``compression`` key.
COMPRESSIONS = (None, GZIP_COMPRESSION)


class StoreError(ValueError):
    """Raised for store misuse: missing manifest, wrong schema or kind,
    unknown identifiers, unreadable layout."""


class StoreCorruptionError(StoreError):
    """A shard's content contradicts the manifest.

    ``shard`` names the offending file so operators can restore or
    regenerate exactly the damaged piece of a large store.
    """

    def __init__(self, shard: str, detail: str) -> None:
        super().__init__(f"shard {shard!r}: {detail}")
        self.shard = shard
        self.detail = detail

    def __reduce__(self) -> "tuple[type, tuple[str, str]]":
        # Default exception pickling would replay the *formatted*
        # message into the two-argument constructor; corruption raised
        # inside a parallel-check worker must cross the process
        # boundary intact.
        return (type(self), (self.shard, self.detail))


class StoreConflictError(StoreError):
    """Another writer got there first.

    Raised when the writer lock cannot be acquired (a live holder has
    it and the acquisition deadline passed) and when
    ``Argument.save(journal=True)`` finds the store diverged from the
    generation this argument last saw — committing would overwrite
    another writer's appends (a lost update).  The caller should reload
    the store, reconcile, and retry; ``save(..., force=True)`` is the
    explicit overwrite escape hatch.
    """


class StoreGenerationGoneError(StoreConflictError):
    """A handle's superseded generation lost a file to ``gc()``.

    The store is healthy: the live manifest no longer names the file, so
    ``gc()`` reclaimed it while this handle still served the generation
    that did.  ``refresh()`` (or reopen) and retry.
    """


def shard_of(identifier: str, shard_count: int) -> int:
    """The shard index an identifier hashes to (stable across runs)."""
    return zlib.crc32(identifier.encode("utf-8")) % shard_count


def shard_base(kind: str, index: int) -> str:
    """The kind+index stem of a shard filename (``nodes-0003``)."""
    return f"{kind}-{index:04d}"


def journal_base(ordinal: int) -> str:
    """The stem of a journal segment filename (``journal-0007``).

    Ordinals count sealed segments in manifest order; the final name is
    content-addressed via :func:`shard_filename` like any shard.
    """
    return f"journal-{ordinal:04d}"


def shard_filename(
    base: str, checksum: int, compression: "str | None" = None
) -> str:
    """The content-addressed final filename of a finished shard.

    ``checksum`` is always the CRC-32 of the *decompressed* content, so
    identical records get identical names whatever the compression.
    """
    suffix = ".jsonl.gz" if compression == GZIP_COMPRESSION else ".jsonl"
    return f"{base}-{checksum:08x}{suffix}"


def tmp_name(base: str) -> str:
    """A collision-free in-flight filename for a streaming write.

    Deterministic ``<base>.tmp`` names let two processes saving into one
    directory overwrite each other's half-written files mid-stream; the
    pid + random infix makes every in-flight file private to its writer.
    The sealed content-addressed rename still decides what a store *is*;
    these names only have to never collide while open.  :data:`gc`'s
    ``_STORE_FILE`` pattern (and fsck's orphan inventory) matches both
    the unique and the legacy deterministic form.
    """
    return f"{base}.{os.getpid():x}-{os.urandom(4).hex()}.tmp"


#: Process-wide durability switch (see :func:`set_durability`).  On by
#: default; ``REPRO_STORE_FSYNC=0`` in the environment starts it off —
#: the test-suite escape hatch for hosts where fsync dominates runtime.
_DURABLE = os.environ.get("REPRO_STORE_FSYNC", "1") != "0"


def durable() -> bool:
    """Whether commits fsync (files before rename, directory after)."""
    return _DURABLE


def set_durability(enabled: bool) -> bool:
    """Turn commit fsyncs on or off process-wide; returns the old value.

    The atomic-rename commit protocol is only crash-safe when sealed
    files are fsynced before the rename and the directory after the
    manifest swap — otherwise the "commit point" can vanish or tear on
    power loss.  Leave durability on anywhere real; the opt-out exists
    for tests and throwaway scratch stores.
    """
    global _DURABLE
    previous = _DURABLE
    _DURABLE = enabled
    return previous


def fsync_fileobj(handle: Any) -> None:
    """Flush and fsync an open file object (no-op when durability is off)."""
    if _DURABLE:
        handle.flush()
        os.fsync(handle.fileno())


def fsync_path(path: Any) -> None:
    """fsync a closed file by path (no-op when durability is off)."""
    if _DURABLE:
        fd = os.open(os.fspath(path), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def fsync_directory(path: Any) -> None:
    """fsync a directory so completed renames survive power loss.

    No-op when durability is off; platforms whose directory handles
    refuse fsync (some network filesystems, Windows) are tolerated —
    the rename itself is still ordered after the file fsyncs.
    """
    if not _DURABLE:
        return
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def validate_compression(compression: "str | None") -> "str | None":
    """The compression value, or a clear error for unsupported schemes."""
    if compression not in COMPRESSIONS:
        raise StoreError(
            f"unsupported shard compression {compression!r} "
            f"(supported: {', '.join(str(c) for c in COMPRESSIONS)})"
        )
    return compression


def encode_record(record: dict[str, Any]) -> bytes:
    """One JSONL line, deterministic bytes (key order = insertion order)."""
    return json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"



# -- the record vocabulary ---------------------------------------------------

#: Keys every record of a shard kind must carry.  Readers reject a line
#: lacking one as corruption (never a crash); fsck reports it offline.
NODE_KEYS = ("seq", "id", "type", "text")
LINK_KEYS = ("seq", "source", "target", "kind")
EVIDENCE_KEYS = ("seq", "id", "kind", "description")
CITATION_KEYS = ("seq", "solution", "evidence")

#: Enum members keyed by their wire value.  The keys are the valid
#: ``type``/``kind`` values; a dict lookup decodes a record's enum far
#: cheaper than calling the enum class.
NODE_TYPE_BY_VALUE: "dict[str, NodeType]" = {
    member.value: member for member in NodeType
}
LINK_KIND_BY_VALUE: "dict[str, LinkKind]" = {
    member.value: member for member in LinkKind
}

#: What :func:`node_from_record`/:func:`link_from_record` raise for a
#: decodable record whose fields do not make a node or link (unknown
#: enum value, wrong field type, text that fails ``Node`` validation).
RECORD_ERRORS = (KeyError, TypeError, ValueError, AttributeError)


def node_from_record(record: dict[str, Any]) -> Node:
    """Rebuild a node from its store/journal record (extra keys ignored).

    The one record-to-node step of every store read.  Metadata sorts
    only when present (the writer omits empty metadata); an unknown
    ``type`` raises the enum's own ``ValueError``.
    """
    try:
        node_type = NODE_TYPE_BY_VALUE[record["type"]]
    except (KeyError, TypeError):
        node_type = NodeType(record["type"])
    metadata: "tuple[tuple[str, tuple[Any, ...]], ...]" = ()
    if "metadata" in record:
        metadata = tuple(sorted(
            (name, tuple(params))
            for name, params in record["metadata"].items()
        ))
    return Node(
        record["id"],
        node_type,
        record["text"],
        record.get("undeveloped", False),
        record.get("module"),
        metadata,
    )


def link_from_record(record: dict[str, Any]) -> Link:
    """Rebuild a link from its store/journal record (extra keys ignored);
    an unknown ``kind`` raises the enum's own ``ValueError``."""
    try:
        kind = LINK_KIND_BY_VALUE[record["kind"]]
    except (KeyError, TypeError):
        kind = LinkKind(record["kind"])
    return Link(record["source"], record["target"], kind)
