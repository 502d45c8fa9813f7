"""The append-only edit journal of the persistent sharded store.

A tool-generated case is not written once and frozen: an editing session
applies hundreds of small mutations, and re-sharding the whole store per
save would cost O(store) where the change is O(delta).  This module
gives :class:`~repro.store.reader.StoredArgument` the operations that
keep an on-disk case cheap to maintain:

* :func:`append_delta` — serialise one
  :class:`~repro.core.argument.MutationDelta` as a sealed JSONL journal
  segment (same durability story as shards: streamed to ``.tmp``,
  content-addressed rename, count + CRC-32 in the manifest, atomic
  manifest swap as the commit point), so a save after an edit costs
  O(delta) writes;
* :func:`compact` — fold every journal segment back into fresh
  content-addressed node/link shards in one atomic manifest swap.  The
  compacted store is **byte-identical** to a clean ``save()`` of the
  same live argument (once :func:`gc` sweeps the superseded files):
  replay reproduces exact insertion order (removed identifiers vanish,
  re-added ones order last, replacements keep their position) and the
  writer re-canonicalises every record;
* :func:`coalesce` — merge all journal segments into one without
  touching the shards: same op stream, bounded manifest, so a
  months-long editing session cannot grow the segment list without
  bound (``append_delta`` triggers it automatically at
  :data:`COALESCE_AFTER` segments).  Journal records are canonical, so
  the merged segment is the verified segments' bytes copied end to
  end — no op is re-encoded;
* :func:`gc` — remove shard/segment files in the store directory that
  the live manifest no longer references (failed saves and appends,
  superseded generations left behind for pinned snapshot readers).
  Only files matching the store's own naming scheme are ever touched.

Every one of these runs under the store's **writer lease**
(:mod:`repro.store.lease`), and the journal write paths
compare-and-append: a handle whose manifest view went stale raises
:class:`~repro.store.format.StoreConflictError` instead of silently
committing over another writer's generation.

Readers consume the journal through :class:`JournalOverlay`: one parse
of the (small) segments yields the shadow/tombstone/append maps that
:class:`~repro.store.reader.StoredArgument` layers over its base shards
for every access path — ``load``, ``node``, ``subtree``, streaming and
per-shard iteration.  The decoded operation list doubles as the
persisted delta stream that a store-backed
:class:`repro.core.analysis.IncrementalChecker` consumes to re-check a
stored case without hydrating it.

Crash semantics: a sealed segment enters the manifest atomically, so an
interrupted append leaves the previous state loadable (at worst an
orphaned segment file for :func:`gc`).  A *final* segment whose content
fails verification — a torn write at the filesystem level — raises
:class:`~repro.store.format.StoreCorruptionError` naming the segment
and the ``ignore_torn_tail`` recovery; opening the store with
``StoredArgument(path, ignore_torn_tail=True)`` drops exactly that last
segment (one whole append, the journal's atomicity unit) and surfaces
the previous consistent state.  A damaged *non-final* segment is real
corruption and always raises.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Iterable

from ..core.argument import Link, MutationDelta
from ..core.nodes import Node, NodeType
from ..core.search import TextPostings
from .format import (
    CITATION_KEYS,
    JOURNAL_SCHEMA_VERSION,
    LEASE_NAME,
    MANIFEST_NAME,
    RECORD_ERRORS,
    StoreCorruptionError,
    StoreError,
    journal_base,
    link_from_record,
    node_from_record,
)
from .lease import writer_lease
from .writer import (
    _commit,
    _node_record,
    _ShardWriter,
    _write_graph,
    _write_sharded,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (reader imports us)
    from .reader import StoredArgument

__all__ = [
    "JournalOverlay",
    "append_delta",
    "coalesce",
    "compact",
    "gc",
    "encode_op",
    "decode_op",
]

#: Journal length at which ``append_delta`` coalesces the segments into
#: one before appending — the manifest (and every fresh reader's replay
#: cost) stays bounded however long the editing session runs.
COALESCE_AFTER = 64


#: Mutation op codes a journal record may carry (the delta protocol's).
_NODE_OPS = ("add_node", "remove_node")
_LINK_OPS = ("add_link", "remove_link")
_OPS = _NODE_OPS + _LINK_OPS + ("replace_node",)


def _link_payload(link: Link) -> dict[str, str]:
    return {
        "source": link.source, "target": link.target, "kind": link.kind.value,
    }


def _canonical_node_payload(node: Node) -> dict[str, Any]:
    # The same canonical metadata form the shard writer produces, so a
    # replayed node re-serialises byte-identically under compaction.
    payload = _node_record(0, node)
    del payload["seq"]
    return payload


def encode_op(op: str, payload: Any) -> dict[str, Any]:
    """One journal record: a mutation op plus its serialised payload."""
    if op == "replace_node":
        old, new = payload
        return {
            "op": op,
            "old": _canonical_node_payload(old),
            "new": _canonical_node_payload(new),
        }
    if op in _NODE_OPS:
        return {"op": op, "node": _canonical_node_payload(payload)}
    if op in _LINK_OPS:
        return {"op": op, "link": _link_payload(payload)}
    raise StoreError(f"unknown mutation op {op!r} cannot be journalled")


def decode_op(record: dict[str, Any], segment: str) -> tuple[str, Any]:
    """Rebuild the ``(op, payload)`` mutation a journal record encodes."""
    op = record.get("op")
    try:
        if op == "replace_node":
            return op, (
                node_from_record(record["old"]),
                node_from_record(record["new"]),
            )
        if op in _NODE_OPS:
            return op, node_from_record(record["node"])
        if op in _LINK_OPS:
            return op, link_from_record(record["link"])
    except RECORD_ERRORS as error:
        raise StoreCorruptionError(
            segment, f"malformed {op!r} journal record ({error})"
        ) from None
    raise StoreCorruptionError(segment, f"unknown journal op {op!r}")


class JournalOverlay:
    """The parsed journal: what shadows, what vanished, what appended.

    Replaying the decoded operation list in order reproduces exactly the
    live argument's insertion-order semantics:

    * a **replaced** identifier keeps its base position (``node_shadow``
      maps it to the replacement);
    * a **removed** base identifier leaves a tombstone (``node_shadow``
      maps it to ``None``) — and if later re-added, the new node orders
      *after* every base record (``appended_nodes``), exactly where a
      live argument's insertion-ordered dict puts a re-added key;
    * links behave the same way (``link_tombstones`` /
      ``appended_links``), keyed by the full ``(source, target, kind)``
      triple, which an argument keeps unique.

    Appended records carry synthetic sequence numbers continuing the
    base numbering (``base_total + position``), so every seq-ordered
    consumer — heap merges, streaming sidecars, subtree assembly — sees
    the same global order a fresh save would produce.
    """

    __slots__ = (
        "ops", "node_shadow", "appended_nodes", "appended_node_positions",
        "link_tombstones", "appended_links", "appended_out", "torn_segment",
    )

    def __init__(
        self,
        ops: "Iterable[tuple[str, Any]]",
        torn_segment: str | None = None,
    ) -> None:
        #: Decoded mutations, oldest first.  A list extended in place —
        #: consumers (``journal_ops()``) read/slice it, never mutate.
        self.ops: list[tuple[str, Any]] = []
        self.torn_segment = torn_segment
        self.node_shadow: dict[str, Node | None] = {}
        self.appended_nodes: dict[str, Node] = {}
        #: id -> position among appended nodes (filled by finalise).
        self.appended_node_positions: dict[str, int] = {}
        self.link_tombstones: set[Link] = set()
        self.appended_links: dict[Link, None] = {}
        #: Appended links grouped by source id (subtree traversal reads
        #: a node's out-links; positions are filled by finalise).
        self.appended_out: dict[str, list[tuple[int, Link]]] = {}
        self.extend(ops)

    def extend(self, ops: "Iterable[tuple[str, Any]]") -> None:
        """Apply further mutation records on top of the current state.

        This is how a long-lived handle keeps up with a growing journal
        without re-decoding old segments: ``refresh()`` feeds only the
        newly appended segments' ops here.  The caller re-runs
        :meth:`finalise` afterwards.
        """
        ops = tuple(ops)
        self.ops.extend(ops)
        for op, payload in ops:
            if op == "add_node":
                # A fresh id, or a tombstoned base id re-added: either
                # way the live argument appends it at the end.  Any base
                # tombstone stays, suppressing the base record.
                self.appended_nodes[payload.identifier] = payload
            elif op == "remove_node":
                identifier = payload.identifier
                if identifier in self.appended_nodes:
                    del self.appended_nodes[identifier]
                else:
                    self.node_shadow[identifier] = None
            elif op == "replace_node":
                _, new = payload
                if new.identifier in self.appended_nodes:
                    self.appended_nodes[new.identifier] = new
                else:
                    self.node_shadow[new.identifier] = new
            elif op == "add_link":
                self.appended_links[payload] = None
            else:  # remove_link
                if payload in self.appended_links:
                    del self.appended_links[payload]
                else:
                    self.link_tombstones.add(payload)

    def copy(self) -> "JournalOverlay":
        """An independent overlay in the same state.

        :meth:`extend` and :meth:`finalise` mutate in place, so a handle
        that starts from another handle's overlay extends a copy: the
        other handle keeps serving exactly its own generation.
        """
        clone = JournalOverlay((), torn_segment=self.torn_segment)
        clone.ops = list(self.ops)
        clone.node_shadow = dict(self.node_shadow)
        clone.appended_nodes = dict(self.appended_nodes)
        clone.appended_node_positions = dict(self.appended_node_positions)
        clone.link_tombstones = set(self.link_tombstones)
        clone.appended_links = dict(self.appended_links)
        clone.appended_out = {
            source: list(links) for source, links in self.appended_out.items()
        }
        return clone

    def finalise(self, base_link_total: int) -> None:
        """Assign appended records their post-base positions."""
        self.appended_node_positions = {
            identifier: position
            for position, identifier in enumerate(self.appended_nodes)
        }
        self.appended_out.clear()
        for position, link in enumerate(self.appended_links):
            self.appended_out.setdefault(link.source, []).append(
                (base_link_total + position, link)
            )

    @property
    def node_delta(self) -> int:
        """Net node-count change the journal applies to the base."""
        tombstones = sum(
            1 for node in self.node_shadow.values() if node is None
        )
        return len(self.appended_nodes) - tombstones

    @property
    def link_delta(self) -> int:
        """Net link-count change the journal applies to the base."""
        return len(self.appended_links) - len(self.link_tombstones)


def load_overlay(
    stored: "StoredArgument",
    base: JournalOverlay | None = None,
    start: int = 0,
) -> JournalOverlay:
    """Parse and verify journal segments of an open store handle.

    Segments verify like shards (count + CRC-32 + per-line decode).  A
    verification failure in the *final* segment is torn-write shaped: it
    raises :class:`StoreCorruptionError` naming the segment and the
    ``ignore_torn_tail=True`` recovery, or — when the handle was opened
    with that flag — drops exactly that segment (one whole append) and
    records it in :attr:`JournalOverlay.torn_segment`.  A damaged
    non-final segment always raises.

    ``base``/``start`` are the incremental path: an overlay already
    covering the first ``start`` segments is *extended* with just the
    newer ones, so a long editing session's Nth refresh decodes one new
    segment, not all N.
    """
    ops: list[tuple[str, Any]] = []
    names = stored.journal_segments
    torn: str | None = None
    for position in range(start, len(names)):
        name = names[position]
        final = position == len(names) - 1
        try:
            # Decode the whole segment before keeping any of it: a
            # mid-segment failure under ignore_torn_tail must drop the
            # entire append (the journal's atomicity unit), never a
            # prefix of it.
            segment_ops = [
                decode_op(record, name)
                for record in stored._stream_shard(name, ("op",))
            ]
            ops.extend(segment_ops)
        except StoreCorruptionError as error:
            if not final:
                raise
            if stored.ignore_torn_tail:
                torn = name
                break
            raise StoreCorruptionError(
                name,
                f"{error.detail}; the final journal segment looks like a "
                "torn append — reopen with StoredArgument(..., "
                "ignore_torn_tail=True) to recover the last consistent "
                "state",
            ) from None
    if base is None:
        overlay = JournalOverlay(tuple(ops), torn_segment=torn)
    else:
        overlay = base
        overlay.extend(ops)
        overlay.torn_segment = torn
    overlay.finalise(stored.base_link_total)
    return overlay


def _delta_counts(records: Iterable[tuple[str, Any]]) -> tuple[int, int]:
    """Net (node, link) count change a record sequence applies."""
    nodes = links = 0
    for op, _ in records:
        if op == "add_node":
            nodes += 1
        elif op == "remove_node":
            nodes -= 1
        elif op == "add_link":
            links += 1
        elif op == "remove_link":
            links -= 1
    return nodes, links


def _check_not_torn(stored: "StoredArgument") -> None:
    if (
        stored._overlay is not None
        and stored._overlay.torn_segment is not None
    ):
        raise StoreError(
            "cannot append to a journal recovered from a torn tail; "
            "compact() (or a full save) must reconcile the store first"
        )


def _check_handle_current(stored: "StoredArgument") -> None:
    """Under the lease: the handle's view must match the disk manifest.

    A handle whose manifest went stale (another writer committed since
    it last refreshed) would commit a manifest derived from the old
    generation — silently dropping the other writer's journal entry, the
    exact lost update the lease exists to prevent.  Raising
    :class:`StoreConflictError` forces the caller to ``refresh()`` (or
    reload) and re-derive its delta.
    """
    from zlib import crc32

    from .format import StoreConflictError

    try:
        raw = (stored.path / MANIFEST_NAME).read_bytes()
    except OSError:
        raise StoreConflictError(
            f"store at {stored.path} vanished under this handle"
        ) from None
    if crc32(raw) != stored.manifest_fingerprint:
        raise StoreConflictError(
            f"store at {stored.path} changed since this handle last "
            "read it (another writer committed); refresh() and retry"
        )


def append_delta(stored: "StoredArgument", delta: MutationDelta) -> dict:
    """Seal one delta as a journal segment; returns the new manifest.

    O(delta) writes plus one manifest rewrite: the segment streams to a
    ``.tmp`` file, seals under its content-addressed name (gzipped when
    the store is), and the atomic manifest rename commits it — the same
    interrupted-save guarantee shards have, so a crash at any point
    leaves the previous state loadable.  The caller (normally
    ``Argument.save(journal=True)``) is responsible for the delta
    actually continuing the stored state; an empty delta is a no-op.

    Runs under the store's writer lease, and refuses (with
    :class:`~repro.store.format.StoreConflictError`) if the manifest on
    disk is no longer the one this handle saw — the compare-and-append
    that makes concurrent editors lose loudly instead of silently.  Once
    the journal reaches :data:`COALESCE_AFTER` segments they are first
    coalesced into one, so the manifest stays bounded over arbitrarily
    long editing sessions; that coalesce copies the sealed segments'
    bytes rather than re-encoding the journal, and the handle keeps its
    parsed overlay through it, so the coalescing append decodes nothing
    again.
    """
    with writer_lease(stored.path):
        _check_not_torn(stored)
        _check_handle_current(stored)
        if stored.journal_segments:
            # Building on top of a torn tail would strand the damage in
            # the *middle* of the journal, beyond ignore_torn_tail's
            # reach — so verify the sealed tail segment (count + CRC +
            # decode) before appending (and before the empty-delta no-op
            # below: a no-op save must not report a damaged store
            # healthy).  O(one delta), not O(journal): earlier segments
            # were each the tail of a previous successful append.
            final = stored.journal_segments[-1]
            if final not in stored.shards_read:
                for record in stored._stream_shard(final, ("op",)):
                    decode_op(record, final)
        if not delta.records:
            return stored.manifest
        if len(stored.journal_segments) >= COALESCE_AFTER:
            coalesce(stored)
            stored.refresh()
        writer = _ShardWriter(
            stored.path,
            journal_base(len(stored.journal_segments)),
            stored.compression,
        )
        try:
            for op, payload in delta.records:
                writer.write(encode_op(op, payload))
        finally:
            writer.close()
        name = writer.finish()
        manifest = dict(stored.manifest)
        manifest["journal"] = list(stored.journal_segments) + [name]
        manifest["journal_schema"] = JOURNAL_SCHEMA_VERSION
        manifest["shards"] = {**manifest["shards"], name: writer.entry}
        node_delta, link_delta = _delta_counts(delta.records)
        manifest["node_count"] += node_delta
        manifest["link_count"] += link_delta
        _commit(stored.path, manifest, sweep=False)
    return manifest


def coalesce(stored: "StoredArgument") -> dict:
    """Merge every journal segment into one; returns the new manifest.

    Pure manifest hygiene: the op sequence — and therefore every
    reader's replay — is unchanged; only the segment boundaries vanish.
    The merged segment is the concatenation of the segments' verified
    bytes (gunzipped, checked against the manifest's CRC-32 and record
    count), so the O(journal) work is a byte copy, not a re-encode:
    journal records are canonical, and their concatenation is exactly
    what re-encoding the parsed ops would write.  No shard rewriting
    (that is :func:`compact`), one atomic manifest swap.  The handle's
    overlay is parsed first, so every record has been decode-verified
    once, and it is kept across the resync: the copied bytes are the
    bytes it was parsed from.  A segment whose bytes changed on disk
    since then raises :class:`~repro.store.format.StoreCorruptionError`
    naming it, before anything is written.  The superseded segments
    stay on disk for pinned snapshot readers until :func:`gc`.  A no-op
    below two segments.
    """
    with writer_lease(stored.path):
        _check_not_torn(stored)
        _check_handle_current(stored)
        if len(stored.journal_segments) < 2:
            return stored.manifest
        overlay = stored.journal_overlay()
        # Parsing may itself have dropped a torn tail (ignore_torn_tail).
        _check_not_torn(stored)
        segments: list[tuple[bytes, int]] = []
        for segment in stored.journal_segments:
            data, lines = stored._verified_lines(segment)
            if data and not data.endswith(b"\n"):
                # The reader accepts a last record without its newline;
                # the copy must not glue it to the next segment's first.
                data += b"\n"
            segments.append((data, len(lines)))
        writer = _ShardWriter(
            stored.path, journal_base(0), stored.compression
        )
        try:
            for data, records in segments:
                writer.write_lines(data, records)
        finally:
            writer.close()
        name = writer.finish()
        manifest = dict(stored.manifest)
        replaced = set(stored.journal_segments)
        carried = {
            shard: entry
            for shard, entry in manifest["shards"].items()
            if shard not in replaced
        }
        manifest["journal"] = [name]
        manifest["journal_schema"] = JOURNAL_SCHEMA_VERSION
        manifest["shards"] = {**carried, name: writer.entry}
        _commit(stored.path, manifest, sweep=False)
        stored.refresh()
        stored._overlay = overlay
    return manifest


def compact(stored: "StoredArgument") -> dict:
    """Fold the journal back into fresh shards; returns the new manifest.

    Streams the journal-replayed node and link sequences straight into
    new content-addressed shards — no live argument is built; the
    handle's decoded base shards are the working set, dropped by the
    refresh that follows — and swaps the manifest atomically; the old
    shards and every journal segment are swept only after the commit
    point.  The result is byte-identical to a clean ``save()`` of the
    same live argument — after a :func:`gc` has swept the superseded
    generation's files, which stay on disk for pinned snapshot readers
    (the commit itself never deletes).  Runs under the writer lease.
    Compacting a journal-less store is a no-op returning the current
    manifest.
    """
    with writer_lease(stored.path):
        return _compact_locked(stored)


def _compact_locked(stored: "StoredArgument") -> dict:
    if not stored.journal_segments:
        return stored.manifest
    _check_handle_current(stored)
    from .search import SEARCH_INDEX_KEY, write_sidecar

    node_types: dict[str, NodeType] = {}
    old_sidecar = stored.manifest.get(SEARCH_INDEX_KEY)
    # An indexed store stays indexed through compaction: collect the
    # postings in the same streaming pass that folds the shards, so the
    # rebuild costs no extra read of the store.
    postings = TextPostings() if isinstance(old_sidecar, str) else None

    def noted_nodes() -> "Iterable[Node]":
        for node in stored.iter_nodes():
            node_types[node.identifier] = node.node_type
            if postings is not None:
                postings.add(node.identifier, node.text)
            yield node

    node_shards, link_shards, shards, node_total, link_total = _write_graph(
        noted_nodes(),
        stored.iter_links(),
        stored.path,
        stored.shard_count,
        stored.compression,
    )
    manifest = dict(stored.manifest)
    manifest.pop("journal", None)
    manifest.pop("journal_schema", None)
    manifest["node_shards"] = node_shards
    manifest["link_shards"] = link_shards
    manifest["node_count"] = node_total
    manifest["link_count"] = link_total
    replaced = set(stored.manifest["node_shards"]) \
        | set(stored.manifest["link_shards"]) \
        | set(stored.journal_segments)
    if postings is not None:
        # Watermark zero over the fresh base: byte-identical to the
        # sidecar a clean ``save(search_index=True)`` of the same
        # argument would seal, preserving compaction's byte-stability.
        sidecar, sidecar_entry = write_sidecar(
            stored.path,
            postings,
            node_shards + link_shards,
            0,
            stored.compression,
        )
        manifest[SEARCH_INDEX_KEY] = sidecar
        shards = {**shards, sidecar: sidecar_entry}
        replaced.add(old_sidecar)
    if stored.kind == "case":
        # Journal edits may have removed or retyped cited solutions; the
        # loader drops their citations only while the journal documents
        # why, so compaction must reconcile the citations shard or the
        # folded store would stop loading as a case.  Evidence carries
        # verbatim (argument journals never touch it).
        old_citations = stored.manifest["citations_shard"]
        live = [
            record
            for record in stored._stream_shard(old_citations, CITATION_KEYS)
            if node_types.get(record["solution"]) is NodeType.SOLUTION
        ]
        (citations_shard,), citations_meta = _write_sharded(
            stored.path,
            ["citations"],
            (
                (0, {
                    "seq": seq,
                    "solution": record["solution"],
                    "evidence": record["evidence"],
                })
                for seq, record in enumerate(live)
            ),
            stored.compression,
        )
        manifest["citations_shard"] = citations_shard
        shards = {**shards, **citations_meta}
        replaced.add(old_citations)
    carried = {
        name: entry
        for name, entry in stored.manifest["shards"].items()
        if name not in replaced
    }
    manifest["shards"] = {**carried, **shards}
    _commit(stored.path, manifest, sweep=False)
    return manifest


#: The in-flight suffix shapes a store write can leave behind: the
#: per-writer unique form (``.<pid-hex>-<rand8>.tmp``) and the legacy
#: deterministic ``.tmp``.
_TMP_FORMS = r"(?:\.[0-9a-f]+-[0-9a-f]{8})?\.tmp"

#: Filenames :func:`gc` is allowed to consider: exactly the shapes the
#: writer, this module, and the lease protocol produce (sealed
#: shards/segments, their in-flight ``.tmp`` forms, and broken-lease
#: leftovers).  Anything else in the directory — including the live
#: ``writer.lease`` itself — is never deleted.
_STORE_FILE = re.compile(
    r"^(?:"
    r"(?:nodes|links|journal)-\d{4}"           # nodes-0003-1a2b3c4d.jsonl
    rf"(?:-[0-9a-f]{{8}}\.jsonl(?:\.gz)?|{_TMP_FORMS})"
    r"|(?:evidence|citations|search)"          # evidence-9c0d1e2f.jsonl
    rf"(?:-[0-9a-f]{{8}}\.jsonl(?:\.gz)?|{_TMP_FORMS})"
    rf"|{re.escape(LEASE_NAME)}\.(?:stale|renew)-[0-9a-f-]+"
    r")$"
)

#: In-flight manifest names (``manifest.json.tmp`` and the unique form)
#: — recognised by gc and fsck but never the manifest itself.
_MANIFEST_TMP = re.compile(
    rf"^{re.escape(MANIFEST_NAME)}{_TMP_FORMS}$"
)


def gc(
    stored: "StoredArgument", *, timeout: "float | None" = None
) -> list[str]:
    """Remove store files the live manifest does not reference.

    Orphans accumulate from interrupted saves and appends (sealed files
    whose manifest commit never happened) and — by design — from
    compaction and journal coalescing, whose commits deliberately leave
    the superseded generation's files on disk so snapshot readers
    pinned to it keep streaming.  Only files matching the store's own
    naming scheme are candidates; the manifest itself, the live writer
    lease, and everything the manifest references survive.  Returns the
    removed names, sorted.

    **Single-writer, lease-enforced.**  gc takes the store's writer
    lease, so a save, append, or compaction in flight in another
    process (whose sealed files a gc would see as orphans and destroy)
    is excluded by construction — the doc-contract of PR 5 is now
    machine-checked.  Readers of the *live* generation are safe; a
    reader still pinned to a superseded generation can hit missing-file
    errors after a gc and should ``refresh()`` — run gc when snapshot
    readers have had time to drain.

    ``timeout`` overrides the lease-acquisition deadline; gc is the one
    operation routinely scheduled *around* live writers, so callers may
    prefer to give up fast and retry later rather than queue.
    """
    from .lease import DEFAULT_ACQUIRE_TIMEOUT

    if timeout is None:
        timeout = DEFAULT_ACQUIRE_TIMEOUT
    with writer_lease(stored.path, timeout=timeout):
        # Resync *inside* the lease: a commit that landed between the
        # caller's last refresh and our acquisition must not have its
        # freshly referenced files swept as orphans.
        stored.refresh()
        referenced = set(stored.manifest["shards"]) | {MANIFEST_NAME}
        removed: list[str] = []
        for path in stored.path.iterdir():
            name = path.name
            if name in referenced:
                continue
            if not _STORE_FILE.match(name) and not _MANIFEST_TMP.match(name):
                continue
            path.unlink()
            removed.append(name)
    return sorted(removed)
