"""Readers for the persistent sharded argument store.

:class:`StoredArgument` is the handle other layers consume.  It supports
three access patterns, cheapest first:

* **streaming** — :meth:`StoredArgument.iter_nodes` /
  :meth:`~StoredArgument.iter_links` heap-merge the shards by ``seq`` and
  yield records in exact insertion order without building an
  :class:`~repro.core.argument.Argument`; this is what
  :func:`repro.core.query.select` uses to scan a stored argument shard
  by shard;
* **lazy per-shard** — :meth:`StoredArgument.node` and
  :meth:`~StoredArgument.subtree` hydrate only the shards an access
  actually touches (a node lookup reads one shard; a subtree load reads
  the node and link shards of the reachable region), tracked in
  :attr:`StoredArgument.shards_read` so tests and benchmarks can assert
  partial loads really were partial;
* **full hydration** — :meth:`StoredArgument.load` rebuilds a live
  :class:`~repro.core.argument.Argument`, replaying every record through
  the PR 2 batch-mutation layer: one version bump for the whole load,
  and the mutation delta log carries the entire load as one delta for
  incremental index consumers.

When the store carries an **append journal** (see
:mod:`repro.store.journal`), every access path replays it transparently:
journal entries shadow shard records by identifier, removed records
vanish, appended ones order after the base records with continuing
sequence numbers — so streaming, per-shard iteration, ``node``,
``subtree``, and ``load`` all see the post-edit argument without the
store ever being rewritten.  ``ignore_torn_tail=True`` recovers from a
torn final journal segment (a crash mid-append at the filesystem level)
by dropping exactly that segment; :meth:`StoredArgument.append_delta`,
:meth:`~StoredArgument.compact`, and :meth:`~StoredArgument.gc` are the
journal's write-side entry points.

All three patterns read base shards through one per-shard cache on the
handle, so each shard file is read, verified and decoded at most once
per handle, whichever access comes first: a streaming check leaves the
shards that later ``node``/``subtree`` reads (or a ``load``) need.

Every shard is verified as it is decoded — CRC-32 and record count
against the manifest, JSON decode per line — and any mismatch raises
:class:`~repro.store.format.StoreCorruptionError` naming the shard.  A
decodable record whose fields make no node or link (an unknown type or
kind, text that fails node validation), or a node id or link repeated
within a shard, raises it too, naming the line.
"""

from __future__ import annotations

import gzip
import heapq
import json
from dataclasses import dataclass
from json.scanner import make_scanner
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, TypeVar
from zlib import crc32, error as zlib_error

from ..core.argument import Argument, Link
from ..core.case import AssuranceCase, SafetyCriterion
from ..core.nodes import Node, NodeType
from ..notation.json_io import evidence_from_payload
from .format import (
    CITATION_KEYS,
    COMPRESSIONS,
    EVIDENCE_KEYS,
    GZIP_COMPRESSION,
    ID_HASH,
    JOURNAL_SCHEMA_VERSION,
    LINK_KEYS,
    MANIFEST_NAME,
    NODE_KEYS,
    RECORD_ERRORS,
    STORE_SCHEMA_VERSION,
    StoreConflictError,
    StoreCorruptionError,
    StoreError,
    link_from_record,
    node_from_record,
    shard_of,
)

__all__ = [
    "JournalMark", "StoredArgument", "StoreGeneration", "load_argument",
    "load_case",
]


@dataclass(frozen=True)
class StoreGeneration:
    """An opaque token naming one committed store generation.

    Two handles (or two moments of one handle) see the same store state
    iff their tokens compare equal.  ``fingerprint`` is the CRC-32 of
    the manifest bytes — the same identity ``save(journal=True)`` pins
    its compare-and-append on; ``base`` and ``segments`` distinguish a
    journal growth (same base) from a rewrite for consumers that care.
    """

    fingerprint: int
    base: "tuple[str, ...]"
    segments: "tuple[str, ...]"

    def __str__(self) -> str:
        return f"{self.fingerprint:08x}+{len(self.segments)}"


class JournalMark(NamedTuple):
    """How far a consumer of a handle's journal ops has read.

    Taken by :meth:`StoredArgument.journal_mark` and handed back to
    :meth:`StoredArgument.ops_since`.  ``ops`` is the overlay's own op
    list, which only ever grows in place, so its first ``length``
    entries stay exactly the ops consumed.
    """

    base: "tuple[str, ...]"
    segments: "tuple[str, ...]"
    ops: "list[tuple[str, Any]]"
    length: int


#: The C scanner ``json.loads`` drives, called directly on each shard
#: line: one call decodes a record without ``json.loads``'s per-call
#: type checks and whitespace regex passes.
_SCAN_RECORD = make_scanner(json.JSONDecoder())

_Item = TypeVar("_Item")


#: Sentinel distinguishing "no shadow entry" from a ``None`` tombstone.
_MISSING = object()


class StoredArgument:
    """A lazily-loaded view of one store directory.

    Opening the handle reads only the manifest.  Each base shard is
    read, verified and decoded at most once per handle, on the first
    access that needs it — a point read, a streaming pass, a full
    ``load`` — and stays cached for the handle's generation: every
    access path is a view over the same per-shard caches (a node shard
    as ``{id: (seq, node)}``, a link shard as its seq-ordered
    ``(seq, link)`` list).  The caches live until the handle is dropped
    or a ``"rewritten"`` :meth:`refresh`, and :meth:`adopt_base_caches`
    shares them with handles on the same base.  :attr:`shards_read`
    records which shard files have been read (and verified) so far.
    The append journal, if any, parses lazily on the first access that
    needs it and shadows base records everywhere; ``ignore_torn_tail=True``
    drops a torn final journal segment instead of raising (recovering
    the last consistent state after a crash mid-append).

    ``generation`` opens the handle *at* a previously captured
    :class:`StoreGeneration` instead of whatever HEAD the manifest names
    (see :meth:`_pin_to`): the parallel well-formedness workers open
    with their parent's token so every process checks the one committed
    snapshot the parent pinned, and a base rotated out from under the
    token raises :class:`~repro.store.StoreConflictError` instead of
    silently mixing generations.
    """

    def __init__(
        self,
        directory: Path | str,
        *,
        ignore_torn_tail: bool = False,
        generation: StoreGeneration | None = None,
    ) -> None:
        self.path = Path(directory)
        #: Tolerate (drop) a torn final journal segment instead of
        #: raising :class:`StoreCorruptionError` — crash recovery.
        self.ignore_torn_tail = ignore_torn_tail
        #: Shard files fully read (and checksum-verified) so far.
        self.shards_read: set[str] = set()
        #: True once :meth:`load` has rebuilt a full in-memory argument —
        #: the no-hydration assertions of the streaming well-formedness
        #: path key off this flag.
        self.hydrated = False
        # Base-shard caches, each shard decoded at most once per handle
        # (and shared with adopting handles): shard index -> {node id:
        # (seq, Node)} and shard index -> [(seq, Link), ...], both in
        # seq order; plus, derived from a link list on first use, shard
        # index -> {source id: [(seq, Link), ...]}.
        self._node_shards: dict[int, dict[str, tuple[int, Node]]] = {}
        self._link_shards: dict[int, list[tuple[int, Link]]] = {}
        self._link_sources: dict[int, dict[str, list[tuple[int, Link]]]] = {}
        self._overlay: Any = None
        # Search postings (see repro.store.search.load_search_index):
        # the parsed sidecar, shared with adopting handles; this
        # handle's journal delta over it; and a weak reference to the
        # view last handed out.  None of them refers to the handle.
        self._search_base: Any = None
        self._search_generation: Any = None
        self._search_view: Any = None
        # (sidecar name, base CRC) of a sidecar that failed to load.
        self._search_failed: "tuple[str, int] | None" = None
        self._read_manifest()
        if generation is not None:
            self._pin_to(generation)

    def _manifest_bytes(self) -> bytes:
        manifest_path = self.path / MANIFEST_NAME
        try:
            return manifest_path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            raise StoreError(f"no store manifest at {manifest_path}") from None

    def _read_manifest(self, raw: "bytes | None" = None) -> None:
        """Parse and validate the manifest (``raw``, or the file's
        bytes); (re)set the handle's view."""
        if raw is None:
            raw = self._manifest_bytes()
        try:
            manifest = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise StoreCorruptionError(
                MANIFEST_NAME, f"manifest is not valid JSON ({error})"
            ) from None
        #: CRC-32 of the manifest bytes — the store generation's
        #: identity.  ``Argument.save(journal=True)`` compares it
        #: against the baseline recorded at the last save/load, so any
        #: external change to the store (appends by another handle,
        #: rewrites, compaction) falls back to a full rewrite instead of
        #: appending a delta onto state it never saw.
        self.manifest_fingerprint = crc32(raw)
        if manifest.get("schema") != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"unsupported store schema {manifest.get('schema')!r} "
                f"(this reader speaks {STORE_SCHEMA_VERSION})"
            )
        if manifest.get("kind") not in ("argument", "case"):
            raise StoreError(f"unknown store kind {manifest.get('kind')!r}")
        if manifest.get("id_hash") != ID_HASH:
            raise StoreError(
                f"store sharded with {manifest.get('id_hash')!r}, "
                f"not {ID_HASH!r}"
            )
        shard_count = manifest.get("shard_count")
        node_shards = manifest.get("node_shards")
        link_shards = manifest.get("link_shards")
        if (
            not isinstance(shard_count, int)
            or shard_count < 1
            or not isinstance(node_shards, list)
            or not isinstance(link_shards, list)
            or len(node_shards) != shard_count
            or len(link_shards) != shard_count
            or not isinstance(manifest.get("shards"), dict)
        ):
            raise StoreCorruptionError(
                MANIFEST_NAME,
                f"inconsistent shard map (shard_count {shard_count!r}, "
                f"{len(node_shards or ())} node / "
                f"{len(link_shards or ())} link shard names)",
            )
        compression = manifest.get("compression")
        if compression not in COMPRESSIONS:
            raise StoreError(
                f"unsupported shard compression {compression!r} "
                f"(this reader speaks gzip or none)"
            )
        journal = manifest.get("journal", [])
        if journal:
            if not isinstance(journal, list) or not all(
                isinstance(name, str) for name in journal
            ):
                raise StoreCorruptionError(
                    MANIFEST_NAME, "journal segment list is malformed"
                )
            if manifest.get("journal_schema") != JOURNAL_SCHEMA_VERSION:
                raise StoreError(
                    "unsupported journal schema "
                    f"{manifest.get('journal_schema')!r} (this reader "
                    f"speaks {JOURNAL_SCHEMA_VERSION})"
                )
        self.manifest = manifest
        self.name: str = manifest["name"]
        self.kind: str = manifest["kind"]
        self.shard_count: int = shard_count
        #: ``"gzip"`` when shards are compressed (transparent on read).
        self.compression: str | None = compression
        self._node_shard_names: list[str] = node_shards
        self._link_shard_names: list[str] = link_shards
        #: Journal segment names, oldest first (empty: no journal).
        self.journal_segments: list[str] = journal
        try:
            #: Record totals of the base shards alone — the seq domain
            #: journal-appended records continue from.
            self.base_node_total: int = sum(
                manifest["shards"][name]["records"] for name in node_shards
            )
            self.base_link_total: int = sum(
                manifest["shards"][name]["records"] for name in link_shards
            )
        except (KeyError, TypeError):
            raise StoreCorruptionError(
                MANIFEST_NAME,
                "shard map is missing entries for listed shards",
            ) from None
        self._overlay = None
        # The bytes this view was parsed from: a refresh that reads the
        # same bytes again has nothing to parse.  Only _pin_to sets the
        # view from anything else; adopt_base_caches and a coalesce
        # swap in caches or an overlay of the same ops, which these
        # bytes still describe.
        self._manifest_raw: "bytes | None" = raw

    # -- journal plumbing ---------------------------------------------------

    def journal_overlay(self) -> Any:
        """The parsed journal overlay (parsing segments on first use)."""
        if self._overlay is None:
            from .journal import JournalOverlay, load_overlay

            if self.journal_segments:
                self._overlay = load_overlay(self)
            else:
                self._overlay = JournalOverlay(())
        return self._overlay

    def _overlay_or_none(self) -> Any:
        """The overlay, or ``None`` when the store has no journal."""
        if not self.journal_segments:
            return None
        return self.journal_overlay()

    def journal_ops(self) -> "list[tuple[str, Any]]":
        """The decoded journal mutations, oldest first — the persisted
        delta stream that derived state (the store-backed
        :class:`repro.core.analysis.IncrementalChecker`, the search
        postings) follows through :meth:`ops_since`.  Read-only: the
        overlay owns the list."""
        return self.journal_overlay().ops

    def journal_mark(self) -> JournalMark:
        """Where this handle's journal ops end now (see :meth:`ops_since`)."""
        ops = self.journal_ops()
        return JournalMark(
            self.base_key(), tuple(self.journal_segments), ops, len(ops)
        )

    def ops_since(
        self, mark: JournalMark
    ) -> "list[tuple[str, Any]] | None":
        """The journal ops this handle serves past ``mark``, oldest
        first, or ``None`` when its journal does not continue the
        marked one and whatever was derived from it must be rebuilt.

        The journal continues the mark when the base shards are the
        same and the marked ops are a prefix of the current ones.
        Marked segment names that prefix the current ones prove that at
        once (the names are content-addressed).  Otherwise, as after a
        coalesce, the marked ops are compared with the new prefix by
        value: O(journal), once.  Position alone is not enough, because
        a compaction can reproduce identical base shards while
        resetting the journal, after which a regrown journal of the
        same length holds different ops.
        """
        ops = self.journal_ops()
        length = mark.length
        if (
            self.base_key() != mark.base
            or len(ops) < length  # torn-tail recovery shrank it
            or (
                tuple(self.journal_segments[:len(mark.segments)])
                != mark.segments
                and ops[:length] != mark.ops[:length]
            )
        ):
            return None
        return ops[length:]

    def base_key(self) -> tuple:
        """Identity of the base shard generation (changes on any full
        rewrite or compaction, never on a journal append)."""
        return tuple(self._node_shard_names) + tuple(self._link_shard_names)

    def pin(self) -> StoreGeneration:
        """The generation this handle is currently serving.

        A :class:`StoredArgument` **is** a snapshot reader: nothing it
        does implicitly resyncs to the store on disk, and the files its
        manifest references are content-addressed and never overwritten
        — later commits land under fresh names, and even the sweep of
        superseded files is deferred to an explicit lease-guarded
        ``gc()``.  So the handle keeps serving exactly this generation,
        however many writers commit behind it, until the owner *opts in*
        to :meth:`refresh`.  The token supports optimistic concurrency:
        capture it, do slow read work, compare against a fresh handle's
        token (or send it to the service's append endpoint) to detect
        that the world moved.
        """
        return StoreGeneration(
            fingerprint=self.manifest_fingerprint,
            base=tuple(self._node_shard_names)
            + tuple(self._link_shard_names),
            segments=tuple(self.journal_segments),
        )

    #: ``pin()`` as a property, for log lines and service payloads.
    @property
    def generation(self) -> StoreGeneration:
        return self.pin()

    def _pin_to(self, generation: StoreGeneration) -> None:
        """Rewind a freshly-opened handle to serve ``generation`` exactly.

        The snapshot contract of :meth:`pin` makes this possible: base
        shards and journal segments are content-addressed, never
        overwritten, and never swept while a pinned reader may hold
        them (the sweep is an explicit lease-guarded ``gc()``).  So
        when the store has only *grown* since the token was captured —
        journal segments appended behind it — the pinned generation is
        still fully on disk, and this handle serves it by truncating
        its segment list back to the pinned prefix.  That is how a
        parallel check's worker processes see their parent's snapshot:
        they open with the parent's token, however many appends another
        editor lands mid-check.

        What cannot be rewound raises
        :class:`~repro.store.StoreConflictError` naming both
        generations: a replaced base (a compaction or full rewrite
        rotated the shard files) or a reshaped journal (a coalesce
        merged the pinned segments away).
        """
        current = self.pin()
        if current == generation:
            return
        if current.base != generation.base:
            raise StoreConflictError(
                f"store at {self.path} no longer serves generation "
                f"{generation}: the base shards rotated (a compaction "
                f"or full rewrite committed mid-read) and this handle "
                f"opened generation {current}"
            )
        pinned = generation.segments
        if tuple(current.segments[:len(pinned)]) != pinned:
            raise StoreConflictError(
                f"store at {self.path} no longer serves generation "
                f"{generation}: the journal segments were coalesced or "
                f"replaced mid-read and this handle opened generation "
                f"{current}"
            )
        # Pinned prefix intact: rewind to it.  The manifest copy is
        # patched to stay self-consistent with the truncated journal
        # (the count fields reflect the newer journal's deltas; with no
        # segments left the overlay no longer corrects them).
        manifest = dict(self.manifest)
        self.journal_segments = list(pinned)
        if pinned:
            manifest["journal"] = list(pinned)
        else:
            manifest.pop("journal", None)
            manifest.pop("journal_schema", None)
            manifest["node_count"] = self.base_node_total
            manifest["link_count"] = self.base_link_total
        self.manifest = manifest
        self.manifest_fingerprint = generation.fingerprint
        self._overlay = None
        # The view no longer matches the bytes it was parsed from: the
        # next refresh must parse them, and so advance to HEAD.
        self._manifest_raw = None
        # A patched delta cannot be *unwound* to the pinned prefix;
        # drop it and re-patch the parsed sidecar to the rewound ops.
        self._search_generation = None

    def refresh(self) -> str:
        """Re-read the manifest; resync the handle to the store on disk.

        **Opt-in per reader**: no read path calls this implicitly, so a
        handle that never refreshes is a stable snapshot of the
        generation it opened (see :meth:`pin`).  Returns
        ``"unchanged"``, ``"journal"`` (same base shards, new journal
        segments — base caches stay valid), ``"coalesced"`` (same base
        shards, a different segment list — base caches stay valid, the
        overlay re-parses), or ``"rewritten"`` (a full save or
        compaction replaced the base: every cache drops).
        ``"coalesced"`` covers a coalesce, which merges the segments and
        keeps the ops, and also a compaction that reproduced the base
        shards byte for byte and reset the journal; so state derived
        from the old ops (the incremental store checker, the search
        postings) revalidates through :meth:`ops_since`.

        The manifest file is read on every call, so another writer's
        commit is always seen.  When its bytes equal the ones this view
        was parsed from, the call stops there: ``"unchanged"`` with no
        JSON decode, so a check right after this handle's own append
        (which refreshed already) costs one file read.  A handle
        rewound by ``generation=`` (:meth:`_pin_to`) serves a view the
        disk bytes do not describe, so its next refresh always parses.
        There is deliberately no stat or mtime shortcut: the manifest is
        replaced by rename, so an inode number can come back, and a
        coarse mtime can stay put across a commit; either would hide
        another writer's commit.
        """
        raw = self._manifest_bytes()
        if raw == self._manifest_raw:
            # A sidecar that failed to load may since have been rebuilt
            # under its own name (it is content-addressed): try it again.
            self._search_failed = None
            self._drop_torn_overlay()
            return "unchanged"
        previous = self.manifest
        previous_base = self.base_key()
        previous_journal = list(self.journal_segments)
        previous_overlay = self._overlay
        self._read_manifest(raw)
        self._search_failed = None
        if self.manifest == previous:
            self._overlay = previous_overlay
            self._drop_torn_overlay()
            return "unchanged"
        if self.base_key() == previous_base:
            if (
                self.journal_segments[:len(previous_journal)]
                == previous_journal
            ):
                # Same base generation, journal only grew: keeps a long
                # editing session's refresh cost O(delta).
                self._extend_overlay(previous_overlay, previous_journal)
                return "journal"
            return "coalesced"
        # Fresh maps, not clear(): an adopting handle may share the old
        # ones and still serve the old base.
        self._node_shards = {}
        self._link_shards = {}
        self._link_sources = {}
        self.shards_read.clear()
        self._search_base = None
        self._search_generation = None
        return "rewritten"

    def _drop_torn_overlay(self) -> None:
        """Never carry a torn-tail overlay across a refresh: the damaged
        segment may have been repaired in place (same manifest, content
        restored), and serving the recovered pre-append state would be
        silently stale.  Dropping the overlay re-verifies the journal
        from disk on the next access."""
        overlay = self._overlay
        if overlay is not None and overlay.torn_segment is not None:
            self._overlay = None

    def _extend_overlay(
        self, overlay: Any, consumed: "list[str]", copy: bool = False
    ) -> bool:
        """Serve ``overlay``, parsed from the segments ``consumed``,
        extended with just this handle's segments past them; returns
        whether it did.  Otherwise the overlay parses on first use.

        Only when ``consumed`` prefixes this handle's segments.  An
        overlay that dropped a torn tail is never carried over:
        extending it would keep serving the recovered state while the
        journal on disk has moved past it.  ``copy`` extends a copy, so
        the handle that parsed ``overlay`` keeps serving its own
        generation.
        """
        if (
            overlay is None
            or overlay.torn_segment is not None
            or self.journal_segments[:len(consumed)] != consumed
        ):
            return False
        from .journal import load_overlay

        self._overlay = load_overlay(
            self, base=overlay.copy() if copy else overlay,
            start=len(consumed),
        )
        return True

    def adopt_base_caches(self, other: "StoredArgument") -> bool:
        """Share another handle's base-shard caches, if generations align.

        The service's serving chain opens a fresh pinned handle per
        committed write; base shards are immutable content-addressed
        files, so when both handles reference the same base generation
        their per-shard caches are interchangeable — sharing them makes
        a new snapshot O(journal delta) instead of O(read shards again).
        The parsed search sidecar is shared the same way: it indexes
        the base, and each handle patches its own journal delta over
        it.  When ``other`` has parsed its journal and that journal is a
        prefix of this handle's (segment names are content-addressed),
        this handle's overlay starts from a copy of it and decodes only
        the newer segments, so an append's snapshot costs that append,
        not the whole journal; a damaged newer segment is left for the
        first use to report.  Returns whether adoption happened.
        """
        if other.base_key() != self.base_key() or other is self:
            return False
        self._node_shards = other._node_shards
        self._link_shards = other._link_shards
        self._link_sources = other._link_sources
        if self._search_base is None:
            self._search_base = other._search_base
        self.shards_read |= other.shards_read & set(
            self._node_shard_names
        ) | other.shards_read & set(self._link_shard_names)
        if self._overlay is None:
            consumed = other.journal_segments
            try:
                if self._extend_overlay(other._overlay, consumed, copy=True):
                    self.shards_read |= other.shards_read & set(consumed)
            except StoreCorruptionError:
                pass
        return True

    def append_delta(self, delta: Any) -> dict[str, Any]:
        """Seal one mutation delta as a journal segment (O(delta) writes).

        See :func:`repro.store.journal.append_delta`; the handle resyncs
        to the committed manifest before returning.
        """
        from .journal import append_delta

        manifest = append_delta(self, delta)
        self.refresh()
        return manifest

    def compact(self) -> dict[str, Any]:
        """Fold the journal into fresh shards (atomic manifest swap).

        See :func:`repro.store.journal.compact`; the handle resyncs to
        the compacted store before returning.
        """
        from .journal import compact

        manifest = compact(self)
        self.refresh()
        return manifest

    def coalesce(self) -> dict[str, Any]:
        """Merge all journal segments into one (atomic manifest swap).

        Same op stream, bounded manifest — see
        :func:`repro.store.journal.coalesce`; the handle resyncs to the
        coalesced store before returning.
        """
        from .journal import coalesce

        manifest = coalesce(self)
        self.refresh()
        return manifest

    def gc(self) -> list[str]:
        """Remove store files the live manifest no longer references.

        Resyncs to the manifest on disk first — sweeping against a
        stale in-memory view would delete a newer generation's shards.
        See :func:`repro.store.journal.gc` for the safety contract (no
        concurrent writers).
        """
        from .journal import gc

        self.refresh()
        return gc(self)

    # -- search sidecar ------------------------------------------------------

    def search_index(self) -> Any:
        """The store's search index, journal-patched to this handle's
        generation, or ``None`` when no current sidecar exists.  See
        :func:`repro.store.search.load_search_index`."""
        from .search import load_search_index

        return load_search_index(self)

    def build_search_index(self) -> dict[str, Any]:
        """Build (or rebuild) the persisted search sidecar and commit it.

        A lease-guarded manifest swap like any other write — see
        :func:`repro.store.search.build_search_index`; the handle
        resyncs to the committed manifest before returning.
        """
        from .search import build_search_index

        manifest = build_search_index(self)
        self.refresh()
        return manifest

    def search(self, query_text: str, **kwargs: Any) -> list:
        """Ranked query-biased search over this store — see
        :func:`repro.core.search.search`."""
        from ..core.search import search

        return search(self, query_text, **kwargs)

    # -- effective (post-journal) totals ------------------------------------

    @property
    def node_count(self) -> int:
        """Node count after journal replay (== manifest for clean tails)."""
        overlay = self._overlay_or_none()
        if overlay is None:
            return self.manifest["node_count"]
        return self.base_node_total + overlay.node_delta

    @property
    def link_count(self) -> int:
        """Link count after journal replay (== manifest for clean tails)."""
        overlay = self._overlay_or_none()
        if overlay is None:
            return self.manifest["link_count"]
        return self.base_link_total + overlay.link_delta

    def __len__(self) -> int:
        return self.node_count

    def __contains__(self, identifier: str) -> bool:
        overlay = self._overlay_or_none()
        if overlay is not None:
            if identifier in overlay.appended_nodes:
                return True
            shadow = overlay.node_shadow.get(identifier, _MISSING)
            if shadow is None:
                return False
            if shadow is not _MISSING:
                return True
        shard = self._node_shard(shard_of(identifier, self.shard_count))
        return identifier in shard

    # -- verified shard streaming -----------------------------------------

    def _verified_lines(self, filename: str) -> tuple[bytes, list[str]]:
        """A shard's decompressed bytes and their lines, once verified.

        The shard is read in one buffer (bounded by shard size, which the
        id-hash distribution keeps at roughly 1/shard_count of the store)
        so the CRC-32 and the UTF-8 decode each run once at C speed.
        Count and checksum are verified against the manifest before
        anything is returned; counts, checksums, and line numbers always
        refer to the *decompressed* content of a gzip shard.  Shared by
        :meth:`_stream_shard` and journal coalescing, which copies the
        verified bytes of each segment instead of re-encoding its ops.
        """
        meta = self.manifest["shards"].get(filename)
        if meta is None:
            raise StoreError(f"shard {filename!r} not in the manifest")
        shard_path = self.path / filename
        if not shard_path.exists():
            raise StoreCorruptionError(filename, "shard file is missing")
        data = shard_path.read_bytes()
        if self.compression == GZIP_COMPRESSION:
            try:
                data = gzip.decompress(data)
            except (OSError, EOFError, zlib_error) as error:
                raise StoreCorruptionError(
                    filename, f"cannot decompress gzip shard ({error})"
                ) from None
        checksum = crc32(data)
        if checksum != meta["crc32"]:
            raise StoreCorruptionError(
                filename,
                f"checksum mismatch (manifest {meta['crc32']}, "
                f"content {checksum})",
            )
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as error:
            line_number = data.count(b"\n", 0, error.start) + 1
            raise StoreCorruptionError(
                filename,
                f"line {line_number} is not valid JSON ({error})",
            ) from None
        lines = text.splitlines()
        if len(lines) != meta["records"]:
            raise StoreCorruptionError(
                filename,
                f"expected {meta['records']} record(s), found "
                f"{len(lines)} (truncated or padded shard)",
            )
        return data, lines

    def _stream_shard(
        self, filename: str, required: tuple[str, ...] = ("seq",)
    ) -> Iterator[dict[str, Any]]:
        """Yield a shard's records, verifying integrity as they stream.

        The whole shard is verified up front by :meth:`_verified_lines`
        (read, gunzip, CRC-32, UTF-8, record count), so a consumed
        stream implies an intact shard — this is the hot path of
        streaming well-formedness and of every load.

        Each line decodes with one call to the C scanner behind
        ``json.loads`` at offset 0, accepted only when it consumed the
        whole line.  Anything else — leading or trailing whitespace,
        trailing garbage, a BOM, a syntax error — falls back to
        ``json.loads(line)`` itself, so the records accepted and the
        ``line N is not valid JSON (...)`` errors are exactly
        ``json.loads``'s.  A line that decodes to something other than
        a record carrying the ``required`` keys raises at that line.
        """
        _, lines = self._verified_lines(filename)
        required_keys = frozenset(required)
        scan = _SCAN_RECORD
        for line_number, line in enumerate(lines, start=1):
            try:
                record, end = scan(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(line):
                try:
                    record = json.loads(line)
                except ValueError as error:
                    raise StoreCorruptionError(
                        filename,
                        f"line {line_number} is not valid JSON ({error})",
                    ) from None
            if type(record) is not dict or not (
                record.keys() >= required_keys
            ):
                raise StoreCorruptionError(
                    filename,
                    f"line {line_number} is not a store record "
                    f"(expected an object with {', '.join(required)})",
                )
            yield record
        self.shards_read.add(filename)

    def _decode_shard(
        self,
        filename: str,
        required: tuple[str, ...],
        decode: "Callable[[dict[str, Any]], _Item]",
    ) -> Iterator[tuple[int, _Item]]:
        """Stream a shard's ``(seq, object)`` pairs, each record decoded
        by ``decode``; a record whose fields make no valid object raises
        :class:`StoreCorruptionError` naming the shard and the line."""
        records = self._stream_shard(filename, required)
        for line_number, record in enumerate(records, start=1):
            try:
                item = decode(record)
            except RECORD_ERRORS as error:
                raise StoreCorruptionError(
                    filename,
                    f"line {line_number} is not a valid record "
                    f"({error})",
                ) from None
            yield record["seq"], item

    def iter_nodes(self) -> Iterator[Node]:
        """Stream every node in insertion order (journal replayed): the
        per-shard streams of :meth:`iter_shard_nodes`, merged by seq."""
        shards = (self.iter_shard_nodes(i) for i in range(self.shard_count))
        return map(itemgetter(1), heapq.merge(*shards, key=itemgetter(0)))

    def iter_links(self) -> Iterator[Link]:
        """Stream every link in insertion order (journal replayed): the
        per-shard streams of :meth:`iter_shard_links`, merged by seq."""
        shards = (self.iter_shard_links(i) for i in range(self.shard_count))
        return map(itemgetter(1), heapq.merge(*shards, key=itemgetter(0)))

    def iter_shard_nodes(self, index: int) -> Iterator[tuple[int, Node]]:
        """Stream one node shard's ``(seq, node)`` pairs, seq-ascending.

        The per-shard work unit of the parallel well-formedness engine:
        shard ``index`` holds exactly the nodes whose identifiers hash
        there.  A view over the handle's cached shard (see
        :meth:`_node_shard`), so the streaming check, :meth:`load`, the
        search scan and the point reads share one verified decode per
        shard.  Journal entries replay in place: shadowed records
        substitute, tombstoned ones vanish, and appended nodes hashing
        to this shard follow with their post-base seqs — the id-hash
        partition survives the journal.
        """
        base = self._node_shard(index).values()
        overlay = self._overlay_or_none()
        if overlay is None:
            yield from base
            return
        shadows = overlay.node_shadow
        for seq, node in base:
            shadow = shadows.get(node.identifier, _MISSING)
            if shadow is _MISSING:
                yield seq, node
            elif shadow is not None:  # None: a tombstone
                yield seq, shadow
        base_total = self.base_node_total
        for position, node in enumerate(overlay.appended_nodes.values()):
            if shard_of(node.identifier, self.shard_count) == index:
                yield base_total + position, node

    def iter_shard_links(self, index: int) -> Iterator[tuple[int, Link]]:
        """Stream one link shard's ``(seq, link)`` pairs, seq-ascending.

        Links shard by *source* id, so a node's outgoing links live in
        the shard its identifier hashes to — per-source order within a
        shard equals global insertion order.  A view over the handle's
        cached shard (see :meth:`_link_shard`); the journal replays in
        place exactly as in :meth:`iter_shard_nodes`.
        """
        base = self._link_shard(index)
        overlay = self._overlay_or_none()
        if overlay is None:
            yield from base
            return
        tombstones = overlay.link_tombstones
        if tombstones:
            for seq, link in base:
                if link not in tombstones:
                    yield seq, link
        else:
            yield from base
        base_total = self.base_link_total
        for position, link in enumerate(overlay.appended_links):
            if shard_of(link.source, self.shard_count) == index:
                yield base_total + position, link

    # -- the per-shard caches ----------------------------------------------

    def _node_shard(self, index: int) -> dict[str, tuple[int, Node]]:
        """Base node shard ``index`` as ``{id: (seq, node)}`` in seq
        order: decoded and verified on first use, then kept for the
        handle's generation.  A node id that appears twice raises
        :class:`StoreCorruptionError` at the second copy's line."""
        shard = self._node_shards.get(index)
        if shard is None:
            name = self._node_shard_names[index]
            shard = {}
            decoded = self._decode_shard(name, NODE_KEYS, node_from_record)
            for line_number, (seq, node) in enumerate(decoded, start=1):
                if node.identifier in shard:
                    raise StoreCorruptionError(
                        name,
                        f"line {line_number} has a duplicate node id "
                        f"{node.identifier!r}",
                    )
                shard[node.identifier] = (seq, node)
            self._node_shards[index] = shard
        return shard

    def _link_shard(self, index: int) -> list[tuple[int, Link]]:
        """Base link shard ``index`` as its seq-ordered ``(seq, link)``
        list: decoded and verified on first use, then kept for the
        handle's generation.  A link that appears twice raises
        :class:`StoreCorruptionError` at the second copy's line."""
        shard = self._link_shards.get(index)
        if shard is None:
            name = self._link_shard_names[index]
            shard = list(self._decode_shard(
                name, LINK_KEYS, link_from_record
            ))
            if len(set(map(itemgetter(1), shard))) != len(shard):
                seen: set[Link] = set()
                for line_number, (_, link) in enumerate(shard, start=1):
                    if link in seen:
                        raise StoreCorruptionError(
                            name,
                            f"line {line_number} has a duplicate link "
                            f"{link}",
                        )
                    seen.add(link)
            self._link_shards[index] = shard
        return shard

    def _link_sources_of(
        self, index: int
    ) -> dict[str, list[tuple[int, Link]]]:
        """Base link shard ``index`` grouped by source id, derived from
        :meth:`_link_shard` on first use (per-source lists stay in seq
        order)."""
        by_source = self._link_sources.get(index)
        if by_source is None:
            by_source = {}
            for entry in self._link_shard(index):
                by_source.setdefault(entry[1].source, []).append(entry)
            self._link_sources[index] = by_source
        return by_source

    # -- lazy per-shard access ---------------------------------------------

    def _node_entry(self, identifier: str) -> tuple[int, Node]:
        """One node's ``(seq, node)`` under the overlay (KeyError if
        absent), hydrating at most its base shard."""
        overlay = self._overlay_or_none()
        if overlay is not None:
            position = overlay.appended_node_positions.get(identifier)
            if position is not None:
                return (
                    self.base_node_total + position,
                    overlay.appended_nodes[identifier],
                )
            shadow = overlay.node_shadow.get(identifier, _MISSING)
            if shadow is None:
                raise KeyError(identifier)
            if shadow is not _MISSING:
                shard = self._node_shard(
                    shard_of(identifier, self.shard_count)
                )
                return shard[identifier][0], shadow
        shard = self._node_shard(shard_of(identifier, self.shard_count))
        return shard[identifier]

    def node(self, identifier: str) -> Node:
        """Fetch one node, hydrating at most its shard (journal replayed)."""
        try:
            return self._node_entry(identifier)[1]
        except KeyError:
            raise StoreError(
                f"unknown node {identifier!r} in store {self.name!r}"
            ) from None

    def _outgoing(self, identifier: str) -> list[tuple[int, Link]]:
        """A node's outgoing ``(seq, link)`` pairs under the overlay,
        hydrating only the one link shard its identifier hashes to."""
        overlay = self._overlay_or_none()
        outgoing = list(
            self._link_sources_of(
                shard_of(identifier, self.shard_count)
            ).get(identifier, ())
        )
        if overlay is not None:
            if overlay.link_tombstones:
                outgoing = [
                    (seq, link)
                    for seq, link in outgoing
                    if link not in overlay.link_tombstones
                ]
            outgoing.extend(overlay.appended_out.get(identifier, ()))
        return outgoing

    def links_of(self, identifier: str) -> list[Link]:
        """Every link touching a node, as
        :meth:`~repro.core.argument.Argument.links_of` answers it:
        outgoing first, then incoming, each in seq order (journal
        replayed).  An unknown identifier raises :class:`StoreError`.

        Outgoing links read the one link shard the identifier hashes
        to; incoming links take one scan of every link shard, since
        links shard by source.  No index is kept: the incremental
        checker asks only when a batch retypes a node.
        """
        self.node(identifier)
        incoming = [
            entry
            for index in range(self.shard_count)
            for entry in self.iter_shard_links(index)
            if entry[1].target == identifier
        ]
        incoming.sort(key=itemgetter(0))
        return [link for _, link in self._outgoing(identifier) + incoming]

    def subtree(self, root_id: str) -> Argument:
        """Hydrate only the region reachable from ``root_id``.

        Follows outgoing links of every kind — the same reachable set as
        the in-memory :meth:`~repro.core.argument.Argument.subtree` —
        but reads only the link shards of frontier nodes and the node
        shards of members, so a localised sub-argument of a huge store
        touches a strict subset of the shards a full load would.
        Journal entries replay transparently.
        """
        self.node(root_id)
        members: set[str] = set()
        gathered: list[tuple[int, Link]] = []
        stack = [root_id]
        while stack:
            identifier = stack.pop()
            if identifier in members:
                continue
            members.add(identifier)
            for seq, link in self._outgoing(identifier):
                gathered.append((seq, link))
                if link.target not in members:
                    stack.append(link.target)
        ordered_nodes = sorted(
            self._node_entry(identifier) for identifier in members
        )
        gathered.sort()
        fragment = Argument(name=f"{self.name}/{root_id}")
        with fragment.batch():
            fragment.add_nodes(node for _, node in ordered_nodes)
            fragment.add_links(
                (link.source, link.target, link.kind)
                for _, link in gathered
            )
        return fragment

    # -- full hydration -----------------------------------------------------

    def load(self, into: type[Argument] | None = None) -> Argument:
        """Rebuild the full in-memory argument.

        Streams shards through the batch-mutation layer: the whole load
        is one logical change (a single version bump), and the mutation
        log records it as one contiguous delta.  ``into`` names the
        class to instantiate (an :class:`Argument` subclass taking the
        same constructor), so ``MyArgument.load(path)`` really returns a
        ``MyArgument``.
        """
        argument = (into or Argument)(name=self.name)
        with argument.batch():
            argument.add_nodes(self.iter_nodes())
            argument.add_links(
                (link.source, link.target, link.kind)
                for link in self.iter_links()
            )
        # Cross-check the totals (journal replay included): every shard
        # verified individually, but a tampered manifest could still
        # understate the shard list coherently — loudness beats silent
        # data loss.
        if (
            len(argument) != self.node_count
            or len(argument.links) != self.link_count
        ):
            raise StoreCorruptionError(
                MANIFEST_NAME,
                f"loaded {len(argument)} nodes / "
                f"{len(argument.links)} links, manifest claims "
                f"{self.node_count} / {self.link_count}",
            )
        self.hydrated = True
        # The loaded argument continues the stored state: record the
        # baseline so its next save(journal=True) appends a delta.
        argument.mark_persisted(self.path)
        return argument


def load_argument(
    directory: Path | str,
    *,
    into: type[Argument] | None = None,
    ignore_torn_tail: bool = False,
) -> Argument:
    """Fully hydrate the argument stored in a directory.

    ``ignore_torn_tail=True`` recovers from a torn final journal
    segment (see :mod:`repro.store.journal`) instead of raising.
    """
    return StoredArgument(
        directory, ignore_torn_tail=ignore_torn_tail
    ).load(into=into)


def load_case(
    directory: Path | str,
    *,
    into: type[AssuranceCase] | None = None,
    ignore_torn_tail: bool = False,
) -> AssuranceCase:
    """Fully hydrate an assurance case stored by
    :func:`~repro.store.writer.save_case`.

    The lifecycle log restarts (see the writer); evidence and citations
    replay in their original registration order, so a reloaded case
    re-serialises byte-identically.  ``into`` names the
    :class:`AssuranceCase` subclass to instantiate.
    """
    stored = StoredArgument(directory, ignore_torn_tail=ignore_torn_tail)
    if stored.kind != "case":
        raise StoreError(
            f"store at {stored.path} holds an argument, not a case"
        )
    argument = stored.load()
    manifest = stored.manifest
    for key in ("case_name", "evidence_shard", "citations_shard"):
        if not isinstance(manifest.get(key), str):
            raise StoreCorruptionError(
                MANIFEST_NAME, f"case manifest is missing {key!r}"
            )
    criterion = None
    if manifest.get("criterion"):
        criterion = SafetyCriterion(
            statement=manifest["criterion"]["statement"],
            risk_metric=manifest["criterion"]["risk_metric"],
            threshold=manifest["criterion"]["threshold"],
        )
    case = (into or AssuranceCase)(
        manifest["case_name"], argument, criterion
    )
    for record in stored._stream_shard(
        manifest["evidence_shard"], EVIDENCE_KEYS
    ):
        case.evidence.add(evidence_from_payload(record))
    journaled = bool(stored.journal_segments)
    for record in stored._stream_shard(
        manifest["citations_shard"], CITATION_KEYS
    ):
        solution = record["solution"]
        # Journal edits can orphan a base citations record — its
        # solution removed, or retyped away from SOLUTION, after the
        # shard was written.  Those citations are gone with the node,
        # not corruption: drop them instead of failing the load.  Only
        # a journal can explain such an orphan (compaction reconciles
        # the shard), so on journal-less stores a dangling citation
        # stays what it always was — a loud corruption error.
        if journaled and (
            solution not in argument
            or argument.node(solution).node_type is not NodeType.SOLUTION
        ):
            continue
        for evidence_id in record["evidence"]:
            case.cite(solution, evidence_id)
    return case
