"""The persisted search index sidecar of the sharded argument store.

Searching a corpus of stored cases with ``text_contains`` costs O(total
text) per query: every store streams (and CRC-verifies) its node shards
just to run a substring test.  This module persists the token + trigram
postings of :class:`repro.core.search.TextPostings` — the one postings
implementation, shared with the live query planner — as a **sidecar**
next to the shards, under exactly the store's existing discipline:

* **checksummed + content-addressed** — the sidecar seals through the
  same :class:`~repro.store.writer._ShardWriter` as shards
  (``search-<crc32>.jsonl[.gz]``), is listed in the manifest's shard
  map (count + CRC-32), and commits via the atomic manifest swap;
* **journal-patched, O(delta) per edit** — ``save(journal=True)`` /
  ``append_delta`` never rewrite the sidecar.  Its header records the
  number of journal ops it reflects; the journal *is* the persisted
  delta log, so :func:`load_search_index` patches the loaded postings
  forward from exactly the suffix of
  :meth:`~repro.store.reader.StoredArgument.journal_ops` past that
  watermark, caches the patched index on the handle, and each
  subsequent append patches only its own delta;
* **rebuilt on compact(), swept by gc()** — compaction folds the
  journal into fresh shards and rebuilds the sidecar in the same
  streaming pass at watermark zero (byte-identical to a clean indexed
  save's sidecar); the superseded sidecar joins the deferred-sweep
  orphan set that lease-guarded ``gc()`` reclaims once pinned readers
  drain — never at commit time.

The index is **derived data**: a missing, stale (wrong base generation
or tokenizer version), or damaged sidecar silently degrades to the
streaming scan — correctness never depends on it, which is also why
``casefsck`` flags staleness as a note, not a failure.

:class:`CaseCorpus` drives ranked search (:func:`repro.core.search.
search`) over a directory of stores, holding warm handles and their
patched indexes between queries.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Iterator
from zlib import crc32

from ..core.search import TOKENIZER_VERSION, TextPostings
from .format import (
    MANIFEST_NAME,
    StoreCorruptionError,
    StoreError,
)
from .journal import _check_handle_current, _check_not_torn
from .lease import writer_lease
from .reader import StoredArgument
from .writer import _commit, _ShardWriter

__all__ = [
    "SEARCH_INDEX_KEY",
    "SEARCH_SCHEMA_VERSION",
    "StoreSearchIndex",
    "CaseCorpus",
    "build_search_index",
    "load_search_index",
]

#: Manifest key referencing the sidecar file (absent: store unindexed).
SEARCH_INDEX_KEY = "search_index"

#: Bumped on any sidecar record-format change; other versions are stale.
SEARCH_SCHEMA_VERSION = 1

#: The sidecar's shard-name base (seals as ``search-<crc32>.jsonl``).
_SEARCH_BASE = "search"


def base_names_crc(names: Iterable[str]) -> int:
    """Identity of a base shard generation, as the sidecar records it.

    CRC-32 over the ordered content-addressed base shard names
    (:meth:`~repro.store.reader.StoredArgument.base_key`): any full
    rewrite or compaction changes it, a journal append never does —
    exactly the staleness boundary the journal-patch contract needs.
    """
    return crc32("\n".join(names).encode("utf-8"))


def _sidecar_records(
    postings: TextPostings,
    base_crc32: int,
    ops: int,
) -> Iterator[dict[str, Any]]:
    """The sidecar's serialised records, in canonical (deterministic)
    order: header first, then token and gram postings sorted by term
    with sorted id lists — identical postings always seal under
    identical bytes, which is what keeps compaction byte-stable."""
    yield {
        "seq": 0,
        "kind": "header",
        "search_schema": SEARCH_SCHEMA_VERSION,
        "tokenizer": TOKENIZER_VERSION,
        "base_crc32": base_crc32,
        "ops": ops,
    }
    seq = 1
    for kind, terms in (("token", postings.tokens), ("gram", postings.grams)):
        for term in sorted(terms):
            yield {
                "seq": seq,
                "kind": kind,
                "term": term,
                "ids": sorted(terms[term]),
            }
            seq += 1


def write_sidecar(
    directory: Path,
    postings: TextPostings,
    base_names: Iterable[str],
    ops: int,
    compression: "str | None",
) -> tuple[str, dict[str, int]]:
    """Seal a sidecar file; returns its final name and manifest entry.

    Writes only the file — the caller owns the manifest commit (the
    indexed save and compaction fold the reference into the manifest
    they were writing anyway; :func:`build_search_index` commits one
    itself).
    """
    writer = _ShardWriter(directory, _SEARCH_BASE, compression)
    try:
        for record in _sidecar_records(
            postings, base_names_crc(base_names), ops
        ):
            writer.write(record)
    finally:
        writer.close()
    return writer.finish(), writer.entry


class StoreSearchIndex(TextPostings):
    """A store's search postings, patched to one handle's generation.

    The shared :class:`~repro.core.search.TextPostings` (``tokens`` and
    ``grams``, term -> identifier set) the query planner and ranked
    search resolve candidates from, plus ``ops_applied``, the journal
    watermark the maps reflect.  It carries text postings only: type
    and attribute query leaves answer ``None`` (cannot narrow) against
    it, so a query conjunction narrows through its text side alone and
    the predicate decides the rest (see
    :func:`repro.core.query._select_stored`); a query with no text side
    falls back to the streaming scan.

    ``nodes_indexed`` counts nodes (re)indexed by *this object* since it
    was created — zero for a sidecar loaded clean, and exactly the
    journal delta's node touches after patching — which is what the
    O(delta) regression test asserts on.
    """

    __slots__ = ("_stored", "base_crc32", "ops_applied", "nodes_indexed")

    def __init__(
        self,
        stored: StoredArgument,
        tokens: dict[str, set[str]],
        grams: dict[str, set[str]],
        base_crc32: int,
        ops_applied: int,
    ) -> None:
        self._stored = stored
        self.tokens = tokens
        self.grams = grams
        self.base_crc32 = base_crc32
        self.ops_applied = ops_applied
        self.nodes_indexed = 0

    @classmethod
    def build(cls, stored: StoredArgument) -> "StoreSearchIndex":
        """Index a store's current (journal-replayed) nodes from scratch.

        One verified streaming pass; the result reflects every journal
        op the handle currently serves.  This is the reference the
        invariant oracle compares journal-patched indexes against.
        """
        index = cls(
            stored,
            {},
            {},
            base_names_crc(stored.base_key()),
            len(stored.journal_ops()),
        )
        for node in stored.iter_nodes():
            index.add(node.identifier, node.text)
        return index

    def add(self, identifier: str, text: str) -> None:
        super().add(identifier, text)
        self.nodes_indexed += 1

    def apply_ops(self, ops: "Iterable[tuple[str, Any]]") -> None:
        """Patch the postings with decoded journal ops, oldest first.

        Journal records carry full node payloads (``remove_node`` the
        removed node, ``replace_node`` both versions), so patching
        needs no store reads at all — O(delta text), like the live
        index's :meth:`~repro.core.query.ArgumentIndex.apply`.  The
        caller advances :attr:`ops_applied`.
        """
        for op, payload in ops:
            if op == "add_node":
                self.add(payload.identifier, payload.text)
            elif op == "remove_node":
                self.remove(payload.identifier, payload.text)
            elif op == "replace_node":
                old, new = payload
                self.remove(old.identifier, old.text)
                self.add(new.identifier, new.text)
            # Link ops never touch text postings.

    @property
    def doc_count(self) -> int:
        """Node count of the generation the postings reflect."""
        return int(self._stored.node_count)

    def _lowered_text(self, identifier: str) -> str:
        try:
            return self._stored.node(identifier).text.lower()
        except StoreError:
            # Postings out of step with the store (should not happen;
            # derived data degrades, never crashes a read): no match.
            return ""

    def contains_candidates(self, lowered: str) -> "set[str] | None":
        """Exactly the nodes whose folded text contains ``lowered``.

        Trigram candidates verified against the actual node text (one
        lazy shard hydration per candidate's shard, not a store scan).
        ``None`` (needle shorter than a trigram) demands the full scan.
        """
        return self.verified_candidates(lowered, self._lowered_text)


def _parse_sidecar(
    stored: StoredArgument, name: str
) -> "tuple[dict[str, set[str]], dict[str, set[str]], int, int] | None":
    """Read + verify the sidecar file; ``None`` on any mismatch.

    Damage (torn write, checksum mismatch, malformed records) and
    staleness (wrong schema/tokenizer version, a base generation other
    than the handle's, a watermark past the current journal) all
    degrade identically: no index, scan instead.  ``casefsck`` is the
    loud path for operators; readers just stay correct.
    """
    try:
        records = list(stored._stream_shard(name, ("seq", "kind")))
    except (StoreCorruptionError, StoreError):
        return None
    if not records or records[0].get("kind") != "header":
        return None
    header = records[0]
    if header.get("search_schema") != SEARCH_SCHEMA_VERSION:
        return None
    if header.get("tokenizer") != TOKENIZER_VERSION:
        return None
    if header.get("base_crc32") != base_names_crc(stored.base_key()):
        return None
    ops = header.get("ops")
    if not isinstance(ops, int) or isinstance(ops, bool) or ops < 0:
        return None
    tokens: dict[str, set[str]] = {}
    grams: dict[str, set[str]] = {}
    for record in records[1:]:
        kind = record.get("kind")
        term = record.get("term")
        ids = record.get("ids")
        if (
            kind not in ("token", "gram")
            or not isinstance(term, str)
            or not isinstance(ids, list)
            or not all(isinstance(identifier, str) for identifier in ids)
        ):
            return None
        postings = tokens if kind == "token" else grams
        postings[term] = set(ids)
    return tokens, grams, header["base_crc32"], ops


def load_search_index(
    stored: StoredArgument,
) -> "StoreSearchIndex | None":
    """The store's search index at this handle's generation, or ``None``.

    Returns ``None`` — meaning *scan instead* — when the store has no
    sidecar, or the sidecar is damaged or stale (see
    :func:`_parse_sidecar`).  Otherwise the postings are patched forward
    from the journal-op suffix past the sidecar's watermark and cached
    on the handle: a handle that refreshes after each
    ``save(journal=True)`` pays O(that delta) per edit, never a reload
    or rebuild.  The cache survives journal refreshes exactly like the
    base shard caches and drops on ``"rewritten"``.
    """
    name = stored.manifest.get(SEARCH_INDEX_KEY)
    if not isinstance(name, str) or name not in stored.manifest["shards"]:
        return None
    ops = stored.journal_ops()
    cached = stored._search_index
    if isinstance(cached, StoreSearchIndex):
        if (
            cached.base_crc32 == base_names_crc(stored.base_key())
            and cached.ops_applied <= len(ops)
        ):
            if cached.ops_applied < len(ops):
                cached.apply_ops(ops[cached.ops_applied:])
                cached.ops_applied = len(ops)
            return cached
        stored._search_index = None
    parsed = _parse_sidecar(stored, name)
    if parsed is None:
        return None
    tokens, grams, base_crc32, applied = parsed
    if applied > len(ops):
        return None  # indexes journal state this generation never saw
    index = StoreSearchIndex(stored, tokens, grams, base_crc32, applied)
    if applied < len(ops):
        index.apply_ops(ops[applied:])
        index.ops_applied = len(ops)
        index.nodes_indexed = 0  # patching to *open* a handle is setup,
        # not per-edit cost; the O(delta) counter starts at the handle's
        # own generation.
    stored._search_index = index
    return index


def build_search_index(stored: StoredArgument) -> dict[str, Any]:
    """Build (or rebuild) a store's sidecar; returns the new manifest.

    A lease-guarded compare-and-commit like every store write: one
    verified streaming pass over the journal-replayed nodes, the sealed
    sidecar enters the manifest's shard map under
    :data:`SEARCH_INDEX_KEY`, and the atomic manifest swap publishes it
    (``sweep=False`` — a superseded sidecar stays for pinned readers
    until ``gc()``).  The recorded watermark is the handle's current
    journal length, so readers at this generation patch nothing.

    This is the path for indexing an *existing* store; new stores index
    at save time via ``save(..., search_index=True)``, which folds the
    sidecar into the same commit (keeping the saved argument's
    ``save(journal=True)`` fingerprint baseline valid).
    """
    with writer_lease(stored.path):
        _check_not_torn(stored)
        _check_handle_current(stored)
        postings = TextPostings()
        for node in stored.iter_nodes():
            postings.add(node.identifier, node.text)
        name, entry = write_sidecar(
            stored.path,
            postings,
            stored.base_key(),
            len(stored.journal_ops()),
            stored.compression,
        )
        if stored.manifest.get(SEARCH_INDEX_KEY) == name:
            return stored.manifest  # identical content re-sealed: no-op
        manifest = dict(stored.manifest)
        old = manifest.get(SEARCH_INDEX_KEY)
        shards = {
            shard: meta
            for shard, meta in manifest["shards"].items()
            if shard != old
        }
        manifest[SEARCH_INDEX_KEY] = name
        manifest["shards"] = {**shards, name: entry}
        _commit(stored.path, manifest, sweep=False)
    return manifest


class CaseCorpus:
    """Ranked search over a directory of stores (one store per subdir).

    The serving-side driver: handles — and their journal-patched search
    indexes — stay warm between queries, so a corpus query is postings
    lookups plus per-hit shard hydration, not a corpus scan.
    :func:`repro.core.search.search` accepts a corpus directly (via
    :meth:`search_sources`) and ranks across stores; idf is per store.
    """

    def __init__(
        self, root: "Path | str", *, ignore_torn_tail: bool = False
    ) -> None:
        self.root = Path(root)
        self.ignore_torn_tail = ignore_torn_tail
        self._handles: dict[str, StoredArgument] = {}
        self._names: "list[str] | None" = None

    def store_names(self) -> "list[str]":
        """Subdirectories holding a store manifest, sorted by name.

        The listing is discovered once and cached — on a
        thousands-of-stores library re-statting every manifest would
        dominate each query.  :meth:`refresh` rediscovers.
        """
        if self._names is None:
            if not self.root.exists():
                return []
            self._names = sorted(
                entry.name
                for entry in self.root.iterdir()
                if (entry / MANIFEST_NAME).is_file()
            )
        return self._names

    def open(self, name: str) -> StoredArgument:
        """The (cached) handle for one member store."""
        handle = self._handles.get(name)
        if handle is None:
            handle = StoredArgument(
                self.root / name, ignore_torn_tail=self.ignore_torn_tail
            )
            self._handles[name] = handle
        return handle

    def __len__(self) -> int:
        return len(self.store_names())

    def __iter__(self) -> Iterator[str]:
        return iter(self.store_names())

    def search_sources(
        self,
    ) -> "Iterator[tuple[str, StoredArgument]]":
        """(name, handle) pairs — the corpus hook ranked search uses."""
        for name in self.store_names():
            yield name, self.open(name)

    def ensure_indexed(self) -> "list[str]":
        """Build sidecars for members lacking a current one; returns
        the names of the stores (re)indexed."""
        built: "list[str]" = []
        for name in self.store_names():
            stored = self.open(name)
            if load_search_index(stored) is None:
                build_search_index(stored)
                stored.refresh()
                built.append(name)
        return built

    def refresh(self) -> None:
        """Resync every cached handle and rediscover member stores."""
        self._names = None
        for handle in self._handles.values():
            handle.refresh()

    def search(self, query_text: str, **kwargs: Any) -> "list[Any]":
        """Ranked query-biased search across the corpus — see
        :func:`repro.core.search.search`."""
        from ..core.search import search

        return search(self, query_text, **kwargs)
