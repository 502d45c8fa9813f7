"""The persisted search index sidecar of the sharded argument store.

Searching a corpus of stored cases with ``text_contains`` costs O(total
text) per query: every store streams (and CRC-verifies) its node shards
just to run a substring test.  This module persists the token + trigram
postings of :class:`repro.core.search.TextPostings` — the one postings
implementation, shared with the live query planner — as a **sidecar**
next to the shards, under exactly the store's existing discipline.
Each token record also carries ``counts``, ``{identifier: n}`` for the
nodes holding that token n >= 2 times, but only when some node
repeats it (a missing entry means once): ranked search scores every
candidate from these records and reads node text only for the hits it
renders.  Schema 2 added ``counts``; a schema-1 sidecar is stale and
readers scan until the next compaction or rebuild writes schema 2.

* **checksummed + content-addressed** — the sidecar seals through the
  same :class:`~repro.store.writer._ShardWriter` as shards
  (``search-<crc32>.jsonl[.gz]``), is listed in the manifest's shard
  map (count + CRC-32), and commits via the atomic manifest swap;
* **journal-patched, O(delta) per edit** — ``save(journal=True)`` /
  ``append_delta`` never rewrite the sidecar.  Its header records the
  number of journal ops it reflects; the journal *is* the persisted
  delta log.  :func:`load_search_index` parses the sidecar once per
  base generation (:class:`StoreSearchIndex`, shared read-only by
  every handle that adopts the base caches) and layers each handle's
  own delta on top: the identifiers added and removed per term by
  the suffix of :meth:`~repro.store.reader.StoredArgument.journal_ops`
  past that watermark.  A refreshing handle patches only the ops
  :meth:`~repro.store.reader.StoredArgument.ops_since` reports past
  the ones it consumed (the journal-continuation rule the incremental
  checker follows too), and a pinned snapshot never sees a newer one's;
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

import weakref
from pathlib import Path
from typing import AbstractSet, Any, Iterable, Iterator, Mapping
from zlib import crc32

from ..core.search import (
    TOKENIZER_VERSION,
    PostingsView,
    TextPostings,
    _token_counts,
    trigrams,
)
from .format import (
    MANIFEST_NAME,
    StoreCorruptionError,
    StoreError,
)
from .journal import _check_handle_current, _check_not_torn
from .lease import writer_lease
from .reader import JournalMark, StoredArgument
from .writer import _commit, _ShardWriter

__all__ = [
    "SEARCH_INDEX_KEY",
    "SEARCH_SCHEMA_VERSION",
    "StoreSearchIndex",
    "SearchIndexView",
    "CaseCorpus",
    "build_search_index",
    "load_search_index",
]

#: Manifest key referencing the sidecar file (absent: store unindexed).
SEARCH_INDEX_KEY = "search_index"

#: Bumped on any sidecar record-format change; other versions are stale.
#: 2 added the token records' ``counts``.
SEARCH_SCHEMA_VERSION = 2

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
    identical bytes, which is what keeps compaction byte-stable.

    A token record carries ``counts`` (``{identifier: n}``, sorted by
    identifier, every n >= 2) only when some node repeats the token, so
    postings without repeats seal exactly as schema 1 sealed them, bar
    the header."""
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
            record: dict[str, Any] = {
                "seq": seq,
                "kind": kind,
                "term": term,
                "ids": sorted(terms[term]),
            }
            if kind == "token":
                counts = postings.counts.get(term)
                if counts:
                    record["counts"] = dict(sorted(counts.items()))
            yield record
            seq += 1


def valid_posting(record: Any) -> bool:
    """Whether a sidecar record after the header is a well-formed
    posting: a token or gram ``term`` with a list of string ``ids``,
    and — on token records only — optional ``counts`` whose keys are
    among ``ids`` and whose values are ints of at least 2."""
    if not isinstance(record, dict):
        return False
    kind = record.get("kind")
    ids = record.get("ids")
    if (
        kind not in ("token", "gram")
        or not isinstance(record.get("term"), str)
        or not isinstance(ids, list)
        or not all(isinstance(identifier, str) for identifier in ids)
    ):
        return False
    if "counts" not in record:
        return True
    counts = record["counts"]
    if kind != "token" or not isinstance(counts, dict) or not counts:
        return False
    members = set(ids)
    return all(
        identifier in members
        and isinstance(n, int)
        and not isinstance(n, bool)
        and n >= 2
        for identifier, n in counts.items()
    )


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
    """The postings of one sealed sidecar, parsed once per base generation.

    The shared :class:`~repro.core.search.TextPostings` (``tokens`` and
    ``grams``, term -> identifier set, and ``counts``, term ->
    ``{identifier: n}`` for repeated tokens) as the sidecar file
    ``sidecar`` holds them, plus ``base_crc32`` (the base shard
    generation they index) and ``ops_applied`` (the journal watermark
    they reflect).
    Constructing one means parsing one sidecar (or, through
    :meth:`build`, indexing a store from scratch).

    Once parsed, the postings are never written again: every handle
    serving the same base generation shares them (through
    :meth:`~repro.store.reader.StoredArgument.adopt_base_caches`), and
    each handle layers its own journal delta on top (see
    :meth:`apply_ops` and :class:`SearchIndexView`).
    """

    __slots__ = ("base_crc32", "ops_applied", "sidecar")

    def __init__(
        self,
        tokens: dict[str, set[str]],
        grams: dict[str, set[str]],
        counts: dict[str, dict[str, int]],
        base_crc32: int,
        ops_applied: int,
        sidecar: "str | None" = None,
    ) -> None:
        self.tokens = tokens
        self.grams = grams
        self.counts = counts
        self.base_crc32 = base_crc32
        self.ops_applied = ops_applied
        self.sidecar = sidecar

    @classmethod
    def build(cls, stored: StoredArgument) -> "StoreSearchIndex":
        """Index a store's current (journal-replayed) nodes from scratch.

        One verified streaming pass; the result reflects every journal
        op the handle currently serves.  This is the reference the
        invariant oracle compares journal-patched indexes against.
        """
        postings = TextPostings()
        for node in stored.iter_nodes():
            postings.add(node.identifier, node.text)
        return cls(
            postings.tokens,
            postings.grams,
            postings.counts,
            base_names_crc(stored.base_key()),
            len(stored.journal_ops()),
        )

    def apply_ops(
        self, ops: "Iterable[tuple[str, Any]]", generation: "_Generation"
    ) -> None:
        """Record decoded journal ops, oldest first, in ``generation``.

        ``generation`` is one handle's delta over these postings; the
        postings themselves never change.  Journal records carry full
        node payloads (``remove_node`` the removed node,
        ``replace_node`` both versions), so patching needs no store
        reads at all — O(delta text), like the live index's
        :meth:`~repro.core.query.ArgumentIndex.apply`.  A replacement
        that keeps the text (a metadata edit) touches no postings.  The
        caller moves the generation's ``mark``.
        """
        for op, payload in ops:
            if op == "add_node":
                generation.add(payload.identifier, payload.text)
            elif op == "remove_node":
                generation.remove(payload.identifier, payload.text)
            elif op == "replace_node":
                old, new = payload
                if old.text != new.text:
                    generation.remove(old.identifier, old.text)
                    generation.add(new.identifier, new.text)
            # Link ops never touch text postings.


class _LayeredTerms(Mapping[str, AbstractSet[str]]):
    """One kind of postings (tokens or grams) at one generation.

    ``base`` is the shared parsed sidecar map and is never written.
    ``added`` and ``removed`` hold, per term, the identifiers that the
    journal ops past the sidecar's watermark added to and removed from
    it.  ``added`` never overlaps the base posting and ``removed`` stays
    inside it, so a lookup answers ``(base - removed) | added``; terms
    left with no identifiers vanish, as in a flat
    :class:`~repro.core.search.TextPostings`.
    """

    __slots__ = ("base", "added", "removed")

    def __init__(self, base: dict[str, set[str]]) -> None:
        self.base = base
        self.added: dict[str, set[str]] = {}
        self.removed: dict[str, set[str]] = {}

    def add(self, identifier: str, term: str) -> None:
        if identifier in self.base.get(term, ()):
            _discard(self.removed, term, identifier)
        else:
            self.added.setdefault(term, set()).add(identifier)

    def remove(self, identifier: str, term: str) -> None:
        if identifier in self.added.get(term, ()):
            _discard(self.added, term, identifier)
        elif identifier in self.base.get(term, ()):
            self.removed.setdefault(term, set()).add(identifier)

    def __getitem__(self, term: str) -> AbstractSet[str]:
        added = self.added.get(term)
        removed = self.removed.get(term)
        base = self.base.get(term)
        if added is None and removed is None:
            if base is None:
                raise KeyError(term)
            return base
        merged = set(base or ())
        if removed is not None:
            merged -= removed
        if added is not None:
            merged |= added
        if not merged:
            raise KeyError(term)
        return merged

    def __iter__(self) -> Iterator[str]:
        for term in self.base.keys() | self.added.keys():
            if self.get(term):
                yield term

    def __len__(self) -> int:
        return sum(1 for _ in self)


def _discard(postings: dict[str, set[str]], term: str, identifier: str) -> None:
    entries = postings.get(term)
    if entries is not None:
        entries.discard(identifier)
        if not entries:
            del postings[term]


class _Generation:
    """A handle's search postings: the shared parsed sidecar (``base``)
    under this generation's journal delta, patched up to the journal
    ``mark``.

    Repeat counts layer by node, not by term: ``touched`` holds every
    identifier the delta added or removed, and ``counts`` the repeat
    counts of the texts the delta added.  A base id the delta removed
    and re-added may repeat different tokens, so a touched id's counts
    come from ``counts`` alone and an untouched one's from the base.

    Cached on the handle.  It holds no handle, so caching it makes no
    reference cycle, and a superseded snapshot is freed as soon as its
    last reference goes.  ``nodes_indexed`` counts the nodes (re)indexed
    since the handle opened its index: zero for a clean load, exactly
    the journal delta's node touches after patching.
    """

    __slots__ = (
        "base", "tokens", "grams", "touched", "counts", "mark",
        "nodes_indexed",
    )

    def __init__(self, base: StoreSearchIndex, mark: JournalMark) -> None:
        self.base = base
        self.tokens = _LayeredTerms(base.tokens)
        self.grams = _LayeredTerms(base.grams)
        self.touched: set[str] = set()
        self.counts: dict[str, dict[str, int]] = {}
        self.mark = mark
        self.nodes_indexed = 0

    def add(self, identifier: str, text: str) -> None:
        distinct, repeated = _token_counts(text)
        for token in distinct:
            self.tokens.add(identifier, token)
        for token, n in repeated.items():
            self.counts.setdefault(token, {})[identifier] = n
        for gram in trigrams(text):
            self.grams.add(identifier, gram)
        self.touched.add(identifier)
        self.nodes_indexed += 1

    def remove(self, identifier: str, text: str) -> None:
        distinct, repeated = _token_counts(text)
        for token in distinct:
            self.tokens.remove(identifier, token)
        for token in repeated:
            counted = self.counts.get(token)
            if counted is not None:
                counted.pop(identifier, None)
                if not counted:
                    del self.counts[token]
        for gram in trigrams(text):
            self.grams.remove(identifier, gram)
        self.touched.add(identifier)

    def term_counts(self, term: str) -> Mapping[str, int]:
        """The repeat counts of ``term`` at this generation (see
        :meth:`~repro.core.search.PostingsView.term_counts`)."""
        base = self.base.term_counts(term)
        if not self.touched:
            return base
        added = self.counts.get(term)
        if not added and self.touched.isdisjoint(base):
            return base
        merged = {
            identifier: n
            for identifier, n in base.items()
            if identifier not in self.touched
        }
        if added:
            merged.update(added)
        return merged


class SearchIndexView(PostingsView):
    """A store's search index at one handle's generation.

    What :func:`load_search_index` returns: a thin view binding the
    handle's cached postings (shared base plus journal delta) to the
    handle itself, which verifies candidates against node text and
    counts documents.  The query planner and ranked search resolve
    candidates through it.  It carries text postings only: type and
    attribute query leaves answer ``None`` (cannot narrow) against it,
    so a query conjunction narrows through its text side alone and the
    predicate decides the rest (see
    :func:`repro.core.query._select_stored`); a query with no text side
    falls back to the streaming scan.

    The handle keeps only a weak reference to its view, so the view,
    which holds the handle, never keeps it alive.
    """

    __slots__ = ("tokens", "grams", "_stored", "_generation", "__weakref__")

    def __init__(self, stored: StoredArgument, generation: _Generation) -> None:
        self._stored = stored
        self._generation = generation
        self.tokens = generation.tokens
        self.grams = generation.grams

    def term_counts(self, term: str) -> Mapping[str, int]:
        return self._generation.term_counts(term)

    @property
    def base_crc32(self) -> int:
        return self._generation.base.base_crc32

    @property
    def nodes_indexed(self) -> int:
        """Nodes (re)indexed since the handle opened its index."""
        return self._generation.nodes_indexed

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
) -> "StoreSearchIndex | None":
    """Read + verify the sidecar file; ``None`` on any mismatch.

    Damage (torn write, checksum mismatch, malformed records) and
    staleness (wrong schema/tokenizer version, a base generation other
    than the handle's) degrade identically: no index, scan instead.
    ``casefsck`` is the loud path for operators; readers just stay
    correct.
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
    counts: dict[str, dict[str, int]] = {}
    for record in records[1:]:
        if not valid_posting(record):
            return None
        term = record["term"]
        if record["kind"] == "token":
            tokens[term] = set(record["ids"])
            if "counts" in record:
                counts[term] = record["counts"]
        else:
            grams[term] = set(record["ids"])
    return StoreSearchIndex(
        tokens, grams, counts, header["base_crc32"], ops, name
    )


def _generation(stored: StoredArgument) -> "_Generation | None":
    """The handle's postings patched to its generation (see
    :func:`load_search_index`), or ``None``: scan instead."""
    name = stored.manifest.get(SEARCH_INDEX_KEY)
    if not isinstance(name, str) or name not in stored.manifest["shards"]:
        return None
    generation: "_Generation | None" = stored._search_generation
    if generation is not None and generation.base.sidecar == name:
        ops = stored.ops_since(generation.mark)
        if ops is not None:
            if ops:
                generation.base.apply_ops(ops, generation)
            generation.mark = stored.journal_mark()
            return generation
    stored._search_generation = None
    base_crc32 = base_names_crc(stored.base_key())
    base: "StoreSearchIndex | None" = stored._search_base
    if base is None or base.sidecar != name or base.base_crc32 != base_crc32:
        # A sidecar that failed to load is not re-read for the same
        # (sidecar, base) pair until the handle refreshes.
        if stored._search_failed == (name, base_crc32):
            return None
        base = stored._search_base = _parse_sidecar(stored, name)
        if base is None:
            stored._search_failed = (name, base_crc32)
            return None
    mark = stored.journal_mark()
    if base.ops_applied > mark.length:
        return None  # indexes journal state this generation never saw
    generation = _Generation(base, mark)
    if base.ops_applied < mark.length:
        base.apply_ops(mark.ops[base.ops_applied:], generation)
        generation.nodes_indexed = 0  # patching to *open* a handle is
        # setup, not per-edit cost; the O(delta) counter starts at the
        # handle's own generation.
    stored._search_generation = generation
    return generation


def load_search_index(
    stored: StoredArgument,
) -> "SearchIndexView | None":
    """The store's search index at this handle's generation, or ``None``.

    Returns ``None`` — meaning *scan instead* — when the store has no
    sidecar, or the sidecar is damaged or stale (see
    :func:`_parse_sidecar`).  The handle remembers a failed load for
    the sidecar and base it was made against, so later calls scan
    without re-reading the file until the handle refreshes.  Otherwise
    it returns a :class:`SearchIndexView` over two cached parts that
    hold no handle:

    * the parsed sidecar (:class:`StoreSearchIndex`), parsed once per
      base generation and shared, never mutated, by every handle that
      adopts this one's base caches (the service's snapshot chain);
    * the handle's own delta: the identifiers added and removed per
      term by the journal ops past the sidecar's watermark.  A handle
      that refreshes after each ``save(journal=True)`` patches only
      that edit's ops.  The journal bounds the delta, and compaction
      folds it into a new sidecar.

    Both survive journal refreshes exactly like the base shard caches
    and drop on ``"rewritten"``.  While a view is alive, further calls
    return the same view.
    """
    generation = _generation(stored)
    if generation is None:
        return None
    view: "SearchIndexView | None" = (
        stored._search_view() if stored._search_view is not None else None
    )
    if view is None or view._generation is not generation:
        view = SearchIndexView(stored, generation)
        stored._search_view = weakref.ref(view)
    return view


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
