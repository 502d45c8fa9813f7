"""Ranked full-text search with query-biased case summaries.

The paper's §VI question — does rich querying over assurance arguments
pay its way against plain text search? — needs a *real* text-search
side to compare against.  This module provides it, modeled on Thomas et
al., "Towards Searching Amongst Tables": a search hit is not a bare
node id but a **query-biased summary** — a rendered slice of the case
(the matching claim plus its supporting neighbourhood via the adjacency
indices) with the snippet window chosen around the query terms.

Three layers:

* the **tokenizer and postings** (:func:`tokenize` / :func:`trigrams`,
  :class:`TextPostings`) — the one canonical text analysis and the one
  token + trigram postings implementation, shared by the live
  :class:`~repro.core.query.ArgumentIndex`, the persisted store sidecar
  (:mod:`repro.store.search`), and every oracle test.
  :data:`TOKENIZER_VERSION` is recorded in persisted indexes so a
  future analyzer change invalidates them loudly instead of silently
  returning different candidates;
* **ranking** (:func:`search`) — terms resolve through token postings
  (exact token hits), terms matching no token fall back to trigram
  substring candidates at a discount, and candidates score by a
  tf–idf-shaped weight (rare terms dominate, repeated mentions help
  logarithmically).  Works over a live :class:`~repro.core.argument.
  Argument` (planner-index postings), a
  :class:`~repro.store.StoredArgument` (persisted sidecar when present,
  one streaming scan when not), or a corpus object exposing
  ``search_sources()`` (:class:`~repro.store.search.CaseCorpus`);
* **summaries** (:func:`query_biased_summary`, :class:`SearchHit`) —
  the snippet window slides to the densest cluster of query terms,
  matched terms are marked ``[like this]``, and up to ``neighbourhood``
  supporting children (terms-first) are rendered under the claim.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Iterable, Mapping

from .argument import Argument, LinkKind
from .nodes import Node

__all__ = [
    "TOKENIZER_VERSION",
    "tokenize",
    "trigrams",
    "PostingsView",
    "TextPostings",
    "SearchHit",
    "query_biased_summary",
    "search",
]

#: Bumped on any tokenizer/trigram semantics change; persisted search
#: sidecars record it and are treated as stale under any other version.
TOKENIZER_VERSION = 1

_TOKEN = re.compile(r"[0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric word tokens, in text order."""
    return _TOKEN.findall(text.lower())


def trigrams(text: str) -> set[str]:
    """Character trigrams of the lowered text (spaces included).

    Indexing the raw lowered text — not per-token grams — preserves the
    candidate-superset guarantee for substring needles that span token
    boundaries: if ``needle`` occurs in ``text`` (case-folded), every
    trigram of the lowered needle occurs in these grams.
    """
    lowered = text.lower()
    return {lowered[i : i + 3] for i in range(len(lowered) - 2)}


class PostingsView:
    """The read side of token + trigram postings (term -> identifier set).

    Every read goes through ``tokens`` and ``grams`` as plain mappings,
    so a flat :class:`TextPostings` and a layered store generation
    (:class:`~repro.store.search.SearchIndexView`: a shared sidecar
    base under a per-generation journal delta) answer the same
    questions by the same code.  Readers never mutate the returned sets.
    """

    __slots__ = ()

    tokens: Mapping[str, AbstractSet[str]]
    grams: Mapping[str, AbstractSet[str]]

    def grams_superset(self, lowered: str) -> "set[str] | None":
        """Unverified trigram candidates for a lowered needle.

        A guaranteed superset of every node whose text contains the
        needle under *either* case discipline (folding is monotonic: a
        case-sensitive occurrence survives lowering), so this is the
        planner hook for the case-sensitive branch — the predicate does
        the verification.  ``None`` means the needle is too short to
        narrow.
        """
        if len(lowered) < 3:
            return None
        candidates: "set[str] | None" = None
        for gram in trigrams(lowered):
            ids = self.grams.get(gram)
            if not ids:
                return set()
            candidates = set(ids) if candidates is None else candidates & ids
            if not candidates:
                return set()
        return set() if candidates is None else candidates

    def verified_candidates(
        self, lowered: str, lowered_text: Callable[[str], str]
    ) -> "set[str] | None":
        """Exactly the nodes whose folded text contains ``lowered``.

        The trigram superset, each candidate checked against
        ``lowered_text(identifier)`` — candidates are *checked, never
        trusted*, so folded ``text_contains`` plans keep their
        ``exact=True`` contract.  ``None``: needle too short to narrow.
        """
        candidates = self.grams_superset(lowered)
        if candidates is None:
            return None
        return {
            identifier
            for identifier in candidates
            if lowered in lowered_text(identifier)
        }

    def canonical(self) -> "dict[str, dict[str, list[str]]]":
        """Order-insensitive postings snapshot for oracle comparison."""
        return {
            "tokens": {term: sorted(ids) for term, ids in self.tokens.items()},
            "grams": {term: sorted(ids) for term, ids in self.grams.items()},
        }


class TextPostings(PostingsView):
    """Token + trigram inverted postings, maintained in place.

    The one postings implementation: the live planner index
    (:meth:`~repro.core.query.ArgumentIndex.text_postings`), the
    persisted store sidecar (:class:`~repro.store.search.
    StoreSearchIndex`) and every sidecar producer (indexed save,
    compaction, :func:`~repro.store.search.build_search_index`) all
    maintain and query postings through this class, so a planner answer
    and a sidecar answer for the same argument state are identical.
    """

    __slots__ = ("tokens", "grams")

    tokens: dict[str, set[str]]
    grams: dict[str, set[str]]

    def __init__(self) -> None:
        self.tokens = {}
        self.grams = {}

    def add(self, identifier: str, text: str) -> None:
        for token in set(tokenize(text)):
            self.tokens.setdefault(token, set()).add(identifier)
        for gram in trigrams(text):
            self.grams.setdefault(gram, set()).add(identifier)

    def remove(self, identifier: str, text: str) -> None:
        """Exact inverse of :meth:`add` (empty postings pruned)."""
        for postings, terms in (
            (self.tokens, set(tokenize(text))),
            (self.grams, trigrams(text)),
        ):
            for term in terms:
                entries = postings.get(term)
                if entries is not None:
                    entries.discard(identifier)
                    if not entries:
                        del postings[term]


# -- query-biased summaries -------------------------------------------------


def _mark_terms(snippet: str, terms: "tuple[str, ...]") -> str:
    """Wrap every term occurrence in ``[...]``, case-insensitively."""
    if not terms:
        return snippet
    pattern = re.compile(
        "|".join(re.escape(term) for term in sorted(terms, key=len, reverse=True)),
        re.IGNORECASE,
    )
    return pattern.sub(lambda match: f"[{match.group(0)}]", snippet)


def query_biased_summary(
    text: str, terms: Iterable[str], *, width: int = 120
) -> str:
    """The slice of ``text`` densest in query terms, terms marked.

    The classic query-biased snippet: all term occurrences are located
    in the folded text, the ``width``-character window covering the
    most distinct terms (ties: the most occurrences, then the earliest)
    is chosen, and ellipses mark the cut edges.  With no occurrences —
    a hit can match only through its neighbourhood — the head of the
    text is returned unmarked.
    """
    terms = tuple(dict.fromkeys(t.lower() for t in terms if t))
    lowered = text.lower()
    occurrences: list[tuple[int, str]] = []
    for term in terms:
        start = lowered.find(term)
        while start != -1:
            occurrences.append((start, term))
            start = lowered.find(term, start + 1)
    if len(text) <= width:
        return _mark_terms(text, terms)
    if not occurrences:
        return text[: width - 1].rstrip() + "…"
    occurrences.sort()
    best_start, best_score = 0, (-1, -1)
    for index, (position, _) in enumerate(occurrences):
        window_end = position + width
        distinct: set[str] = set()
        count = 0
        for later, term in occurrences[index:]:
            if later >= window_end:
                break
            distinct.add(term)
            count += 1
        score = (len(distinct), count)
        if score > best_score:
            best_score = score
            best_start = position
    # Back the window up a little so the first match has left context.
    start = max(0, best_start - max(8, width // 8))
    end = min(len(text), start + width)
    snippet = _mark_terms(text[start:end].strip(), terms)
    prefix = "…" if start > 0 else ""
    suffix = "…" if end < len(text) else ""
    return f"{prefix}{snippet}{suffix}"


@dataclass(frozen=True)
class SearchHit:
    """One ranked search result: a query-biased slice of the case.

    ``snippet`` is the matching claim's biased summary; ``neighbourhood``
    renders its supporting children (``SUPPORTED_BY`` targets via the
    adjacency indices), terms-first.  ``store`` names the corpus store
    the hit came from (``None`` for single-subject searches).
    """

    identifier: str
    score: float
    node_type: str
    snippet: str
    matched_terms: "tuple[str, ...]"
    neighbourhood: "tuple[str, ...]" = ()
    store: "str | None" = None

    @property
    def summary(self) -> str:
        """The rendered slice: claim line plus supporting neighbourhood."""
        where = f"{self.store}:" if self.store else ""
        lines = [
            f"{where}{self.identifier} ({self.node_type}) {self.snippet}"
        ]
        lines.extend(f"  └─ {line}" for line in self.neighbourhood)
        return "\n".join(lines)


# -- subject adapters -------------------------------------------------------


@dataclass
class _Lookup:
    """The narrow search surface over one subject (live or stored)."""

    doc_count: int
    token_ids: Callable[[str], AbstractSet[str]]
    substring_ids: Callable[[str], "set[str]"]
    node: Callable[[str], Node]
    supporters: Callable[[str], "list[Node]"]


class _ScanIndex:
    """Ephemeral postings for a stored argument with no sidecar.

    One verified streaming pass builds token postings and a text cache;
    search stays correct (and still one-pass) on unindexed stores — it
    just pays the scan the sidecar exists to avoid.
    """

    def __init__(self, nodes: Iterable[Node]) -> None:
        self.tokens: dict[str, set[str]] = {}
        self.lowered: dict[str, str] = {}
        for node in nodes:
            identifier = node.identifier
            self.lowered[identifier] = node.text.lower()
            for token in set(tokenize(node.text)):
                self.tokens.setdefault(token, set()).add(identifier)

    def substring_ids(self, term: str) -> "set[str]":
        return {
            identifier
            for identifier, text in self.lowered.items()
            if term in text
        }


def _live_lookup(argument: Argument) -> _Lookup:
    from .query import argument_index  # deferred: query imports us

    index = argument_index(argument)
    postings = index.text_postings()
    return _Lookup(
        doc_count=len(index.order),
        token_ids=lambda term: postings.tokens.get(term, frozenset()),
        substring_ids=index.contains_candidates,
        node=argument.node,
        supporters=argument.supporters,
    )


def _stored_supporters(stored: Any) -> Callable[[str], "list[Node]"]:
    def supporters(identifier: str) -> "list[Node]":
        out = sorted(stored._outgoing(identifier))
        return [
            stored.node(link.target)
            for _, link in out
            if link.kind is LinkKind.SUPPORTED_BY
        ]

    return supporters


def _stored_lookup(stored: Any) -> _Lookup:
    from ..store.search import load_search_index  # deferred: store imports core

    index = load_search_index(stored)
    if index is not None:
        return _Lookup(
            doc_count=index.doc_count,
            token_ids=lambda term: index.tokens.get(term, frozenset()),
            substring_ids=lambda term: index.contains_candidates(term)
            or set(),
            node=stored.node,
            supporters=_stored_supporters(stored),
        )
    scan = _ScanIndex(stored.iter_nodes())
    return _Lookup(
        doc_count=len(scan.lowered),
        token_ids=lambda term: scan.tokens.get(term, frozenset()),
        substring_ids=scan.substring_ids,
        node=stored.node,
        supporters=_stored_supporters(stored),
    )


def _lookup(subject: Any) -> _Lookup:
    from .analysis import is_stored_argument

    if isinstance(subject, Argument):
        return _live_lookup(subject)
    if is_stored_argument(subject):
        return _stored_lookup(subject)
    raise TypeError(
        "search() wants an Argument, a StoredArgument, or a corpus with "
        f"search_sources(), got {type(subject).__name__}"
    )


# -- ranking ----------------------------------------------------------------

#: Weight discount for substring (trigram-candidate) matches of a term
#: that matched no whole token — present, but weaker evidence than an
#: exact token hit.
_SUBSTRING_DISCOUNT = 0.5


def _hit_order(
    score: float, store: "str | None", identifier: str
) -> "tuple[float, str, str]":
    """The ranking key: best score first, then store and identifier."""
    return (-round(score, 6), store or "", identifier)


def _rank_subject(
    store: "str | None",
    subject: Any,
    terms: "tuple[str, ...]",
    neighbourhood: int,
    limit: int,
) -> "list[SearchHit]":
    """One subject's best ``limit`` hits, best first.

    Every matched node is scored, but only the top ``limit`` by
    :func:`_hit_order` are rendered into summaries and neighbourhoods.
    That is enough for a corpus too: the merged ranking uses the same
    key, so no hit beyond a subject's own top ``limit`` can make the
    merged top ``limit``.
    """
    lookup = _lookup(subject)
    if not lookup.doc_count:
        return []
    scores: dict[str, float] = {}
    matched: dict[str, set[str]] = {}
    term_weight: dict[str, float] = {}
    substring_terms: set[str] = set()
    for term in terms:
        ids = lookup.token_ids(term)
        weight = 1.0
        if not ids and len(term) >= 3:
            # No whole-token hit: fall back to trigram substring
            # candidates (already verified by the lookup) at a discount.
            ids = lookup.substring_ids(term)
            weight = _SUBSTRING_DISCOUNT
            substring_terms.add(term)
        if not ids:
            continue
        idf = math.log1p(lookup.doc_count / (1 + len(ids)))
        term_weight[term] = weight * idf
        for identifier in ids:
            matched.setdefault(identifier, set()).add(term)
    for identifier, hit_terms in matched.items():
        node = lookup.node(identifier)
        tokens = tokenize(node.text)
        lowered = node.text.lower()
        score = 0.0
        for term in hit_terms:
            occurrences = (
                lowered.count(term)
                if term in substring_terms
                else tokens.count(term)
            )
            score += term_weight[term] * (1.0 + math.log1p(occurrences))
        scores[identifier] = score
    best = heapq.nsmallest(
        limit,
        scores.items(),
        key=lambda item: _hit_order(item[1], store, item[0]),
    )
    hits: "list[SearchHit]" = []
    for identifier, score in best:
        node = lookup.node(identifier)
        hit_terms = tuple(sorted(matched[identifier]))
        rendered: "list[str]" = []
        if neighbourhood > 0:
            children = lookup.supporters(identifier)
            # Terms-first: supporting children that mention a query term
            # make the summary answer the query, not just decorate it.
            children.sort(
                key=lambda child: not any(
                    term in child.text.lower() for term in terms
                )
            )
            for child in children[:neighbourhood]:
                child_snippet = query_biased_summary(
                    child.text, terms, width=72
                )
                rendered.append(f"{child.identifier}: {child_snippet}")
        hits.append(
            SearchHit(
                identifier=identifier,
                score=round(score, 6),
                node_type=node.node_type.value,
                snippet=query_biased_summary(node.text, hit_terms),
                matched_terms=hit_terms,
                neighbourhood=tuple(rendered),
                store=store,
            )
        )
    return hits


def search(
    subject: Any,
    query_text: str,
    *,
    limit: int = 10,
    neighbourhood: int = 2,
) -> "list[SearchHit]":
    """Ranked, query-biased search over an argument, store, or corpus.

    ``subject`` is a live :class:`~repro.core.argument.Argument`, a
    :class:`~repro.store.StoredArgument` (the persisted sidecar resolves
    candidates when present; a streaming scan otherwise), or any corpus
    object exposing ``search_sources() -> Iterable[(name, subject)]``
    (:class:`~repro.store.search.CaseCorpus`).  Hits are ranked by a
    tf–idf-shaped score (idf per store for corpora) and rendered as
    query-biased summaries — the claim's densest-matching snippet plus
    up to ``neighbourhood`` supporting children.  Every match is
    scored, but only the ``limit`` hits returned are rendered.
    """
    terms = tuple(dict.fromkeys(tokenize(query_text)))
    if not terms or limit < 1:
        return []
    sources = getattr(subject, "search_sources", None)
    if sources is not None:
        pairs: "list[tuple[str | None, Any]]" = list(sources())
    else:
        pairs = [(None, subject)]
    hits: "list[SearchHit]" = []
    for store, source in pairs:
        hits.extend(
            _rank_subject(store, source, terms, neighbourhood, limit)
        )
    hits.sort(
        key=lambda hit: _hit_order(hit.score, hit.store, hit.identifier)
    )
    return hits[:limit]
