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
  logarithmically).  Scores come from the postings alone: a token's
  in-node occurrence count is ``counts`` (kept only for counts of two
  or more), so ranking reads node text only for the hits it renders
  and for the already-verified candidates of a substring term.  Works
  over a live :class:`~repro.core.argument.Argument` (planner-index
  postings), a :class:`~repro.store.StoredArgument` (persisted sidecar
  when present, one streaming scan when not), or a corpus object
  exposing ``search_sources()`` (:class:`~repro.store.search.
  CaseCorpus`);
* **summaries** (:func:`query_biased_summary`, :class:`SearchHit`) —
  the snippet window slides to the densest cluster of query terms,
  matched terms are marked ``[like this]``, and up to ``neighbourhood``
  supporting children (terms-first) are rendered under the claim.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Iterable, Mapping, NamedTuple

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


def _token_counts(text: str) -> "tuple[set[str], dict[str, int]]":
    """A text's distinct tokens, and the count of each repeated one.

    The second map holds only tokens occurring two or more times, the
    shape postings keep ``counts`` in; text with no repeated token (the
    common case) pays one length comparison for it.
    """
    tokens = tokenize(text)
    distinct = set(tokens)
    if len(distinct) == len(tokens):
        return distinct, {}
    return distinct, {
        token: n for token, n in Counter(tokens).items() if n > 1
    }


#: The ``counts`` of a term no node repeats.
_NO_COUNTS: Mapping[str, int] = {}


class PostingsView:
    """The read side of token + trigram postings (term -> identifier set).

    Every read goes through ``tokens`` and ``grams`` as plain mappings
    and :meth:`term_counts`, so a flat :class:`TextPostings` and a
    layered store generation (:class:`~repro.store.search.
    SearchIndexView`: a shared sidecar base under a per-generation
    journal delta) answer the same questions by the same code.  Readers
    never mutate the returned sets or maps.
    """

    __slots__ = ()

    tokens: Mapping[str, AbstractSet[str]]
    grams: Mapping[str, AbstractSet[str]]

    def term_counts(self, term: str) -> Mapping[str, int]:
        """``{identifier: n}`` for the nodes holding token ``term``
        n >= 2 times; a node in ``tokens[term]`` but not here holds it
        once."""
        raise NotImplementedError

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

    def canonical(self) -> "dict[str, dict[str, Any]]":
        """Order-insensitive postings snapshot for oracle comparison."""
        counts: dict[str, dict[str, int]] = {}
        for term in self.tokens:
            repeated = self.term_counts(term)
            if repeated:
                counts[term] = dict(sorted(repeated.items()))
        return {
            "tokens": {term: sorted(ids) for term, ids in self.tokens.items()},
            "grams": {term: sorted(ids) for term, ids in self.grams.items()},
            "counts": counts,
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

    ``counts`` maps a term to ``{identifier: n}`` for the nodes whose
    text holds that token n >= 2 times; a missing entry means once.
    It is what lets :func:`search` score from the postings alone.
    """

    __slots__ = ("tokens", "grams", "counts")

    tokens: dict[str, set[str]]
    grams: dict[str, set[str]]
    counts: dict[str, dict[str, int]]

    def __init__(self) -> None:
        self.tokens = {}
        self.grams = {}
        self.counts = {}

    def term_counts(self, term: str) -> Mapping[str, int]:
        return self.counts.get(term, _NO_COUNTS)

    def add(self, identifier: str, text: str) -> None:
        self.add_tokens(identifier, text)
        for gram in trigrams(text):
            self.grams.setdefault(gram, set()).add(identifier)

    def add_tokens(self, identifier: str, text: str) -> None:
        """The token half of :meth:`add`: postings and repeat counts."""
        distinct, repeated = _token_counts(text)
        for token in distinct:
            self.tokens.setdefault(token, set()).add(identifier)
        for token, n in repeated.items():
            self.counts.setdefault(token, {})[identifier] = n

    def remove(self, identifier: str, text: str) -> None:
        """Exact inverse of :meth:`add` (empty postings pruned)."""
        distinct, repeated = _token_counts(text)
        for postings, terms in (
            (self.tokens, distinct),
            (self.grams, trigrams(text)),
        ):
            for term in terms:
                entries = postings.get(term)
                if entries is not None:
                    entries.discard(identifier)
                    if not entries:
                        del postings[term]
        for token in repeated:
            counted = self.counts.get(token)
            if counted is not None:
                counted.pop(identifier, None)
                if not counted:
                    del self.counts[token]


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
    term_counts: Callable[[str], Mapping[str, int]]
    substring_ids: Callable[[str], "set[str]"]
    lowered_text: Callable[[str], str]
    node: Callable[[str], Node]
    supporters: Callable[[str], "list[Node]"]


class _ScanIndex(TextPostings):
    """Ephemeral postings for a stored argument with no sidecar.

    One verified streaming pass builds token postings, their repeat
    counts and a text cache (no trigrams: substring terms test the
    cached text); search stays correct (and still one-pass) on
    unindexed stores — it just pays the scan the sidecar exists to
    avoid.
    """

    __slots__ = ("lowered",)

    def __init__(self, nodes: Iterable[Node]) -> None:
        super().__init__()
        self.lowered: dict[str, str] = {}
        for node in nodes:
            self.lowered[node.identifier] = node.text.lower()
            self.add_tokens(node.identifier, node.text)

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
        term_counts=postings.term_counts,
        substring_ids=index.contains_candidates,
        lowered_text=index.lowered_text.__getitem__,
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
            term_counts=index.term_counts,
            substring_ids=lambda term: index.contains_candidates(term)
            or set(),
            lowered_text=lambda identifier: stored.node(
                identifier
            ).text.lower(),
            node=stored.node,
            supporters=_stored_supporters(stored),
        )
    scan = _ScanIndex(stored.iter_nodes())
    return _Lookup(
        doc_count=len(scan.lowered),
        token_ids=lambda term: scan.tokens.get(term, frozenset()),
        term_counts=scan.term_counts,
        substring_ids=scan.substring_ids,
        lowered_text=scan.lowered.__getitem__,
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


def _scores(
    lookup: _Lookup, terms: "tuple[str, ...]"
) -> "tuple[dict[str, float], dict[str, AbstractSet[str]]]":
    """Every candidate's score, and each matching term's candidates.

    A term adds ``w * (1 + log1p(n))`` to each node holding it, where
    ``w`` is its idf (halved for a substring match) and ``n`` its
    occurrences in the node: ``term_counts`` for a token hit (a missing
    entry means once), a count in the verified candidate's folded text
    for a substring one.  Terms add in query order, so a score is the
    same float under any hash seed.
    """
    scores: dict[str, float] = {}
    matched: dict[str, AbstractSet[str]] = {}
    for term in terms:
        ids = lookup.token_ids(term)
        weight = 1.0
        substring = not ids and len(term) >= 3
        if substring:
            # No whole-token hit: fall back to trigram substring
            # candidates (already verified by the lookup) at a discount.
            ids = lookup.substring_ids(term)
            weight = _SUBSTRING_DISCOUNT
        if not ids:
            continue
        matched[term] = ids
        weight *= math.log1p(lookup.doc_count / (1 + len(ids)))
        counts: Mapping[str, int]
        if substring:
            text = lookup.lowered_text
            counts = {
                identifier: text(identifier).count(term) for identifier in ids
            }
        else:
            counts = lookup.term_counts(term)
        for identifier in ids:
            scores[identifier] = scores.get(identifier, 0.0) + weight * (
                1.0 + math.log1p(counts.get(identifier, 1))
            )
    return scores, matched


def _top(
    scores: "dict[str, float]", limit: int
) -> "list[tuple[str, float]]":
    """The best ``limit`` of one subject's ``scores`` in :func:`_hit_order`,
    each with its rounded score.

    Equal to ``heapq.nsmallest`` keyed by :func:`_hit_order`, without
    a key call per candidate.  Distinct score values are few (the
    perfbench queries give 1,450-2,006 candidates and 2-3 rounded
    values each), so the best values covering ``limit`` ids are chosen
    first, grouped where they round alike, and one pass gathers their
    ids.  The groups are then taken best first with ids in order.  With
    every score distinct it is still one pass plus one sort of the
    values.
    """
    tally = Counter(scores.values())
    groups: "list[tuple[float, list[float]]]" = []
    covered = 0
    for value in sorted(tally, reverse=True):
        rounded = round(value, 6)
        if groups and groups[-1][0] == rounded:
            groups[-1][1].append(value)
        elif covered >= limit:
            break
        else:
            groups.append((rounded, [value]))
        covered += tally[value]
    members: "dict[float, list[str]]" = {
        value: [] for _, values in groups for value in values
    }
    for identifier, score in scores.items():
        bucket = members.get(score)
        if bucket is not None:
            bucket.append(identifier)
    best: "list[tuple[str, float]]" = []
    for rounded, values in groups:
        ids = [identifier for value in values for identifier in members[value]]
        best.extend(
            (identifier, rounded)
            for identifier in heapq.nsmallest(limit - len(best), ids)
        )
    return best


class _Ranked(NamedTuple):
    """One ranked hit before rendering.

    It holds the subject's node and supporter readers, never its
    lookup, so a scan index is freed once its store is ranked.
    """

    score: float  # rounded, as the hit reports it
    store: "str | None"
    identifier: str
    matched_terms: "tuple[str, ...]"
    node: Callable[[str], Node]
    supporters: Callable[[str], "list[Node]"]


def _rank_subject(
    store: "str | None",
    subject: Any,
    terms: "tuple[str, ...]",
    limit: int,
) -> "list[_Ranked]":
    """One subject's best ``limit`` candidates, best first, unrendered.

    Every matched node is scored from the postings alone (see
    :func:`_scores`), so no node text is read here beyond the
    candidates of a substring term.  That is enough for a corpus too:
    the merged ranking uses the same key (:func:`_hit_order`), so no
    hit beyond a subject's own top ``limit`` can make the merged top
    ``limit``, and only those are rendered (:func:`_render`).
    """
    lookup = _lookup(subject)
    if not lookup.doc_count:
        return []
    scores, matched = _scores(lookup, terms)
    return [
        _Ranked(
            score,
            store,
            identifier,
            tuple(
                sorted(
                    term for term, ids in matched.items() if identifier in ids
                )
            ),
            lookup.node,
            lookup.supporters,
        )
        for identifier, score in _top(scores, limit)
    ]


def _render(
    ranked: _Ranked, terms: "tuple[str, ...]", neighbourhood: int
) -> SearchHit:
    """A ranked hit rendered: its node, snippet and neighbourhood."""
    score, store, identifier, hit_terms, read_node, supporters = ranked
    node = read_node(identifier)
    rendered: "list[str]" = []
    if neighbourhood > 0:
        children = supporters(identifier)
        # Terms-first: supporting children that mention a query term
        # make the summary answer the query, not just decorate it.
        children.sort(
            key=lambda child: not any(
                term in child.text.lower() for term in terms
            )
        )
        for child in children[:neighbourhood]:
            child_snippet = query_biased_summary(child.text, terms, width=72)
            rendered.append(f"{child.identifier}: {child_snippet}")
    return SearchHit(
        identifier=identifier,
        score=score,
        node_type=node.node_type.value,
        snippet=query_biased_summary(node.text, hit_terms),
        matched_terms=hit_terms,
        neighbourhood=tuple(rendered),
        store=store,
    )


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
    up to ``neighbourhood`` supporting children.  Scores come from the
    token postings and their repeat ``counts``, so node text is read
    only for the ``limit`` hits returned, across a whole corpus (plus
    the verified candidates of a term that matches no whole token).
    """
    terms = tuple(dict.fromkeys(tokenize(query_text)))
    if not terms or limit < 1:
        return []
    sources = getattr(subject, "search_sources", None)
    if sources is not None:
        pairs: "list[tuple[str | None, Any]]" = list(sources())
    else:
        pairs = [(None, subject)]
    ranked: "list[_Ranked]" = []
    for store, source in pairs:
        ranked.extend(_rank_subject(store, source, terms, limit))
    ranked.sort(
        key=lambda hit: _hit_order(hit.score, hit.store, hit.identifier)
    )
    return [_render(hit, terms, neighbourhood) for hit in ranked[:limit]]
