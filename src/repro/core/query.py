"""Structured queries over annotated arguments — with an indexed planner.

Denney, Naylor & Pai claim that semantic enrichment 'enables rich
querying', e.g. generating 'a view ... of traceability to only those
hazards whose likelihood of occurrence is remote, and whose severity is
catastrophic' (§III.H).  This module provides that capability:

* :class:`Query` — a composable predicate language over node type, text,
  and metadata attributes (equality, comparison, membership);
* :class:`ArgumentIndex` — the query planner's per-argument indices:
  attribute name, attribute value, attribute parameter, node type, and
  lowered text, plus (built on the first text plan) the token + trigram
  :class:`~repro.core.search.TextPostings` that the persisted store
  sidecar also uses.  Built lazily and maintained *incrementally*: the
  index remembers the argument's mutation sequence number it reflects,
  and on the next query after a mutation it asks the argument for the
  :class:`~repro.core.argument.MutationDelta` since then and patches its
  maps in place (node adds, removals, and replacements are all O(change);
  link mutations don't touch the index at all).  It falls back to a full
  O(V) rebuild only when the bounded mutation log has rotated past its
  sequence number or the delta is so large that replaying it would cost
  more than rebuilding;
* :func:`select` — evaluate a query over an argument.  Queries built from
  the factory helpers carry *candidate plans*: ``select`` intersects or
  unions candidate identifier sets from the indices and only runs the
  predicate over that candidate set, instead of scanning every node per
  predicate.  A conjunction narrows through whichever side planned.
  Hand-rolled queries (no plan) fall back to the full scan;
* :func:`traceability_view` — the paper's example: the sub-argument
  spanning every node matching a query, plus the paths connecting the
  matches to the root (a 'view' in their sense).  Path membership is
  computed by reverse reachability (O(V + E)), not path enumeration, and
  contextual attachments are retained *transitively*;
* :func:`text_search` — plain substring search, the baseline the paper
  says the authors never compared against ('the claim that the benefits
  of rich querying over simple text search outweigh the costs' is neither
  made nor supported).

The §VI-style query benchmarks compare structured queries against text
search on precision/recall over seeded argument corpora.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .analysis import is_stored_argument, iter_subject_nodes
from .argument import Argument, LinkKind, MutationDelta
from .nodes import Node, NodeType
from .search import TextPostings

__all__ = [
    "Query",
    "ArgumentIndex",
    "argument_index",
    "attribute_equals",
    "attribute_param",
    "has_attribute",
    "node_type_is",
    "text_contains",
    "select",
    "text_search",
    "traceability_view",
]


class ArgumentIndex:
    """Query-planner indices over one argument state.

    Built in a single O(V) pass; after that, kept current by replaying
    mutation deltas (:meth:`apply`) instead of rebuilding.  ``seq`` is
    the argument :attr:`~repro.core.argument.Argument.mutation_seq` the
    index reflects.  ``order`` values are monotonic insertion ranks, not
    contiguous positions — removals leave gaps, appends keep growing —
    so they stay valid sort keys without renumbering.
    """

    def __init__(self, argument: Argument) -> None:
        self.seq = argument.mutation_seq
        self.order: dict[str, int] = {}
        self.by_attribute: dict[str, set[str]] = {}
        self.by_attribute_value: dict[tuple[str, tuple[Any, ...]], set[str]] = {}
        self.by_param: dict[tuple[str, int, Any], set[str]] = {}
        self.by_type: dict[NodeType, set[str]] = {}
        self.lowered_text: dict[str, str] = {}
        self._text: TextPostings | None = None
        self._next_order = 0
        for node in argument.nodes:
            self._index_node(node, self._next_order)
            self._next_order += 1

    def _index_node(self, node: Node, position: int) -> None:
        identifier = node.identifier
        self.order[identifier] = position
        self.by_type.setdefault(node.node_type, set()).add(identifier)
        lowered = node.text.lower()
        self.lowered_text[identifier] = lowered
        if self._text is not None:
            self._text.add(identifier, lowered)
        # Index metadata_dict(), not the raw pairs: the query predicates
        # read metadata_dict(), where a duplicated attribute name keeps
        # only its last entry — an exact plan must agree with them.
        for name, params in node.metadata_dict().items():
            self.by_attribute.setdefault(name, set()).add(identifier)
            try:
                self.by_attribute_value.setdefault(
                    (name, params), set()
                ).add(identifier)
            except TypeError:  # unhashable parameter payloads
                pass
            for index, value in enumerate(params):
                try:
                    self.by_param.setdefault(
                        (name, index, value), set()
                    ).add(identifier)
                except TypeError:
                    pass

    def _unindex_node(self, node: Node) -> None:
        """Exact inverse of :meth:`_index_node` (empty postings pruned)."""
        identifier = node.identifier
        del self.order[identifier]
        self._discard(self.by_type, node.node_type, identifier)
        if self._text is not None:
            self._text.remove(identifier, self.lowered_text[identifier])
        del self.lowered_text[identifier]
        for name, params in node.metadata_dict().items():
            self._discard(self.by_attribute, name, identifier)
            try:
                self._discard(
                    self.by_attribute_value, (name, params), identifier
                )
            except TypeError:
                pass
            for index, value in enumerate(params):
                try:
                    self._discard(
                        self.by_param, (name, index, value), identifier
                    )
                except TypeError:
                    pass

    @staticmethod
    def _discard(postings: dict, key: Any, identifier: str) -> None:
        entries = postings.get(key)
        if entries is None:
            return
        entries.discard(identifier)
        if not entries:
            del postings[key]

    def apply(self, delta: MutationDelta) -> bool:
        """Patch the index in place; False declines (caller rebuilds).

        Replaying a delta longer than the indexed node set costs more
        than the O(V) rebuild it would avoid, so such deltas are
        declined.  Link mutations never touch these maps and are
        skipped.  The caller advances :attr:`seq` on success.
        """
        if len(delta) > max(32, 2 * len(self.order)):
            return False
        for op, payload in delta.records:
            if op == "add_node":
                self._index_node(payload, self._next_order)
                self._next_order += 1
            elif op == "remove_node":
                self._unindex_node(payload)
            elif op == "replace_node":
                old, new = payload
                position = self.order[old.identifier]
                self._unindex_node(old)
                self._index_node(new, position)
        return True

    def text_postings(self) -> TextPostings:
        """Token + trigram postings, built lazily, then patched in step.

        Non-text workloads never pay for text postings: the maps are
        built on the first text-planned query and from then on
        maintained incrementally by :meth:`_index_node` /
        :meth:`_unindex_node` alongside the other indices.
        """
        if self._text is None:
            postings = TextPostings()
            for identifier, lowered in self.lowered_text.items():
                postings.add(identifier, lowered)
            self._text = postings
        return self._text

    def contains_candidates(self, lowered: str) -> set[str]:
        """Exactly the nodes whose folded text contains ``lowered``.

        Verified trigram candidates (see
        :meth:`~repro.core.search.TextPostings.verified_candidates`).
        Needles shorter than a trigram scan ``lowered_text`` directly
        (still O(V), but no false narrowing) and never build postings.
        """
        if len(lowered) < 3:
            return {
                identifier
                for identifier, text in self.lowered_text.items()
                if lowered in text
            }
        return self.text_postings().verified_candidates(
            lowered, self.lowered_text.__getitem__
        ) or set()

    def grams_superset(self, lowered: str) -> set[str] | None:
        """Unverified trigram candidates (see
        :meth:`~repro.core.search.TextPostings.grams_superset`); needles
        shorter than a trigram return ``None`` without building
        postings."""
        if len(lowered) < 3:
            return None
        return self.text_postings().grams_superset(lowered)


def argument_index(
    argument: Argument, *, rebuild: bool = False
) -> ArgumentIndex:
    """The planner index for an argument's current state.

    Stored on the argument's derived-structure slot (surviving cache
    invalidation) and patched forward from the mutation delta when
    stale; ``rebuild=True`` forces the full O(V) build — the
    per-mutation-invalidation behaviour the scale benchmark compares
    against.
    """
    if not rebuild:
        index = argument.get_derived("query-index")
        if index is not None:
            seq = argument.mutation_seq
            if index.seq == seq:
                return index
            delta = argument.delta_since(index.seq)
            if delta is not None and index.apply(delta):
                index.seq = seq
                return index
    index = ArgumentIndex(argument)
    argument.set_derived("query-index", index)
    return index


#: A plan maps an index to ``(ids, exact)`` — candidate identifiers that
#: include every match, and whether they are *exactly* the matches — or
#: to ``None`` when the index cannot narrow and every node must be
#: considered.  The index is an :class:`ArgumentIndex` for a live
#: argument or a store's search sidecar at one handle's generation
#: (:class:`~repro.store.search.SearchIndexView`), which carries text
#: postings only.
Plan = Callable[[Any], "tuple[set[str], bool] | None"]


@dataclass(frozen=True)
class Query:
    """A composable node predicate.

    Combine with ``&``, ``|``, and ``~`` (and/or/not), e.g.::

        hazards = has_attribute("hazard")
        worst = attribute_param("hazard", 1, "remote") \
              & attribute_param("hazard", 2, "catastrophic")

    ``plan`` is the optional planner hook (see :data:`Plan`): given an
    index it answers ``(ids, exact)`` — a superset of the true matches,
    flagged exact when it *is* the matches, so :func:`select` can skip
    re-running the predicate — or ``None`` when that index cannot
    narrow this query.  The predicate has the final word on every
    non-exact answer, so a plan can only speed evaluation up, never
    change the result.

    Exactness travels with each answer.  ``a & b`` narrows through
    whichever sides planned: both planned gives the intersection, exact
    only when both answers are; one side planned gives that side's
    candidates, never exact, because the other side's predicate must
    still filter them.  ``a | b`` plans only when both sides do.  ``~``
    and hand-rolled queries carry no plan.

    ``exact`` records whether a *fully* planned answer is exact: true
    for the factory helpers except case-sensitive ``text_contains``,
    and for ``&``/``|`` of exact queries.
    """

    description: str
    predicate: Callable[[Node], bool]
    plan: Plan | None = None
    exact: bool = False

    def __call__(self, node: Node) -> bool:
        return self.predicate(node)

    def candidates(self, index: Any) -> "tuple[set[str], bool] | None":
        """The plan's ``(ids, exact)`` answer, or None for a full scan."""
        if self.plan is None:
            return None
        return self.plan(index)

    def __and__(self, other: "Query") -> "Query":
        def plan(index: Any) -> "tuple[set[str], bool] | None":
            left = self.candidates(index)
            right = other.candidates(index)
            if left is None:
                return None if right is None else (right[0], False)
            if right is None:
                return left[0], False
            return left[0] & right[0], left[1] and right[1]

        return Query(
            f"({self.description} and {other.description})",
            lambda node: self(node) and other(node),
            plan,
            self.exact and other.exact,
        )

    def __or__(self, other: "Query") -> "Query":
        def plan(index: Any) -> "tuple[set[str], bool] | None":
            left = self.candidates(index)
            right = other.candidates(index)
            if left is None or right is None:
                return None
            return left[0] | right[0], left[1] and right[1]

        return Query(
            f"({self.description} or {other.description})",
            lambda node: self(node) or other(node),
            plan,
            self.exact and other.exact,
        )

    def __invert__(self) -> "Query":
        return Query(
            f"not {self.description}",
            lambda node: not self(node),
        )


def _leaf(
    description: str,
    predicate: Callable[[Node], bool],
    lookup: "Callable[[Any], set[str] | None]",
    exact: bool = True,
) -> Query:
    """A factory query whose plan answers ``lookup(index)``, flagged
    ``exact``; ``None`` from the lookup means the index cannot narrow."""

    def plan(index: Any) -> "tuple[set[str], bool] | None":
        ids = lookup(index)
        return None if ids is None else (ids, exact)

    return Query(description, predicate, plan, exact)


def _live_leaf(
    description: str,
    predicate: Callable[[Node], bool],
    lookup: "Callable[[ArgumentIndex], set[str] | None]",
) -> Query:
    """An exact leaf over the live index's type or attribute postings.

    The store sidecar carries text postings only, so against it the
    leaf answers ``None`` (cannot narrow) instead of probing for maps
    it does not have.
    """

    def live_lookup(index: Any) -> "set[str] | None":
        if not isinstance(index, ArgumentIndex):
            return None
        return lookup(index)

    return _leaf(description, predicate, live_lookup)


def has_attribute(name: str) -> Query:
    """Nodes carrying the named metadata attribute."""
    return _live_leaf(
        f"has {name}",
        lambda node: name in node.metadata_dict(),
        lambda index: index.by_attribute.get(name, set()),
    )


def attribute_equals(name: str, params: tuple[Any, ...]) -> Query:
    """Nodes whose attribute has exactly these parameters."""

    def lookup(index: ArgumentIndex) -> "set[str] | None":
        try:
            return index.by_attribute_value.get((name, params), set())
        except TypeError:  # unhashable params: fall back to scanning
            return None

    return _live_leaf(
        f"{name} == {params!r}",
        lambda node: node.metadata_dict().get(name) == params,
        lookup,
    )


def attribute_param(name: str, index: int, value: Any) -> Query:
    """Nodes whose attribute's ``index``-th parameter equals ``value``."""

    def predicate(node: Node) -> bool:
        params = node.metadata_dict().get(name)
        return (
            params is not None
            and 0 <= index < len(params)
            and params[index] == value
        )

    def lookup(arg_index: ArgumentIndex) -> "set[str] | None":
        try:
            return arg_index.by_param.get((name, index, value), set())
        except TypeError:
            return None

    return _live_leaf(f"{name}[{index}] == {value!r}", predicate, lookup)


def node_type_is(node_type: NodeType) -> Query:
    """Nodes of one GSN kind."""
    return _live_leaf(
        f"type == {node_type.value}",
        lambda node: node.node_type is node_type,
        lambda index: index.by_type.get(node_type, set()),
    )


def text_contains(needle: str, case_sensitive: bool = False) -> Query:
    """Plain substring match on node text.

    Both branches are planned, against the live index and the store
    sidecar alike.  The folded branch resolves *exact* candidates from
    the trigram postings (verified against the lowered text, so the
    predicate is skipped).  The sensitive branch narrows through the
    same lowered postings — folding is monotonic, so the lowered-needle
    candidates are a superset of the case-sensitive matches — and
    leaves the predicate to arbitrate case, hence ``exact=False``.  A
    store sidecar answers ``None`` for needles shorter than a trigram.
    """
    lowered = needle.lower()
    if case_sensitive:
        return _leaf(
            f"text contains {needle!r}",
            lambda node: needle in node.text,
            lambda index: index.grams_superset(lowered),
            exact=False,
        )
    return _leaf(
        f"text icontains {needle!r}",
        lambda node: lowered in node.text.lower(),
        lambda index: index.contains_candidates(lowered),
    )


def select(argument: Argument, query: Query) -> list[Node]:
    """All nodes matching the query, in insertion order.

    Planned queries evaluate the predicate only over the index-derived
    candidate set — and *exact* answers (see :class:`Query`) skip the
    predicate entirely, reading the answer straight off the index; a
    conjunction with one unplannable side still narrows through the
    other.  Queries the index cannot narrow scan every node.

    Also accepts a :class:`repro.store.StoredArgument`: planned queries
    resolve through the store's search sidecar (see
    :func:`_select_stored`); otherwise the predicate streams over the
    store's node shards (checksum-verified, merged back into insertion
    order) without hydrating the argument, so querying a case bigger
    than memory stays O(matches) in space.  Detection uses the shared
    duck-typed helpers in :mod:`repro.core.analysis` so this module
    never imports :mod:`repro.store`, which imports it transitively.
    """
    if not isinstance(argument, Argument):
        if query.plan is not None and is_stored_argument(argument):
            planned = _select_stored(argument, query)
            if planned is not None:
                return planned
        # iter_subject_nodes raises the canonical TypeError for
        # non-argument subjects (e.g. an AssuranceCase).
        return [node for node in iter_subject_nodes(argument) if query(node)]
    if query.plan is None:
        # No plan means a full scan regardless; skip building the index.
        return [node for node in argument.nodes if query(node)]
    index = argument_index(argument)
    planned = query.candidates(index)
    if planned is None:
        return [node for node in argument.nodes if query(node)]
    candidates, exact = planned
    ordered = sorted(candidates, key=index.order.__getitem__)
    if exact:
        return [argument.node(identifier) for identifier in ordered]
    return [
        node
        for node in (argument.node(identifier) for identifier in ordered)
        if query(node)
    ]


def _select_stored(stored: Any, query: Query) -> list[Node] | None:
    """Resolve a planned query through a store's persisted search index.

    The sidecar carries text postings only, so type and attribute
    leaves answer ``None`` against it; a conjunction still narrows
    through its text side and lets the predicate decide the rest.
    Only the candidates' own shards are hydrated.

    Returns ``None`` whenever the streaming scan must run instead: no
    (current) sidecar, or a plan the sidecar cannot narrow.  The
    sidecar only ever *narrows*; the predicate still arbitrates
    non-exact answers, so a fallback can never change the result, only
    its cost.
    """
    from ..store.search import load_search_index

    index = load_search_index(stored)
    if index is None:
        return None
    planned = query.candidates(index)
    if planned is None:
        return None
    candidates, exact = planned
    entries = []
    for identifier in candidates:
        try:
            entries.append(stored._node_entry(identifier))
        except KeyError:
            return None  # index out of step with the store: scan instead
    entries.sort(key=lambda entry: entry[0])
    if exact:
        return [node for _, node in entries]
    return [node for _, node in entries if query(node)]


def text_search(argument: Argument, needle: str) -> list[Node]:
    """The simple-text-search baseline the paper contrasts with querying."""
    return select(argument, text_contains(needle))


def traceability_view(argument: Argument, query: Query) -> Argument:
    """The Denney–Naylor–Pai 'view': matches plus their paths to the root.

    Returns a new argument containing every matching node, every node on a
    SupportedBy path between a match and a root, and the links among the
    retained nodes.  Contextual neighbours of retained nodes are kept
    transitively (context attached to retained context is retained too) so
    the view stays interpretable.

    Path membership is the union of the matches' SupportedBy ancestors,
    computed by a single multi-source reverse reachability pass — O(V + E)
    total however many nodes match — rather than an enumeration of paths,
    which is exponential on dense DAGs.
    """
    matches = {node.identifier for node in select(argument, query)}
    keep: set[str] = set(matches)
    frontier = list(matches)
    while frontier:
        identifier = frontier.pop()
        for parent in argument.parents(
            identifier, LinkKind.SUPPORTED_BY
        ):
            if parent.identifier not in keep:
                keep.add(parent.identifier)
                frontier.append(parent.identifier)
    # Retain context attached to kept nodes, transitively (a single pass
    # over the link list dropped context-of-context).
    frontier = list(keep)
    while frontier:
        identifier = frontier.pop()
        for context in argument.context_of(identifier):
            if context.identifier not in keep:
                keep.add(context.identifier)
                frontier.append(context.identifier)
    view = Argument(name=f"{argument.name}?{query.description}")
    with view.batch():
        for node in argument.nodes:
            if node.identifier in keep:
                view.add_node(node)
        for link in argument.links:
            if link.source in keep and link.target in keep:
                view.add_link(link.source, link.target, link.kind)
    return view
