"""The assurance-argument graph — an iterative, indexed graph engine.

Denney & Pai formalise a partial safety case argument structure as a tuple
``⟨N, l, t, →⟩`` — nodes, a type-labelling function, a content function,
and a connector relation (§III.I).  :class:`Argument` realises exactly that
structure, with the connector relation split into GSN's two arrows:

* **SupportedBy** (``→`` solid arrow): inferential/evidential support;
* **InContextOf** (``⇢`` hollow arrow): contextual attachment.

The class offers the graph services every other layer consumes: traversal,
root/leaf discovery, cycle detection, path tracing (the 'tracing a path in
a graph' that §VI.E says graphical notations are thought to ease), subtree
extraction, and structural statistics.

Complexity guarantees
=====================

Tool-generated assurance cases reach tens of thousands of nodes (Resolute
derives cases from architecture models; Isabelle/SACM mechanises similarly
large ones), so every traversal below is **iterative** — no graph shape can
raise :class:`RecursionError` — and the hot paths are backed by indices
maintained incrementally by ``add_*``/``remove_*``/``replace_node``:

========================  ==========================================
Operation                 Cost (V nodes, E links, answer size K)
========================  ==========================================
``add_node``              O(1)
``add_link``              O(1) — duplicate check via a link set
``add_nodes``             O(payload), validated up front, one batch
``add_links``             O(payload), validated up front, one batch
``remove_link``           O(1) amortised (ordered-dict deletes)
``remove_node``           O(degree)
``replace_node``          O(1) — keeps the node-type index consistent
``node`` / ``in``         O(1)
``nodes_of_type``         O(K) via the node-type index
``children``/``parents``  O(degree) via per-kind adjacency
``roots`` / ``leaves``    O(V) with O(1) per-node degree checks
``walk`` / ``subtree``    O(V + E) explicit-stack DFS
``find_cycle``            O(V + E) iterative colouring DFS; the
                          returned cycle is a *verified closed*
                          SupportedBy cycle
``depth``                 O(V + E) memoised longest path (cached until
                          the next mutation; the seed implementation
                          re-visited shared subdags exponentially)
``ancestors``             O(V + E) reverse reachability
``count_paths_to_root``   O(V + E) memoised path counting on DAGs;
                          falls back to enumeration if a cycle is
                          reachable (always agrees with the
                          enumeration)
``iter_paths_to_root``    lazy, O(depth) memory; enumerating all paths
                          is inherently exponential on dense DAGs, so
                          ``paths_to_root`` takes a ``max_paths`` guard
``statistics``            O(1) beyond the (cached) depth — counts come
                          from maintained indices
========================  ==========================================

On cyclic graphs (which well-formedness rejects), ``depth`` first strips
the back edges of an insertion-order DFS — making the memoisation sound
and the result deterministic — and ``count_paths_to_root`` abandons the
DP for the exact enumeration; on acyclic graphs both match the seed's
semantics exactly, and otherwise they degrade gracefully instead of
recursing or silently drifting.

Mutations bump :attr:`Argument.version` and clear the internal cache:
per-version derived values (``depth``) memoise via
:meth:`Argument.cached` and are simply recomputed after any change.
Structures that are too expensive to rebuild per mutation — the query
planner's indices in :mod:`repro.core.query` — instead live in the
derived-structure slot and patch themselves forward from the mutation
delta log, as described next.

Batch mutation and the delta protocol
=====================================

Tool-generated cases are built by tens of thousands of programmatic
mutations (Resolute emits one claim per architecture component;
fallacy-injection campaigns chain hundreds of edits), so per-mutation
bookkeeping must not dominate.  Two cooperating mechanisms amortise it:

* **Batching.**  ``with argument.batch():`` defers the version bump to a
  single increment when the outermost batch closes; the bulk helpers
  :meth:`Argument.add_nodes` / :meth:`Argument.add_links` validate their
  whole payload up front (so a failed bulk call mutates nothing) and run
  inside one batch.  Reads stay safe mid-batch: every mutation still
  clears the value cache and bumps the fine-grained
  :attr:`Argument.mutation_seq` immediately.

* **The mutation delta log.**  Every structural mutation appends one
  ``(seq, op, payload)`` record to a bounded log.  A derived structure
  that indexed the argument at sequence number ``s`` calls
  :meth:`Argument.delta_since` ``(s)`` and receives a
  :class:`MutationDelta` — the ordered record of nodes/links added,
  removed, and replaced since ``s`` — which it can replay to patch
  itself in place instead of rebuilding from scratch.  ``delta_since``
  returns ``None`` when the log has rotated past ``s`` (the caller must
  rebuild).  The query planner (:mod:`repro.core.query`) is the first
  consumer.

Derived structures that survive invalidation (unlike :meth:`cached`
values, which are cleared on every mutation) live in a separate
per-argument slot via :meth:`get_derived` / :meth:`set_derived`; they are
responsible for their own staleness checks against ``mutation_seq``.

The delta log is also the **persistence export**: :meth:`mark_persisted`
records the sequence number at which a store directory last matched this
argument, :meth:`persisted_delta` returns the mutations since, and
``save(journal=True)`` appends exactly that delta to the store's journal
(see :mod:`repro.store.journal`) instead of rewriting every shard —
falling back to a full rewrite whenever the delta is unavailable (no
prior save, a rotated log, or a store someone else rewrote).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Mapping

from .nodes import Node, NodeType

__all__ = [
    "LinkKind",
    "Link",
    "Argument",
    "ArgumentError",
    "MutationDelta",
]


class LinkKind(enum.Enum):
    """The two GSN connector kinds."""

    SUPPORTED_BY = "supported_by"
    IN_CONTEXT_OF = "in_context_of"


@dataclass(frozen=True, slots=True)
class Link:
    """A directed connector from ``source`` to ``target`` (identifiers)."""

    source: str
    target: str
    kind: LinkKind

    def __str__(self) -> str:
        arrow = "->" if self.kind is LinkKind.SUPPORTED_BY else "~>"
        return f"{self.source} {arrow} {self.target}"


class ArgumentError(ValueError):
    """Raised for structural violations (unknown nodes, duplicates, etc.)."""


#: Op codes recorded in the mutation log.  Payloads: ``Node`` for node
#: ops (the *removed* node for ``remove_node``), ``(old, new)`` for
#: ``replace_node``, ``Link`` for link ops.
_ADD_NODE = "add_node"
_REMOVE_NODE = "remove_node"
_REPLACE_NODE = "replace_node"
_ADD_LINK = "add_link"
_REMOVE_LINK = "remove_link"


@dataclass(frozen=True)
class MutationDelta:
    """The ordered mutations between two argument sequence numbers.

    ``records`` preserves application order — required for correct
    replay when one identifier is removed and re-added within a single
    delta.  The categorised views (:attr:`nodes_added` etc.) are
    conveniences for reporting and tests.
    """

    records: tuple[tuple[str, Any], ...]

    def __bool__(self) -> bool:
        return bool(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def nodes_added(self) -> tuple[Node, ...]:
        return tuple(
            payload for op, payload in self.records if op == _ADD_NODE
        )

    @property
    def nodes_removed(self) -> tuple[Node, ...]:
        return tuple(
            payload for op, payload in self.records if op == _REMOVE_NODE
        )

    @property
    def nodes_replaced(self) -> tuple[tuple[Node, Node], ...]:
        return tuple(
            payload for op, payload in self.records if op == _REPLACE_NODE
        )

    @property
    def links_added(self) -> tuple[Link, ...]:
        return tuple(
            payload for op, payload in self.records if op == _ADD_LINK
        )

    @property
    def links_removed(self) -> tuple[Link, ...]:
        return tuple(
            payload for op, payload in self.records if op == _REMOVE_LINK
        )


class _Batch:
    """Reentrant context manager returned by :meth:`Argument.batch`."""

    __slots__ = ("_argument",)

    def __init__(self, argument: "Argument") -> None:
        self._argument = argument

    def __enter__(self) -> "Argument":
        self._argument._batch_depth += 1
        return self._argument

    def __exit__(self, *exc_info: Any) -> None:
        argument = self._argument
        argument._batch_depth -= 1
        if argument._batch_depth == 0 and argument._batch_dirty:
            argument._batch_dirty = False
            argument._version += 1


def iter_supported_by_back_edges(
    order: Iterable[str], adjacency: "Mapping[str, Iterable[str]]"
) -> Iterator[tuple[str, str, list[str], dict[str, int]]]:
    """Yield every back edge of a white/grey/black colouring DFS.

    The one SupportedBy cycle search: :meth:`Argument.find_cycle`,
    :meth:`Argument.depth` and every sidecar-backed check run it, with
    the same start order (``order``, insertion order) and neighbour
    order (``adjacency[source]``, link order), so live and stored checks
    of one argument report the identical cycle.  Each yield is
    ``(source, target, path, path_index)`` where ``path``/``path_index``
    are the *live* DFS stack state: ``path[path_index[target]:]`` is the
    closed cycle the back edge completes.
    """
    colour: dict[str, int] = {}  # 0/absent unvisited, 1 on stack, 2 done
    path: list[str] = []
    path_index: dict[str, int] = {}
    for start in order:
        if colour.get(start, 0):
            continue
        colour[start] = 1
        path_index[start] = len(path)
        path.append(start)
        stack: list[tuple[str, Iterator[str]]] = [
            (start, iter(adjacency.get(start, ())))
        ]
        while stack:
            identifier, targets = stack[-1]
            advanced = False
            for target in targets:
                state = colour.get(target, 0)
                if state == 1:
                    yield identifier, target, path, path_index
                elif state == 0:
                    colour[target] = 1
                    path_index[target] = len(path)
                    path.append(target)
                    stack.append((target, iter(adjacency.get(target, ()))))
                    advanced = True
                    break
            if not advanced:
                colour[identifier] = 2
                path.pop()
                del path_index[identifier]
                stack.pop()


class Argument:
    """A mutable assurance-argument graph.

    Mutation is restricted to ``add_node``/``add_link``/``remove_*`` so the
    internal indices stay consistent.  Equality compares node sets and link
    sets (used by the notation round-trip property tests).
    """

    def __init__(self, name: str = "argument") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        # Insertion-ordered link set: O(1) membership, deletion keeps order.
        self._links: dict[Link, None] = {}
        self._out: dict[str, dict[Link, None]] = {}
        self._in: dict[str, dict[Link, None]] = {}
        # Per-kind adjacency: kind -> source/target id -> neighbour ids.
        self._out_kind: dict[LinkKind, dict[str, dict[str, None]]] = {
            kind: {} for kind in LinkKind
        }
        self._in_kind: dict[LinkKind, dict[str, dict[str, None]]] = {
            kind: {} for kind in LinkKind
        }
        # Node-type index (per-type insertion order == global order).
        self._by_type: dict[NodeType, dict[str, None]] = {
            node_type: {} for node_type in NodeType
        }
        self._kind_counts: dict[LinkKind, int] = {
            kind: 0 for kind in LinkKind
        }
        self._version = 0
        self._cache: dict[str, Any] = {}
        # Fine-grained mutation counter + bounded op log (delta protocol).
        self._mutation_seq = 0
        self._mutation_log: deque[tuple[int, str, Any]] = deque(
            maxlen=self.MUTATION_LOG_LIMIT
        )
        # Derived structures that survive invalidation (see get_derived).
        self._derived: dict[str, Any] = {}
        # Per-store persistence baselines for journal appends:
        # resolved directory -> (mutation_seq, manifest CRC-32) at the
        # moment the store last matched this argument.
        self._persisted: dict[str, tuple[int, "int | None"]] = {}
        self._batch_depth = 0
        self._batch_dirty = False

    #: How many mutation records :meth:`delta_since` can look back over;
    #: older history rotates out and forces derived-structure rebuilds.
    MUTATION_LOG_LIMIT = 10_000

    # -- cache/version bookkeeping ----------------------------------------

    @property
    def version(self) -> int:
        """Coarse mutation counter: one bump per mutation *or* per batch."""
        return self._version

    @property
    def mutation_seq(self) -> int:
        """Fine-grained counter: bumped by every mutation, even in a batch."""
        return self._mutation_seq

    def cached(self, key: str, build: Callable[[], Any]) -> Any:
        """Memoise ``build()`` until the next mutation.

        Derived structures (depth, query indices) register here; the cache
        is cleared wholesale by :meth:`_invalidate`, which every mutator
        calls, so staleness is impossible by construction.
        """
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build()
            return value

    def _invalidate(self) -> None:
        self._cache.clear()
        if self._batch_depth:
            self._batch_dirty = True
        else:
            self._version += 1

    def _record(self, op: str, payload: Any) -> None:
        """Log one mutation for the delta protocol and bump the seq."""
        self._mutation_seq += 1
        self._mutation_log.append((self._mutation_seq, op, payload))

    def batch(self) -> _Batch:
        """Group mutations into one logical change (one version bump).

        Usable as ``with argument.batch(): ...``; nests (only the
        outermost exit bumps the version).  Reads stay coherent
        mid-batch: each mutation still clears the value cache and bumps
        :attr:`mutation_seq` so delta consumers never see stale state.
        The batch is *not* transactional — mutations applied before an
        exception remain applied, and the version still bumps.
        """
        return _Batch(self)

    def delta_since(self, seq: int) -> MutationDelta | None:
        """The mutations after sequence number ``seq``, oldest first.

        Returns an empty delta when nothing changed, or ``None`` when
        ``seq`` is older than the bounded log reaches back (the caller
        must rebuild whatever it derived).
        """
        if seq >= self._mutation_seq:
            return MutationDelta(())
        log = self._mutation_log
        missing = self._mutation_seq - seq
        if missing > len(log):
            return None
        # Every mutation appends exactly one record, so the wanted
        # records are exactly the last ``missing``.  Walk the deque from
        # its tail — islice from the front would traverse the whole log
        # — keeping this O(delta), not O(log).
        tail = list(islice(reversed(log), missing))
        tail.reverse()
        return MutationDelta(tuple(
            (op, payload) for _, op, payload in tail
        ))

    # -- persistence baselines (journal delta export) ---------------------

    @staticmethod
    def _store_key(directory: Any) -> str:
        import os

        return os.path.abspath(os.fspath(directory))

    def mark_persisted(self, directory: Any) -> None:
        """Record that the store at ``directory`` matches this argument.

        Called by ``save()`` and by ``StoredArgument.load``; from here
        on, :meth:`persisted_delta` can hand ``save(journal=True)`` the
        exact mutations to append.  The baseline carries the manifest's
        CRC-32, so an append only happens onto the exact store
        generation this argument last saw — any external change falls
        back to a full rewrite.  One argument may hold baselines for
        several stores at once.
        """
        import os
        from zlib import crc32

        from ..store.format import MANIFEST_NAME  # local: import cycle

        key = self._store_key(directory)
        try:
            with open(os.path.join(key, MANIFEST_NAME), "rb") as handle:
                fingerprint: "int | None" = crc32(handle.read())
        except OSError:
            fingerprint = None
        self._persisted[key] = (self._mutation_seq, fingerprint)

    def persisted_delta(self, directory: Any) -> MutationDelta | None:
        """The mutations since the store at ``directory`` last matched.

        ``None`` when no delta can be produced — this argument was never
        saved to or loaded from the directory, or the bounded mutation
        log rotated past the baseline — in which case the caller must
        fall back to a full rewrite.
        """
        baseline = self._persisted.get(self._store_key(directory))
        if baseline is None:
            return None
        return self.delta_since(baseline[0])

    def get_derived(self, key: str) -> Any:
        """A derived structure that survives invalidation, or ``None``.

        Unlike :meth:`cached` values these are *not* cleared on
        mutation; the owner checks staleness itself against
        :attr:`mutation_seq` (typically patching via
        :meth:`delta_since`).  :meth:`copy` does not carry them over.
        """
        return self._derived.get(key)

    def set_derived(self, key: str, value: Any) -> None:
        """Store a derived structure (see :meth:`get_derived`)."""
        self._derived[key] = value

    # -- construction ---------------------------------------------------

    def _insert_node(self, node: Node) -> None:
        """Bookkeeping for one validated node (shared single/bulk path)."""
        identifier = node.identifier
        self._nodes[identifier] = node
        self._out[identifier] = {}
        self._in[identifier] = {}
        self._by_type[node.node_type][identifier] = None
        self._record(_ADD_NODE, node)

    def add_node(self, node: Node) -> Node:
        """Add a node; identifiers must be unique."""
        if node.identifier in self._nodes:
            raise ArgumentError(
                f"duplicate node identifier {node.identifier!r}"
            )
        self._insert_node(node)
        self._invalidate()
        return node

    def add_nodes(self, nodes: Iterable[Node]) -> list[Node]:
        """Add many nodes in one batch; all-or-nothing validation.

        Duplicate identifiers — against the argument *or* within the
        payload — fail before anything is inserted.  Insertion is a
        straight-line bulk path: the payload is validated exactly once,
        and the cache invalidates once instead of per node.
        """
        pending = list(nodes)
        seen: set[str] = set()
        for node in pending:
            if node.identifier in self._nodes or node.identifier in seen:
                raise ArgumentError(
                    f"duplicate node identifier {node.identifier!r}"
                )
            seen.add(node.identifier)
        with self.batch():
            for node in pending:
                self._insert_node(node)
            if pending:
                self._invalidate()
        return pending

    def _validate_link(self, link: Link) -> None:
        """Raise unless the link can be inserted (shared single/bulk)."""
        if link.source not in self._nodes:
            raise ArgumentError(f"unknown source node {link.source!r}")
        if link.target not in self._nodes:
            raise ArgumentError(f"unknown target node {link.target!r}")
        if link.source == link.target:
            raise ArgumentError(f"self-link on {link.source!r}")
        if link in self._links:
            raise ArgumentError(f"duplicate link {link}")

    def _insert_link(self, link: Link) -> None:
        """Bookkeeping for one validated link (shared single/bulk path)."""
        self._links[link] = None
        self._out[link.source][link] = None
        self._in[link.target][link] = None
        self._out_kind[link.kind].setdefault(
            link.source, {}
        )[link.target] = None
        self._in_kind[link.kind].setdefault(
            link.target, {}
        )[link.source] = None
        self._kind_counts[link.kind] += 1
        self._record(_ADD_LINK, link)

    def add_link(
        self, source: str, target: str, kind: LinkKind
    ) -> Link:
        """Connect two existing nodes; parallel duplicate links are rejected."""
        link = Link(source, target, kind)
        self._validate_link(link)
        self._insert_link(link)
        self._invalidate()
        return link

    def add_links(
        self, specs: Iterable[tuple[str, str, LinkKind]]
    ) -> list[Link]:
        """Add many links in one batch; all-or-nothing validation.

        Each spec is ``(source, target, kind)``.  Unknown endpoints,
        self-links, and duplicates — against the argument or within the
        payload — fail before anything is inserted.  As with
        :meth:`add_nodes`, the payload is validated exactly once and
        inserted on a straight-line bulk path.
        """
        pending = [
            Link(source, target, kind) for source, target, kind in specs
        ]
        seen: set[Link] = set()
        for link in pending:
            self._validate_link(link)
            if link in seen:
                raise ArgumentError(f"duplicate link {link}")
            seen.add(link)
        with self.batch():
            for link in pending:
                self._insert_link(link)
            if pending:
                self._invalidate()
        return pending

    def supported_by(self, source: str, target: str) -> Link:
        """Shorthand for a SupportedBy connector."""
        return self.add_link(source, target, LinkKind.SUPPORTED_BY)

    def in_context_of(self, source: str, target: str) -> Link:
        """Shorthand for an InContextOf connector."""
        return self.add_link(source, target, LinkKind.IN_CONTEXT_OF)

    def replace_node(self, node: Node) -> None:
        """Swap in a new node object under an existing identifier."""
        old = self._nodes.get(node.identifier)
        if old is None:
            raise ArgumentError(f"unknown node {node.identifier!r}")
        self._nodes[node.identifier] = node
        if old.node_type is not node.node_type:
            del self._by_type[old.node_type][node.identifier]
            # Rebuild the destination bucket so per-type order keeps
            # matching global insertion order (retype is rare; O(V)).
            self._by_type[node.node_type] = {
                identifier: None
                for identifier, existing in self._nodes.items()
                if existing.node_type is node.node_type
            }
        self._record(_REPLACE_NODE, (old, node))
        self._invalidate()

    def remove_link(self, link: Link) -> None:
        """Remove one connector."""
        if link not in self._links:
            raise ArgumentError(f"no such link {link}")
        del self._links[link]
        del self._out[link.source][link]
        del self._in[link.target][link]
        del self._out_kind[link.kind][link.source][link.target]
        del self._in_kind[link.kind][link.target][link.source]
        self._kind_counts[link.kind] -= 1
        self._record(_REMOVE_LINK, link)
        self._invalidate()

    def remove_node(self, identifier: str) -> None:
        """Remove a node and every connector touching it.

        One logical mutation: however many links go with the node, the
        version bumps once (the link removals are still individually
        visible to delta consumers).
        """
        node = self._nodes.get(identifier)
        if node is None:
            raise ArgumentError(f"unknown node {identifier!r}")
        with self.batch():
            for link in (
                list(self._out[identifier]) + list(self._in[identifier])
            ):
                if link in self._links:
                    self.remove_link(link)
            del self._nodes[identifier]
            del self._out[identifier]
            del self._in[identifier]
            del self._by_type[node.node_type][identifier]
            for kind in LinkKind:
                self._out_kind[kind].pop(identifier, None)
                self._in_kind[kind].pop(identifier, None)
            self._record(_REMOVE_NODE, node)
            self._invalidate()

    # -- lookup -----------------------------------------------------------

    def node(self, identifier: str) -> Node:
        """Fetch a node by identifier."""
        try:
            return self._nodes[identifier]
        except KeyError:
            raise ArgumentError(f"unknown node {identifier!r}") from None

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> list[Node]:
        """All nodes, in insertion order."""
        return list(self._nodes.values())

    @property
    def links(self) -> list[Link]:
        """All links, in insertion order."""
        return list(self._links)

    def nodes_of_type(self, node_type: NodeType) -> list[Node]:
        """All nodes of one kind (indexed; insertion order preserved)."""
        return [
            self._nodes[identifier]
            for identifier in self._by_type[node_type]
        ]

    @property
    def goals(self) -> list[Node]:
        return self.nodes_of_type(NodeType.GOAL)

    @property
    def strategies(self) -> list[Node]:
        return self.nodes_of_type(NodeType.STRATEGY)

    @property
    def solutions(self) -> list[Node]:
        return self.nodes_of_type(NodeType.SOLUTION)

    # -- structure ---------------------------------------------------------

    def _out_ids(
        self, identifier: str, kind: LinkKind
    ) -> Iterable[str]:
        """Target identifiers of outgoing links of one kind."""
        return self._out_kind[kind].get(identifier, ())

    def _in_ids(
        self, identifier: str, kind: LinkKind
    ) -> Iterable[str]:
        """Source identifiers of incoming links of one kind."""
        return self._in_kind[kind].get(identifier, ())

    def children(
        self, identifier: str, kind: LinkKind | None = None
    ) -> list[Node]:
        """Targets of outgoing links (optionally of one kind)."""
        if kind is None:
            return [
                self._nodes[link.target]
                for link in self._out.get(identifier, ())
            ]
        return [
            self._nodes[target] for target in self._out_ids(identifier, kind)
        ]

    def parents(
        self, identifier: str, kind: LinkKind | None = None
    ) -> list[Node]:
        """Sources of incoming links (optionally of one kind)."""
        if kind is None:
            return [
                self._nodes[link.source]
                for link in self._in.get(identifier, ())
            ]
        return [
            self._nodes[source] for source in self._in_ids(identifier, kind)
        ]

    def supporters(self, identifier: str) -> list[Node]:
        """Nodes this node cites as support (SupportedBy targets)."""
        return self.children(identifier, LinkKind.SUPPORTED_BY)

    def cites_support(self, identifier: str) -> bool:
        """True when the node sources at least one SupportedBy link.

        O(1) off the per-kind adjacency index — the support-presence bit
        the scoped well-formedness rules read per node.
        """
        return bool(
            self._out_kind[LinkKind.SUPPORTED_BY].get(identifier)
        )

    def has_link(self, link: Link) -> bool:
        """O(1) membership test for an exact link."""
        return link in self._links

    def links_of(self, identifier: str) -> list[Link]:
        """Every link touching this node (outgoing first, then incoming).

        The dependency set a node retype invalidates: used by the
        incremental checker to re-evaluate exactly the affected link
        rules.
        """
        self.node(identifier)
        return list(self._out.get(identifier, ())) + list(
            self._in.get(identifier, ())
        )

    def context_of(self, identifier: str) -> list[Node]:
        """Contextual nodes attached to this node."""
        return self.children(identifier, LinkKind.IN_CONTEXT_OF)

    def roots(self) -> list[Node]:
        """Nodes with no incoming SupportedBy link and claim-like type.

        A well-formed safety argument has exactly one root goal; fragments
        under construction may have several.
        """
        supported = self._in_kind[LinkKind.SUPPORTED_BY]
        return [
            node
            for node in self._nodes.values()
            if node.node_type.is_claim_like
            and not supported.get(node.identifier)
        ]

    def leaves(self) -> list[Node]:
        """Claim-like or strategy nodes with no outgoing SupportedBy link."""
        out = self._out_kind[LinkKind.SUPPORTED_BY]
        return [
            node
            for node in self._nodes.values()
            if node.node_type in (
                NodeType.GOAL, NodeType.STRATEGY, NodeType.AWAY_GOAL
            )
            and not out.get(node.identifier)
        ]

    def walk(
        self, start: str, kind: LinkKind | None = None
    ) -> Iterator[Node]:
        """Depth-first pre-order walk of the support graph from ``start``."""
        seen: set[str] = set()
        stack = [start]
        while stack:
            identifier = stack.pop()
            if identifier in seen:
                continue
            seen.add(identifier)
            node = self.node(identifier)
            yield node
            if kind is None:
                targets = [
                    link.target for link in self._out.get(identifier, ())
                ]
            else:
                targets = list(self._out_ids(identifier, kind))
            stack.extend(reversed(targets))

    def subtree(self, start: str) -> "Argument":
        """A new argument containing everything reachable from ``start``."""
        fragment = Argument(name=f"{self.name}/{start}")
        members = {node.identifier for node in self.walk(start)}
        with fragment.batch():
            for identifier in members:
                fragment.add_node(self._nodes[identifier])
            for link in self._links:
                if link.source in members and link.target in members:
                    fragment.add_link(link.source, link.target, link.kind)
        return fragment

    def ancestors(
        self, identifier: str, kind: LinkKind | None = LinkKind.SUPPORTED_BY
    ) -> set[str]:
        """Every node (including ``identifier``) that can reach this node.

        Reverse reachability over incoming links of the given kind — on an
        acyclic graph this equals the union of all ``paths_to_root`` nodes,
        computed in O(V + E) instead of by path enumeration.
        """
        self.node(identifier)
        seen = {identifier}
        stack = [identifier]
        while stack:
            current = stack.pop()
            if kind is None:
                sources: Iterable[str] = (
                    link.source for link in self._in.get(current, ())
                )
            else:
                sources = self._in_ids(current, kind)
            for source in sources:
                if source not in seen:
                    seen.add(source)
                    stack.append(source)
        return seen

    def find_cycle(self) -> list[str] | None:
        """A SupportedBy cycle as a node-identifier list, or None.

        Cyclic support is the graph form of *begging the question*: a claim
        ultimately cited in its own support.  The returned list
        ``[c0, c1, ..., ck]`` is a **verified closed cycle**: every
        consecutive pair is a SupportedBy link and so is ``ck -> c0``.
        """
        for _, target, path, path_index in iter_supported_by_back_edges(
            self._nodes, self._out_kind[LinkKind.SUPPORTED_BY]
        ):
            # Back edge to a DFS-stack ancestor: the slice of the current
            # path from the ancestor down to here is a closed SupportedBy
            # cycle by construction.
            return path[path_index[target]:]
        return None

    def iter_paths_to_root(self, identifier: str) -> Iterator[list[str]]:
        """Lazily yield SupportedBy paths from a node up to any root.

        Explicit-stack DFS over incoming SupportedBy links; each yielded
        path runs leaf-first (``[identifier, ..., root]``).  Memory is
        O(longest path); the number of paths can still be exponential on
        dense DAGs, which is why :meth:`paths_to_root` takes ``max_paths``.
        """
        # Validate eagerly, at the call site — not on first next().
        self.node(identifier)
        return self._iter_paths_to_root(identifier)

    def _iter_paths_to_root(self, identifier: str) -> Iterator[list[str]]:
        sup_in = self._in_kind[LinkKind.SUPPORTED_BY]
        first = sup_in.get(identifier, ())
        if not first:
            yield [identifier]
            return
        trail = [identifier]
        on_trail = {identifier}
        stack: list[Iterator[str]] = [iter(first)]
        while stack:
            pushed = False
            for source in stack[-1]:
                if source in on_trail:
                    continue  # defensive: cyclic arguments
                parents = sup_in.get(source, ())
                if not parents:
                    yield [*trail, source]
                    continue
                trail.append(source)
                on_trail.add(source)
                stack.append(iter(parents))
                pushed = True
                break
            if not pushed:
                stack.pop()
                on_trail.discard(trail.pop())

    def paths_to_root(
        self, identifier: str, max_paths: int | None = None
    ) -> list[list[str]]:
        """All SupportedBy paths from a node up to any root.

        This is the traversal an assessor performs when judging evidence
        sufficiency with a graphical notation (§VI.E): from an item of
        evidence, trace every chain of claims it ultimately supports.

        ``max_paths`` bounds the enumeration: dense DAGs have exponentially
        many root paths, and a capped prefix degrades gracefully where the
        seed implementation simply hung.  Use :meth:`count_paths_to_root`
        when only the number of paths matters, or :meth:`ancestors` when
        only the set of nodes on the paths matters.
        """
        paths: list[list[str]] = []
        for path in self.iter_paths_to_root(identifier):
            if max_paths is not None and len(paths) >= max_paths:
                break
            paths.append(path)
        return paths

    def count_paths_to_root(self, identifier: str) -> int:
        """Number of SupportedBy paths from this node up to any root.

        Always agrees with ``len(paths_to_root(identifier))``.  On
        acyclic ancestor graphs — the only kind well-formedness accepts —
        this is memoised dynamic programming, O(V + E) where enumerating
        the paths themselves is exponential.  When a cycle is reachable
        the memoisation would be unsound (a count frozen under one DFS
        context is wrong in another), so it falls back to the lazy
        enumeration, which defines the semantics.
        """
        self.node(identifier)
        sup_in = self._in_kind[LinkKind.SUPPORTED_BY]
        memo: dict[str, int] = {}
        on_path: set[str] = {identifier}
        cyclic = False
        # Frames: [node, parent-iterator, accumulated count].
        frames: list[list[Any]] = [
            [identifier, iter(sup_in.get(identifier, ())), 0]
        ]
        while frames:
            frame = frames[-1]
            current, parents, _ = frame
            advanced = False
            for source in parents:
                cached = memo.get(source)
                if cached is not None:
                    frame[2] += cached
                    continue
                if source in on_path:
                    cyclic = True  # back edge: the DP would be unsound
                    continue
                on_path.add(source)
                frames.append([source, iter(sup_in.get(source, ())), 0])
                advanced = True
                break
            if not advanced:
                total = frame[2] if sup_in.get(current) else 1
                memo[current] = total
                frames.pop()
                on_path.discard(current)
                if frames:
                    frames[-1][2] += total
        if cyclic:
            return sum(1 for _ in self.iter_paths_to_root(identifier))
        return memo[identifier]

    def depth(self) -> int:
        """Longest SupportedBy path length from any root, in nodes.

        Memoised per node (the seed re-visited shared subdags once per
        path — exponential on diamond-heavy DAGs) and cached per argument
        version, so repeated calls between mutations are O(1).
        """
        return self.cached("depth", self._compute_depth)

    def _compute_depth(self) -> int:
        roots = self.roots()
        if not roots:
            return 0
        sup = self._out_kind[LinkKind.SUPPORTED_BY]
        # Fast path: assume the graph is acyclic (the only shape
        # well-formedness accepts) and run one memoised DFS.  If a grey
        # (on-path) node turns up mid-walk the memoisation would be
        # unsound — a memo entry frozen under one DFS context must not
        # be reused from another where a longer route is legal — so only
        # then pay for a second pass: strip the back edges (leaving a
        # true DAG) and redo.  The cyclic value is the deterministic
        # longest path ignoring cycle-closing edges.
        memo: dict[str, int] = {}
        if not self._longest_paths(roots, sup, None, memo):
            back = {
                (source, target)
                for source, target, _, _ in
                iter_supported_by_back_edges(self._nodes, sup)
            }
            memo = {}
            self._longest_paths(roots, sup, back, memo)
        return max(memo[root.identifier] for root in roots)

    def _longest_paths(
        self,
        roots: list[Node],
        sup: dict[str, dict[str, None]],
        back: set[tuple[str, str]] | None,
        memo: dict[str, int],
    ) -> bool:
        """Fill ``memo`` with longest-path depths for every root.

        With ``back=None`` the graph is assumed acyclic and the walk
        aborts (returns False, ``memo`` unusable) on the first on-path
        revisit; with a back-edge set those edges are skipped and the
        walk always succeeds.
        """
        for root in roots:
            start = root.identifier
            if start in memo:
                continue
            on_path = {start}
            # Frames: [node, child-iterator, best child depth so far].
            frames: list[list[Any]] = [
                [start, iter(sup.get(start, ())), 0]
            ]
            while frames:
                frame = frames[-1]
                current, targets, _ = frame
                advanced = False
                for target in targets:
                    if back is not None and (current, target) in back:
                        continue  # cycle edge
                    cached = memo.get(target)
                    if cached is not None:
                        if cached > frame[2]:
                            frame[2] = cached
                        continue
                    if target in on_path:
                        return False  # cycle: memo would be unsound
                    on_path.add(target)
                    frames.append([target, iter(sup.get(target, ())), 0])
                    advanced = True
                    break
                if not advanced:
                    value = 1 + frame[2]
                    memo[current] = value
                    frames.pop()
                    on_path.discard(current)
                    if frames and value > frames[-1][2]:
                        frames[-1][2] = value
        return True

    def statistics(self) -> dict[str, int]:
        """Node/link counts by kind plus depth — used by the benchmarks.

        Counts read straight from the maintained indices; only ``depth``
        does any traversal, and that is cached per argument version.
        """
        stats: dict[str, int] = {
            f"{node_type.value}_count": len(self._by_type[node_type])
            for node_type in NodeType
        }
        stats["node_count"] = len(self._nodes)
        stats["link_count"] = len(self._links)
        stats["supported_by_count"] = self._kind_counts[
            LinkKind.SUPPORTED_BY
        ]
        stats["in_context_of_count"] = self._kind_counts[
            LinkKind.IN_CONTEXT_OF
        ]
        stats["depth"] = self.depth()
        return stats

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Argument):
            return NotImplemented
        return (
            set(self._nodes.values()) == set(other._nodes.values())
            and set(self._links) == set(other._links)
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable; not hashed
        raise TypeError("Argument is mutable and unhashable")

    def copy(self, name: str | None = None) -> "Argument":
        """A structural copy (node objects are shared; they are frozen).

        The copy starts with its own version counter, mutation log, and
        derived-structure slot — mutating it never dirties the
        original's caches or indices, and vice versa.
        """
        duplicate = Argument(name=name or self.name)
        with duplicate.batch():
            for node in self._nodes.values():
                duplicate.add_node(node)
            for link in self._links:
                duplicate.add_link(link.source, link.target, link.kind)
        return duplicate

    # -- persistence --------------------------------------------------------

    def save(
        self,
        directory: Any,
        *,
        shard_count: int | None = None,
        compression: str | None = None,
        journal: bool = False,
        force: bool = False,
        search_index: bool | None = None,
    ) -> Any:
        """Write this argument to a sharded store directory.

        Streams nodes and links record-by-record into id-hash shards
        with a checksummed manifest (see :mod:`repro.store`); returns
        the manifest.  ``compression="gzip"`` gzips the shards
        (transparent on read).  Reload with :meth:`load`, or open lazily
        with :class:`repro.store.StoredArgument` for partial hydration.
        ``search_index=True`` seals the token/trigram search sidecar
        (:mod:`repro.store.search`) into the same commit; the default
        (``None``) keeps whatever the store already has — a journal
        fallback rewrite of an indexed store stays indexed, like
        ``shard_count``/``compression``.

        ``journal=True`` makes an editing session cheap: when the store
        already holds a state this argument was saved to (or loaded
        from), only the mutations since — the persisted delta — are
        appended to the store's journal, O(delta) writes instead of an
        O(store) rewrite.  Whenever no safe delta exists (first save, a
        rotated mutation log, or a journal recovered from a torn tail),
        it falls back to the full rewrite transparently — inheriting the
        existing store's ``shard_count``/``compression`` unless
        overridden here, so a session never silently converts the
        on-disk format; either way the on-disk state equals this
        argument afterwards.  One loud exception: if the directory holds
        a *case* store, the fallback raises instead of rewriting — an
        argument-only rewrite would destroy the case's evidence and
        citations (appends are fine: they preserve them).

        **Concurrency.**  A journalled save holds the store's writer
        lease across its conflict check *and* whichever commit it
        decides on, so two processes cannot interleave their
        check-then-write windows.  When the store on disk has moved past
        the generation this argument last saw — another writer
        committed — the save raises
        :class:`~repro.store.StoreConflictError` instead of silently
        rewriting over the other writer's work (the historical lost
        update); reload, reconcile, and retry.  ``force=True`` is the
        explicit escape hatch: it rewrites the store to exactly this
        argument's state regardless of what landed in between.
        """
        from ..store import save_argument  # local: store imports this module

        if journal:
            from ..store.lease import writer_lease

            # One lease spans the append attempt, the conflict check,
            # and the fallback rewrite: the decision "no other writer
            # intervened" stays true through the commit it justifies.
            with writer_lease(self._store_key(directory)):
                manifest = self._append_journal(
                    directory, shard_count=shard_count,
                    compression=compression, force=force,
                )
                if manifest is not None:
                    return manifest
                existing = self._existing_manifest(directory)
                if existing is not None:
                    if existing.get("kind") == "case":
                        from ..store import StoreError

                        raise StoreError(
                            f"store at {directory} holds a case; "
                            "rewriting it as a bare argument would drop "
                            "its evidence and citations — save through "
                            "the AssuranceCase instead (journal appends "
                            "had been preserving them)"
                        )
                    if shard_count is None and isinstance(
                        existing.get("shard_count"), int
                    ):
                        shard_count = existing["shard_count"]
                    if compression is None:
                        compression = existing.get("compression")
                    if search_index is None:
                        search_index = isinstance(
                            existing.get("search_index"), str
                        )
                manifest = save_argument(
                    self, directory, shard_count=shard_count,
                    compression=compression,
                    search_index=bool(search_index),
                )
                self.mark_persisted(directory)
                return manifest
        manifest = save_argument(
            self, directory, shard_count=shard_count,
            compression=compression, search_index=bool(search_index),
        )
        self.mark_persisted(directory)
        return manifest

    def _existing_manifest(self, directory: Any) -> Any:
        """The manifest already in ``directory``, or ``None``.

        Tolerant: an absent or unreadable manifest simply means the
        fallback rewrite proceeds with the caller's (or default)
        settings, replacing whatever is there.
        """
        import json
        import os

        from ..store.format import MANIFEST_NAME  # local: import cycle

        path = os.path.join(self._store_key(directory), MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def _append_journal(
        self,
        directory: Any,
        *,
        shard_count: int | None = None,
        compression: str | None = None,
        force: bool = False,
    ) -> Any:
        """Append the persisted delta to the store's journal, if safe.

        Returns the committed manifest, or ``None`` when the caller must
        fall back to a full rewrite.  Safety checks: a baseline delta
        must exist, the store must be openable, and an explicitly
        requested ``shard_count``/``compression`` must match the store's
        (a format change needs the rewrite to take effect).

        The manifest on disk must further be byte-identical to the one
        this argument last saved or loaded — any edit by another handle
        (even a count-neutral one) means our delta would append onto
        state we never saw.  That divergence is a *conflict*, not a
        fallback: it raises :class:`StoreConflictError` so the caller's
        work and the other writer's both survive.  ``force=True``
        downgrades it to ``None`` (the caller's rewrite overwrites
        deliberately).  Runs under the caller's writer lease.
        """
        from ..store import StoreConflictError, StoreError, StoredArgument

        delta = self.persisted_delta(directory)
        if delta is None:
            return None
        _, fingerprint = self._persisted[self._store_key(directory)]
        if fingerprint is None:
            return None
        try:
            stored = StoredArgument(directory)
        except StoreError:
            return None  # store vanished or unreadable: rewrite repairs
        if shard_count is not None and shard_count != stored.shard_count:
            return None
        if compression is not None and compression != stored.compression:
            return None
        # The fingerprint pins the exact store generation; the tail
        # segment's integrity is verified inside append_delta (a torn
        # tail raises StoreError and falls through to the repairing
        # rewrite), so the common path never re-parses the journal.
        if stored.manifest_fingerprint != fingerprint:
            if force:
                return None
            raise StoreConflictError(
                f"store at {directory} changed since this argument last "
                "saw it (manifest fingerprint "
                f"{stored.manifest_fingerprint:08x} != recorded "
                f"{fingerprint:08x}): appending or rewriting would lose "
                "another writer's committed work — reload and reconcile, "
                "or save(..., force=True) to overwrite deliberately"
            )
        try:
            manifest = stored.append_delta(delta)
        except StoreConflictError:
            raise  # never downgrade a conflict to a silent rewrite
        except StoreError:
            return None
        self.mark_persisted(directory)
        return manifest

    @classmethod
    def load(
        cls, directory: Any, *, ignore_torn_tail: bool = False
    ) -> "Argument":
        """Fully hydrate an argument from a store directory.

        The load replays through the batch-mutation layer: one version
        bump for the whole hydration, insertion order exactly as saved
        (journal included).  Called on a subclass, returns an instance
        of that subclass.  ``ignore_torn_tail=True`` recovers from a
        torn final journal segment — a crash mid-append — by dropping
        exactly that segment (see :mod:`repro.store.journal`).
        """
        from ..store import load_argument  # local: store imports this module

        return load_argument(
            directory, into=cls, ignore_torn_tail=ignore_torn_tail
        )

    def __str__(self) -> str:
        lines = [f"Argument {self.name!r}:"]
        lines.extend(f"  {node}" for node in self._nodes.values())
        lines.extend(f"  {link}" for link in self._links)
        return "\n".join(lines)
