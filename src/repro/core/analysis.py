"""Scoped streaming rule analysis over arguments and stored arguments.

Every well-formedness rule is a **scoped rule**: it declares how much of
the graph it needs, and one engine runs a rule set over a live
:class:`~repro.core.argument.Argument` or a persisted
:class:`~repro.store.StoredArgument` in several modes with identical
output.  A stored case is never hydrated to be checked.

The scoped-rule contract
========================

A :class:`ScopedRule` declares *how much of the graph it needs* via its
:class:`Scope`:

``Scope.NODE`` (:func:`per_node`)
    ``fn(node, ctx) -> list[Violation]``.  The rule sees one
    :class:`~repro.core.nodes.Node` at a time.  Beyond the node itself it
    may ask the context only :meth:`RuleContext.cites_support` *about
    that node* — whether the node is the source of at least one
    SupportedBy link.  It must not reach for other nodes or links.

``Scope.LINK`` (:func:`per_link`)
    ``fn(link, ctx) -> list[Violation]``.  The rule sees one
    :class:`~repro.core.argument.Link` and may ask the context only
    :meth:`RuleContext.node_type` *of the link's own endpoints*.

``Scope.GLOBAL`` (:func:`global_rule`)
    ``fn(ctx) -> list[Violation]``.  The rule needs whole-graph services:
    :meth:`RuleContext.roots`, :meth:`RuleContext.find_cycle` and the
    support-reachability probes, all answered from aggregates.

The locality restrictions are what buy the execution modes: because a
node rule touches one node plus one bit of context and a link rule
touches one link plus two node types, any partition of the node and link
streams evaluates independently.

Rule contexts
=============

Two classes answer the :class:`RuleContext` questions.  A live argument
is asked through :class:`_LiveContext`, a thin adapter over the
argument's own maintained indices.  Everything built from store records
uses the one :class:`_Sidecar`: node types, seq order, SupportedBy
counts and SupportedBy adjacency.  The one shard scan
(:func:`_scan_shard`) fills it with :meth:`_Sidecar.note_link` /
:meth:`_Sidecar.note_node`, the parallel build merges worker columns
into it through the same two calls, and the store-backed incremental
checker patches it with :meth:`_Sidecar.apply_op`.  One structure
means every stored mode answers every question from the same
aggregates.  Beyond the sidecar, that checker asks the store handle
itself: single nodes, and the links touching a node a batch retypes
(:meth:`~repro.store.StoredArgument.links_of`).  It keeps no link
index.

Execution modes
===============

:data:`CHECK_MODES` lists every mode and :func:`resolve_mode` maps a
requested mode onto the engine that runs it; the checking facade
(:mod:`repro.checking`) and the HTTP service both defer to them.

``auto``
    ``streaming`` for a stored argument, ``serial`` for a live one.

``serial`` / ``streaming``
    Synonyms: one process, no hydration.  A live argument is evaluated
    against its own indices.  A stored argument builds a store-backed
    :class:`IncrementalChecker` and assembles its report once, at the
    generation the handle holds: one pass over the shards in shard
    order, each link shard (support aggregates, links buffered) before
    its node shard (types, seq order, node rules as records parse),
    then link rules over the buffer and the global rules.  Every shard
    parses exactly once per handle, into the handle's per-shard caches
    that later point reads on it reuse.

``parallel``
    Stored arguments only; a live argument resolves to ``serial``
    (shipping slices of an in-memory argument to processes cost more
    than the rules).  The same store-backed checker build as
    ``streaming``, whose shard scans run in a warm pool of
    ``concurrent.futures`` worker processes, one task per shard.  The
    parent pins its handle's :class:`~repro.store.StoreGeneration` and
    every worker reopens the store *at that generation* (journal
    segments appended mid-check are rewound away; a base rotated by a
    compaction raises ``StoreConflictError`` naming both generations).
    A task runs :func:`_scan_shard` on its shard and ships the node-rule
    hit maps and flat node and link columns back.  The parent parses
    nothing: it merges each fragment into the checker it is building
    (sidecar, hit maps, link buffer) in completion order, then runs the
    streaming tail — link rules over the buffer, global rules, report
    assembly.  A worker exception cancels every not-yet-started task
    and re-raises with the failing shard noted.  Worker start method:
    ``fork`` only while the parent runs no thread but the pool's own,
    otherwise ``forkserver``/``spawn``; ``REPRO_MP_START`` overrides
    the choice.  With fewer than two requested workers it degrades to
    ``streaming``; otherwise the pool holds the request capped at the
    shard count and the CPU count, but at least two workers.

``incremental`` (:class:`IncrementalChecker`)
    A stateful checker over either kind of subject.  Per-rule violation
    maps are cached keyed by subject (node identifier or link) and
    invalidated by the mutation records since the last check: the
    argument's delta log for a live subject, the store's append journal
    for a stored one (no hydration — single nodes come from lazy
    per-shard lookups).  Only touched subjects re-evaluate, plus the
    global rules.  A rotated delta log forces one full rebuild.  For a
    stored subject the handle's
    :meth:`~repro.store.StoredArgument.ops_since` decides, the rule the
    search postings follow too: a compacted or rewritten store forces
    one rebuild, and a coalesced journal (same ops) does not.  A
    store-backed checker can also be advanced to a given pinned
    snapshot, which is how the HTTP service keeps one per store.

All modes produce the same violation list: rules in rule-set order, and
within one rule the violations in canonical ``(subject, detail)`` order —
so results are directly comparable across modes, processes, and storage.

The rule-authoring contract (statically enforced)
=================================================

Everything above holds **only if rules keep their scope promises** — the
serial/streaming/parallel/incremental equivalence is a theorem about
rules that read nothing beyond their declared context slice.  The
contract a rule author signs, and that the rule-scope auditor
(:mod:`repro.analysis_static`) verifies from the rule's AST:

*What a scoped rule may read.*  A rule may read **its subject** (the
one node or link it was handed — any attribute) and **its context
surface** — exactly the :class:`RuleContext` attributes
:data:`SCOPE_SURFACE` lists for its scope:

========  ==========================================================
scope     ``RuleContext`` surface
========  ==========================================================
node      ``name``, ``cites_support`` (about the subject node only)
link      ``name``, ``node_type`` (of the link's own endpoints only)
global    ``name``, ``node_type``, ``cites_support``, ``roots``,
          ``find_cycle``, ``has_support``, ``supported_walk``
========  ==========================================================

Both contexts answer everything on that table without hydrating a
stored case.  The shared module-level helpers
:func:`iter_subject_nodes` / :func:`iter_subject_links` are likewise
stream-safe for whole-argument scans outside the engine.

*What a scoped rule may not do.*  Rules are pure functions of
``(subject, permitted context)``:

* **no undeclared context access** — asking the context anything
  outside the scope's surface breaks partitioning (a parallel worker's
  sidecar holds only its own shard's aggregates);
* **no mutation** — assigning to, deleting from, or calling mutators on
  the subject or the context corrupts the shared sidecar other rules
  read;
* **no nondeterminism** — ``time``/``random``/``id()`` reads or
  iteration over sets feeding the violation output make the modes
  (and journal replays) disagree.

*How to interpret auditor findings.*  The auditor emits structured
findings (``kind``, ``severity``, rule name, ``file:line``):
``undeclared-context-access``, ``mutation``, ``hydration-forcing`` and
``nondeterminism`` are errors; ``unreadable-source`` is a warning (the
auditor could not obtain the callable's AST — C functions, interactively
defined rules).  ``RuleSet.audit()`` runs the auditor over a whole rule
set, and :mod:`repro.analysis_static.gate` re-audits everything the repo
ships at import time.

*Formal obligations.*  A rule may carry **formal proof work** — the
claim language (:mod:`repro.claims`) binds evidence nodes to SAT /
propositional-entailment / finite-domain-FOL / LTL problems — but only
inside the contract: obligations ride on the subject node's
``metadata`` (under :data:`repro.claims.obligations.OBLIGATION_KEY`),
so the shipped discharge rule is an ordinary **per-node** rule reading
nothing but its subject.  Discharge must be a *pure, total,
deterministic* function of the spec text: a malformed spec becomes a
deterministic violation, never an exception, and proof results may be
cached only under a content fingerprint of the spec (sha256 — never
:func:`hash`, which varies per process) so that parallel workers,
journal replays, and fresh processes agree byte-for-byte.  Under those
terms every execution mode discharges identically, and the incremental
checker's touched-node refresh re-proves exactly the obligations an
edit reached.

This module is also the home of the shared storage duck-typing helpers
(:func:`is_stored_argument`, :func:`ensure_argument`,
:func:`iter_subject_nodes`, :func:`iter_subject_links`).  They stay
duck-typed so this module never imports :mod:`repro.store` (which
imports it transitively).
"""

from __future__ import annotations

import enum
import os
import threading
from bisect import bisect_left, insort
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from .argument import (
    Argument,
    Link,
    LinkKind,
    iter_supported_by_back_edges,
)
from .nodes import Node, NodeType

__all__ = [
    "Violation",
    "Scope",
    "ScopedRule",
    "SCOPE_SURFACE",
    "CHECK_MODES",
    "worker_cap",
    "per_node",
    "per_link",
    "global_rule",
    "RuleContext",
    "resolve_mode",
    "run_rules",
    "IncrementalChecker",
    "is_stored_argument",
    "ensure_argument",
    "iter_subject_nodes",
    "iter_subject_links",
]


@dataclass(frozen=True)
class Violation:
    """One rule violation found in an argument."""

    rule: str
    subject: str  # node identifier or link rendering
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.detail}"


class Scope(enum.Enum):
    """How much of the graph a rule needs (see the module docstring)."""

    NODE = "node"
    LINK = "link"
    GLOBAL = "global"


#: The stream-safe :class:`RuleContext` surface per scope — the
#: rule-authoring contract's single source of truth, shared between this
#: module's documentation and the static rule-scope auditor
#: (:mod:`repro.analysis_static.auditor`).  Every attribute listed here
#: is answered from sidecar aggregates without hydrating a stored case.
SCOPE_SURFACE: "dict[Scope, frozenset[str]]" = {
    Scope.NODE: frozenset({"name", "cites_support"}),
    Scope.LINK: frozenset({"name", "node_type"}),
    Scope.GLOBAL: frozenset({
        "name", "node_type", "cites_support", "roots", "find_cycle",
        "has_support", "supported_walk",
    }),
}


@dataclass(frozen=True)
class ScopedRule:
    """A named well-formedness rule with a declared evaluation scope.

    ``fn`` takes ``(node, ctx)``, ``(link, ctx)``, or ``(ctx)`` depending
    on ``scope`` and returns a list of :class:`Violation`.  For parallel
    execution node rules must be module-level functions (worker
    processes import them by qualified name); link and global rules
    always run in the parent process, so closures are fine there.

    ``node_types`` (node rules) and ``link_kind`` (link rules) are
    optional *dispatch filters*: the engine only invokes ``fn`` for
    subjects matching them, which on a 100k-element stream saves tens of
    thousands of no-op calls.  A filter is a promise, not a check — it
    must be consistent with ``fn`` (the rule can only ever fire on
    matching subjects); ``fn`` should still guard itself so direct calls
    stay correct.

    ``delta_fn`` (global rules only) is the optional *incremental hook*:
    ``delta_fn(ctx, records, previous)`` receives the mutation records
    since the last check and the rule's previous violations, and returns
    the new violations — or ``None`` to decline, in which case the
    checker falls back to the full ``fn``.  It must return exactly what
    ``fn`` would.  ``ctx`` already reflects the whole batch, so a node a
    record names may be gone, removed by a later record; the hook must
    not raise for it.  Both shipped global rules, ``single-root`` and
    ``acyclic``, have hooks.
    """

    name: str
    description: str
    scope: Scope
    fn: Callable[..., "list[Violation]"]
    node_types: "frozenset[NodeType] | None" = None
    link_kind: "LinkKind | None" = None
    delta_fn: "Callable[..., list[Violation] | None] | None" = None


def per_node(
    name: str,
    description: str,
    fn: Callable[..., "list[Violation]"],
    *,
    node_types: "Iterable[NodeType] | None" = None,
) -> ScopedRule:
    """A rule evaluated once per node (see the scoped-rule contract)."""
    return ScopedRule(
        name, description, Scope.NODE, fn,
        node_types=None if node_types is None else frozenset(node_types),
    )


def per_link(
    name: str,
    description: str,
    fn: Callable[..., "list[Violation]"],
    *,
    kind: "LinkKind | None" = None,
) -> ScopedRule:
    """A rule evaluated once per link (see the scoped-rule contract)."""
    return ScopedRule(
        name, description, Scope.LINK, fn, link_kind=kind,
    )


def global_rule(
    name: str,
    description: str,
    fn: Callable[..., "list[Violation]"],
    *,
    delta_fn: "Callable[..., list[Violation] | None] | None" = None,
) -> ScopedRule:
    """A rule needing whole-graph services (roots, cycles, reachability)."""
    return ScopedRule(name, description, Scope.GLOBAL, fn, delta_fn=delta_fn)


# -- shared storage duck-typing helpers ------------------------------------


def is_stored_argument(subject: Any) -> bool:
    """True for duck-typed ``StoredArgument`` handles.

    Probes the store-specific streaming surface (``iter_nodes`` +
    ``iter_links`` + ``load``), not just a generic ``load`` attribute:
    ``AssuranceCase`` and arbitrary objects also have ``load`` methods
    and must *not* be mis-dispatched.
    """
    return (
        not isinstance(subject, Argument)
        and hasattr(subject, "iter_nodes")
        and hasattr(subject, "iter_links")
        and hasattr(subject, "load")
    )


def ensure_argument(subject: Any) -> Argument:
    """A live in-memory argument — the hydration *fallback*.

    Live arguments pass through; stored arguments hydrate via their
    shard-streaming ``load()``.  Anything else gets a clear TypeError.
    """
    if isinstance(subject, Argument):
        return subject
    if is_stored_argument(subject):
        return subject.load()
    raise TypeError(
        "expected an Argument or a StoredArgument, got "
        f"{type(subject).__name__}"
    )


def iter_subject_nodes(subject: Any) -> Iterator[Node]:
    """Stream nodes from a live or stored argument, insertion-ordered."""
    if isinstance(subject, Argument):
        return iter(subject.nodes)
    if is_stored_argument(subject):
        return subject.iter_nodes()
    raise TypeError(
        "expected an Argument or a StoredArgument, got "
        f"{type(subject).__name__}"
    )


def iter_subject_links(subject: Any) -> Iterator[Link]:
    """Stream links from a live or stored argument, insertion-ordered."""
    if isinstance(subject, Argument):
        return iter(subject.links)
    if is_stored_argument(subject):
        return subject.iter_links()
    raise TypeError(
        "expected an Argument or a StoredArgument, got "
        f"{type(subject).__name__}"
    )


# -- rule contexts ----------------------------------------------------------


class RuleContext:
    """What a scoped rule may ask about the graph around its subject.

    Backed two ways: a live argument's indices (:class:`_LiveContext`)
    or the sidecar built from store records (:class:`_Sidecar`).
    """

    name: str = "argument"

    def node_type(self, identifier: str) -> NodeType:
        """The type of a node — for link rules, the link's endpoints."""
        raise NotImplementedError

    def cites_support(self, identifier: str) -> bool:
        """Does the node source at least one SupportedBy link?"""
        raise NotImplementedError

    def roots(self) -> list[str]:
        """Claim-like nodes with no incoming support (global rules only)."""
        raise NotImplementedError

    def find_cycle(self) -> "list[str] | None":
        """A SupportedBy cycle, if any (global rules only)."""
        raise NotImplementedError

    def has_support(self, source: str, target: str) -> bool:
        """Is there a SupportedBy link ``source -> target``?  (Global
        rules and their delta hooks only.)"""
        raise NotImplementedError

    def supported_walk(self, start: str) -> Iterator[str]:
        """Identifiers reachable from ``start`` over SupportedBy links,
        ``start`` included (global delta hooks only)."""
        raise NotImplementedError


def _adjacency_walk(
    adjacency: "dict[str, Any]", start: str
) -> Iterator[str]:
    """Reachability over a SupportedBy adjacency map, ``start`` included."""
    seen = {start}
    stack = [start]
    while stack:
        identifier = stack.pop()
        yield identifier
        for target in adjacency.get(identifier, ()):
            if target not in seen:
                seen.add(target)
                stack.append(target)


class _LiveContext(RuleContext):
    """Context over a live argument: O(1) reads off maintained indices."""

    __slots__ = ("_argument",)

    def __init__(self, argument: Argument) -> None:
        self._argument = argument

    @property
    def name(self) -> str:
        return self._argument.name

    def node_type(self, identifier: str) -> NodeType:
        return self._argument.node(identifier).node_type

    def cites_support(self, identifier: str) -> bool:
        return self._argument.cites_support(identifier)

    def roots(self) -> list[str]:
        return [node.identifier for node in self._argument.roots()]

    def find_cycle(self) -> "list[str] | None":
        return self._argument.find_cycle()

    def has_support(self, source: str, target: str) -> bool:
        return self._argument.has_link(
            Link(source, target, LinkKind.SUPPORTED_BY)
        )

    def supported_walk(self, start: str) -> Iterator[str]:
        return (
            node.identifier
            for node in self._argument.walk(start, LinkKind.SUPPORTED_BY)
        )


class _Sidecar(RuleContext):
    """The rule context every stored mode builds from store records.

    Holds node types, seq order, per-node SupportedBy counts (counts,
    not bits — removing one of two support links must not clear the
    flag) and the SupportedBy adjacency the global rules walk.  Node
    texts, metadata and the non-support links are never retained.

    Nodes register with their global sequence number, so :meth:`roots`
    and :meth:`find_cycle` see exact insertion order though the shard
    scan meets nodes in shard order (and the parallel merge in
    completion order); :meth:`finalise` sorts them once the scan is
    done.  After that, :meth:`apply_op` patches the sidecar one journal
    record at a time.
    """

    __slots__ = (
        "name", "types", "order", "out_support", "in_support",
        "adjacency", "_pending",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.types: dict[str, NodeType] = {}
        self.order: dict[str, None] = {}
        self.out_support: dict[str, int] = {}
        self.in_support: dict[str, int] = {}
        self.adjacency: dict[str, dict[str, None]] = {}
        self._pending: list[tuple[int, str]] = []

    def note_link(self, link: Link) -> None:
        if link.kind is LinkKind.SUPPORTED_BY:
            source, target = link.source, link.target
            self.out_support[source] = self.out_support.get(source, 0) + 1
            self.in_support[target] = self.in_support.get(target, 0) + 1
            self.adjacency.setdefault(source, {})[target] = None

    def note_node(
        self, seq: int, identifier: str, node_type: NodeType
    ) -> None:
        self.types[identifier] = node_type
        self._pending.append((seq, identifier))

    def finalise(self) -> None:
        """Fix insertion order from the noted seqs (call once per scan)."""
        self._pending.sort()
        self.order = dict.fromkeys(
            (identifier for _, identifier in self._pending), None
        )
        self._pending = []

    @staticmethod
    def _drop(counter: dict[str, int], key: str) -> None:
        value = counter.get(key, 0) - 1
        if value > 0:
            counter[key] = value
        else:
            counter.pop(key, None)

    def apply_op(self, op: str, payload: Any) -> None:
        """Patch the sidecar with one mutation record (delta order)."""
        if op == "add_node":
            identifier = payload.identifier
            self.types[identifier] = payload.node_type
            # A re-added identifier must order last, like a live
            # argument's insertion-ordered dict.
            self.order.pop(identifier, None)
            self.order[identifier] = None
        elif op == "remove_node":
            # Incident links were removed by earlier records of the
            # same delta (remove_node logs them first).
            self.types.pop(payload.identifier, None)
            self.order.pop(payload.identifier, None)
        elif op == "replace_node":
            _, new = payload
            self.types[new.identifier] = new.node_type
        elif op == "add_link":
            self.note_link(payload)
        elif payload.kind is LinkKind.SUPPORTED_BY:  # remove_link
            self._drop(self.out_support, payload.source)
            self._drop(self.in_support, payload.target)
            targets = self.adjacency.get(payload.source)
            if targets is not None:
                targets.pop(payload.target, None)

    # -- the RuleContext protocol ---------------------------------------

    def node_type(self, identifier: str) -> NodeType:
        return self.types[identifier]

    def cites_support(self, identifier: str) -> bool:
        return identifier in self.out_support

    def roots(self) -> list[str]:
        return [
            identifier
            for identifier in self.order
            if self.types[identifier].is_claim_like
            and identifier not in self.in_support
        ]

    def find_cycle(self) -> "list[str] | None":
        for _, target, path, path_index in iter_supported_by_back_edges(
            self.order, self.adjacency
        ):
            return path[path_index[target]:]
        return None

    def has_support(self, source: str, target: str) -> bool:
        return target in self.adjacency.get(source, ())

    def supported_walk(self, start: str) -> Iterator[str]:
        return _adjacency_walk(self.adjacency, start)


# -- the engine -------------------------------------------------------------


#: Every execution mode, in one place (see the module docstring).
#: :func:`run_rules` runs all but ``incremental``, which needs the
#: stateful :class:`IncrementalChecker`.
CHECK_MODES = ("auto", "serial", "streaming", "parallel", "incremental")


def worker_cap() -> int:
    """The most worker processes a parallel check may start: the CPU
    count, but never fewer than two, so a parallel check stays parallel
    on a one-CPU host."""
    return max(2, os.cpu_count() or 1)


def _effective_workers(
    workers: "int | None", shard_count: "int | None" = None
) -> int:
    """The worker count a check runs with: ``workers`` (default: the
    CPU count), and once that asks for a pool (two or more), the pool
    size, capped at the shard count (one task per shard) and at
    :func:`worker_cap`, never below two.  The one place a pool's size
    is decided, before its key is formed."""
    requested = workers if workers is not None else (os.cpu_count() or 1)
    if requested < 2:
        return requested
    return max(2, min(requested, shard_count or requested, worker_cap()))


def resolve_mode(subject: Any, mode: str, workers: "int | None" = None) -> str:
    """The engine that *mode* runs on *subject*.

    Returns ``serial``, ``streaming``, ``parallel`` or ``incremental``.
    ``auto``, ``serial`` and ``streaming`` pick ``streaming`` for stored
    subjects and ``serial`` for live ones; ``parallel`` stays parallel
    only for a stored subject with at least two effective workers
    (``workers`` defaults to the CPU count).  An unknown mode raises
    ``ValueError``; a subject that is neither kind of argument raises
    ``TypeError``.
    """
    if mode not in CHECK_MODES:
        raise ValueError(
            f"unknown analysis mode {mode!r} (not in {CHECK_MODES})"
        )
    stored = is_stored_argument(subject)
    if not stored and not isinstance(subject, Argument):
        raise TypeError(
            "expected an Argument or a StoredArgument, got "
            f"{type(subject).__name__}"
        )
    if mode == "incremental":
        return mode
    if mode == "parallel" and stored and _effective_workers(workers) >= 2:
        return "parallel"
    return "streaming" if stored else "serial"


_IndexedRules = list[tuple[int, ScopedRule]]


def _split_rules(
    rules: Sequence[ScopedRule],
) -> tuple[_IndexedRules, _IndexedRules, _IndexedRules]:
    node_rules: _IndexedRules = []
    link_rules: _IndexedRules = []
    global_rules: _IndexedRules = []
    for index, rule in enumerate(rules):
        if rule.scope is Scope.NODE:
            node_rules.append((index, rule))
        elif rule.scope is Scope.LINK:
            link_rules.append((index, rule))
        else:
            global_rules.append((index, rule))
    return node_rules, link_rules, global_rules


def _node_dispatch(
    node_rules: _IndexedRules,
) -> "dict[NodeType, _IndexedRules]":
    """Node rules applicable per node type (the dispatch-filter table)."""
    return {
        node_type: [
            (index, rule)
            for index, rule in node_rules
            if rule.node_types is None or node_type in rule.node_types
        ]
        for node_type in NodeType
    }


def _link_dispatch(
    link_rules: _IndexedRules,
) -> "dict[LinkKind, _IndexedRules]":
    """Link rules applicable per link kind (the dispatch-filter table)."""
    return {
        kind: [
            (index, rule)
            for index, rule in link_rules
            if rule.link_kind is None or rule.link_kind is kind
        ]
        for kind in LinkKind
    }


def _violation_key(violation: Violation) -> tuple[str, str]:
    return (violation.subject, violation.detail)


def _assemble(buckets: list[list[Violation]]) -> list[Violation]:
    """Rule-set order outside, canonical (subject, detail) order inside."""
    out: list[Violation] = []
    for bucket in buckets:
        bucket.sort(key=_violation_key)
        out.extend(bucket)
    return out


def run_rules(
    subject: Any,
    rules: Sequence[ScopedRule],
    *,
    mode: str = "auto",
    workers: int | None = None,
) -> list[Violation]:
    """Evaluate scoped rules over a live or stored argument, one shot.

    ``mode`` is any of :data:`CHECK_MODES` except ``incremental``;
    :func:`resolve_mode` picks the engine.  ``parallel`` checks a stored
    subject at the handle's pinned generation with ``workers`` processes
    (default: the CPU count), capped at the shard count and at
    :func:`worker_cap` by :func:`_effective_workers` (``REPRO_MP_START``
    overrides the worker start method).  ``streaming`` and ``parallel``
    both return the report of one store-backed
    :class:`IncrementalChecker` build; only where its shard scans run
    differs.  Every mode returns the
    identical violation list.
    """
    used = resolve_mode(subject, mode, workers)
    if used == "serial":
        return _run_live(subject, tuple(rules))
    if used == "streaming":
        return IncrementalChecker(subject, rules)._report()
    if used == "parallel":
        return IncrementalChecker(
            subject, rules,
            _workers=_effective_workers(workers, subject.shard_count),
        )._report()
    raise ValueError(
        "incremental checking keeps state between checks: use an "
        "IncrementalChecker or repro.check(..., mode='incremental')"
    )


def _run_live(argument: Argument, rules: tuple[ScopedRule, ...]) -> list[Violation]:
    node_rules, link_rules, global_rules = _split_rules(rules)
    ctx = _LiveContext(argument)
    buckets: list[list[Violation]] = [[] for _ in rules]
    if node_rules:
        dispatch = _node_dispatch(node_rules)
        for node in argument.nodes:
            for index, rule in dispatch[node.node_type]:
                found = rule.fn(node, ctx)
                if found:
                    buckets[index].extend(found)
    if link_rules:
        groups = _link_dispatch(link_rules)
        for link in argument.links:
            for index, rule in groups[link.kind]:
                found = rule.fn(link, ctx)
                if found:
                    buckets[index].extend(found)
    for index, rule in global_rules:
        buckets[index].extend(rule.fn(ctx))
    return _assemble(buckets)


def _scan_shard(
    stored: Any,
    index: int,
    ctx: _Sidecar,
    dispatch: "dict[NodeType, _IndexedRules]",
    hits: "list[dict[str, tuple[Violation, ...]]]",
    links: list[Link],
) -> None:
    """Parse shard ``index`` into the sidecar, running node rules.

    The one shard pass, shared by the checker's build and the parallel
    worker: a node's non-empty verdict lands in ``hits[slot]`` under
    its identifier.  The link shard goes first: links shard by *source*
    id with the same hash as nodes, so it carries every support bit
    this shard's node rules may ask about.  Links are also buffered for
    the link rules, which need the endpoint types of other shards.
    """
    for _, link in stored.iter_shard_links(index):
        ctx.note_link(link)
        links.append(link)
    for seq, node in stored.iter_shard_nodes(index):
        identifier = node.identifier
        ctx.note_node(seq, identifier, node.node_type)
        for slot, rule in dispatch[node.node_type]:
            found = rule.fn(node, ctx)
            if found:
                hits[slot][identifier] = tuple(found)


# -- parallel execution (stored arguments) ----------------------------------


def _mp_context() -> Any:
    """Pick the worker-pool start method the parent can afford.

    ``fork`` keeps worker start cheap and inherits ``sys.path`` and
    imports — but forking a multi-threaded parent is undefined
    behaviour (the child may inherit held locks mid-operation), and the
    asyncio service checks stores from executor threads.  So ``fork``
    is used only while the parent runs no thread but the parked pool's
    own (:func:`_foreign_thread_count`); any other live thread switches
    to ``forkserver`` (POSIX) or ``spawn``.  A parked pool therefore
    keeps its key, and the next check reuses it.  Every
    worker task function and every shipped rule callable is
    module-level precisely so the spawn path can import them by
    qualified name.  The ``REPRO_MP_START`` environment variable
    overrides the selection (``fork`` / ``forkserver`` / ``spawn``; CI
    pins it to exercise each path) — an unknown name raises
    ``ValueError`` loudly rather than falling back.
    """
    import multiprocessing

    override = os.environ.get("REPRO_MP_START")
    if override:
        return multiprocessing.get_context(override)
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and _foreign_thread_count() == 1:
        return multiprocessing.get_context("fork")
    for method in ("forkserver", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None  # pragma: no cover - no known platform lands here


def _foreign_thread_count() -> int:
    """Live threads other than the parked pool's own.

    The parked pool's manager and queue-feeder threads do not
    disqualify ``fork``: :func:`_acquire_pool` either reuses that pool,
    which forks nothing, or joins them before a new pool forks.  They
    are known by identity, not by name, because CPython 3.10–3.13 name
    the manager thread ``Thread-N`` like any other thread.
    """
    parked = _IDLE_POOL
    own: "tuple[Any, ...]" = ()
    if parked is not None:
        # Private stdlib attributes, hence the defaults.
        pool = parked[1]
        own = (
            getattr(pool, "_executor_manager_thread", None),
            getattr(getattr(pool, "_call_queue", None), "_thread", None),
        )
    return sum(1 for thread in threading.enumerate() if thread not in own)


#: The one idle worker pool kept warm between parallel checks, keyed
#: by ``(start method, worker count)``.  Spinning a pool up costs more
#: than checking a mid-sized store, so the engine checks a pool *out*
#: for the duration of one run and returns it afterwards — the same
#: worker processes pull shard tasks across however many checks the
#: parent issues.  A run asking for another start method or worker
#: count first shuts the parked pool down and joins it, so varying
#: ``workers`` never accumulates idle processes and a new ``fork``
#: pool never forks beside a live pool thread.  A pool that saw a
#: failure is shut down instead of returned (its queue was cancelled
#: mid-flight).
_IDLE_POOL: "tuple[tuple[str, int], ProcessPoolExecutor] | None" = None
_IDLE_POOL_LOCK = threading.Lock()


def _acquire_pool(
    workers: int,
) -> "tuple[tuple[str, int], ProcessPoolExecutor]":
    global _IDLE_POOL
    context = _mp_context()
    method = context.get_start_method() if context is not None else "default"
    key = (method, workers)
    with _IDLE_POOL_LOCK:
        parked, _IDLE_POOL = _IDLE_POOL, None
    if parked is not None:
        if parked[0] == key:
            return parked
        parked[1].shutdown(wait=True)
    return key, ProcessPoolExecutor(max_workers=workers, mp_context=context)


def _release_pool(key: "tuple[str, int]", pool: ProcessPoolExecutor) -> None:
    global _IDLE_POOL
    with _IDLE_POOL_LOCK:
        spare, _IDLE_POOL = _IDLE_POOL, (key, pool)
    if spare is not None:
        # Parked by a concurrent run.  Idle workers exit; nothing is
        # waited on.
        spare[1].shutdown(wait=False)


def shutdown_parallel_pools() -> None:
    """Shut down the cached idle worker pool and join its workers.

    Joining keeps the interpreter's exit hook from waking a pool whose
    pipes are already closed (tests, service exit).
    """
    global _IDLE_POOL
    with _IDLE_POOL_LOCK:
        spare, _IDLE_POOL = _IDLE_POOL, None
    if spare is not None:
        spare[1].shutdown(wait=True)


def _note_failure(error: BaseException, detail: str) -> None:
    """Attach the failing work unit to the error (``add_note``, 3.11+)."""
    note = getattr(error, "add_note", None)
    if note is not None:
        note(detail)


#: What one shard-scan task returns to the parent: the node-rule hit
#: maps (slot -> identifier -> violations, as :func:`_scan_shard` fills
#: them), the node fragment as ``(seqs, ids, type values)`` columns,
#: and the link shard as ``(sources, targets, kind values)`` columns.
#: Flat str/int columns pickle far cheaper than Node/Link objects (or
#: even per-record tuples).
_ScanResult = tuple[
    "list[dict[str, tuple[Violation, ...]]]",
    "tuple[list[int], list[str], list[Any]]",
    "tuple[list[str], list[str], list[Any]]",
]


#: The worker-process handle cache: one open ``StoredArgument`` keyed
#: by (directory, generation, torn-tail decision).  Pool workers are
#: persistent, so every scan task of a run — and of later runs over
#: the same snapshot — reuses one verified handle instead of re-reading
#: the manifest and re-parsing the journal overlay per task.  A cache
#: hit is a pinned reader that already verified its generation at open
#: time; content-addressed files keep serving it until an explicit gc.
_SCAN_HANDLE: "tuple[tuple[str, str, bool], Any] | None" = None


def _scan_handle(
    directory: str, generation: Any, ignore_torn_tail: bool
) -> Any:
    global _SCAN_HANDLE
    # Runtime import: repro.store imports this module transitively.
    from ..store.reader import StoredArgument

    key = (directory, str(generation), ignore_torn_tail)
    if _SCAN_HANDLE is not None and _SCAN_HANDLE[0] == key:
        return _SCAN_HANDLE[1]
    handle = StoredArgument(
        directory, ignore_torn_tail=ignore_torn_tail, generation=generation
    )
    _SCAN_HANDLE = (key, handle)
    return handle


def _stored_scan_task(
    directory: str,
    index: int,
    node_rules: tuple[ScopedRule, ...],
    generation: Any = None,
    ignore_torn_tail: bool = False,
) -> _ScanResult:
    """One shard's scan — the work-queue unit of the parallel build.

    The worker opens the store **at the parent's pinned generation**
    (opening verifies the token and rewinds any journal segments
    appended mid-check; a rotated base raises ``StoreConflictError``),
    scans shard ``index`` exactly as the checker's build does
    (:func:`_scan_shard`) into a sidecar and hit maps of its own, and
    ships the hit maps as they are, with the fragment as flat columns.
    The parent merges them into the checker it is building, which
    judges every link and global rule.
    """
    stored = _scan_handle(directory, generation, ignore_torn_tail)
    ctx = _Sidecar(stored.name)
    links: list[Link] = []
    hits: list[dict[str, tuple[Violation, ...]]] = [{} for _ in node_rules]
    _scan_shard(
        stored, index, ctx, _node_dispatch(list(enumerate(node_rules))),
        hits, links,
    )
    noted = ctx._pending
    identifiers = [identifier for _, identifier in noted]
    return (
        hits,
        (
            [seq for seq, _ in noted],
            identifiers,
            [ctx.types[identifier].value for identifier in identifiers],
        ),
        (
            [link.source for link in links],
            [link.target for link in links],
            [link.kind.value for link in links],
        ),
    )


def _scan_in_pool(
    stored: Any,
    node_rules: tuple[ScopedRule, ...],
    ctx: _Sidecar,
    hits: "list[dict[str, tuple[Violation, ...]]]",
    links: list[Link],
    workers: int,
) -> None:
    """:func:`_scan_shard` over every shard, run in the warm pool.

    Fills the sidecar, the hit maps (slots in ``node_rules`` order) and
    the link buffer exactly as the serial scan does.  One task per
    shard, pulled from the pool's queue on demand, so a skewed shard
    occupies one worker while the rest keep draining the queue; the
    parent merges each fragment as it arrives and parses nothing.  The
    first worker failure cancels every not-yet-started task and
    re-raises with the failing shard noted on the exception.
    """
    # Runtime import: repro.store imports this module transitively.
    from ..store.format import LINK_KIND_BY_VALUE, NODE_TYPE_BY_VALUE

    directory = str(stored.path)
    # Workers reopen the store themselves at the parent's pinned
    # generation; a torn-tail-recovered parent handle must also hand
    # its recovery decision down or the workers raise.
    torn_tail = bool(getattr(stored, "ignore_torn_tail", False))
    generation = stored.pin()
    pool_key, pool = _acquire_pool(workers)
    try:
        scans: "dict[Future[_ScanResult], int]" = {
            pool.submit(
                _stored_scan_task, directory, index, node_rules,
                generation, torn_tail,
            ): index
            for index in range(stored.shard_count)
        }
        for job in as_completed(scans):
            try:
                shard_hits, node_cols, link_cols = job.result()
            except BaseException as error:
                _note_failure(
                    error,
                    f"parallel check: scan of shard {scans[job]} failed "
                    f"(store {directory})",
                )
                raise
            for slot_hits, part in zip(hits, shard_hits):
                slot_hits.update(part)
            for seq, identifier, type_value in zip(*node_cols):
                ctx.note_node(seq, identifier, NODE_TYPE_BY_VALUE[type_value])
            # Sources are disjoint across link shards (sharded by
            # source id) and columns keep shard seq order, so noting
            # preserves per-source adjacency order.
            for source, target, kind_value in zip(*link_cols):
                link = Link(source, target, LINK_KIND_BY_VALUE[kind_value])
                ctx.note_link(link)
                links.append(link)
    except BaseException:
        # Surface the failure immediately: cancel every queued task and
        # retire this pool instead of running the backlog to completion.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    _release_pool(pool_key, pool)


# -- incremental checking ---------------------------------------------------


class IncrementalChecker:
    """Re-check only what the mutation delta touched, plus global rules.

    ``subject`` is a live :class:`~repro.core.argument.Argument` or a
    stored handle.  The checker holds per-rule violation maps keyed by
    subject (node identifier for node rules, the
    :class:`~repro.core.argument.Link` itself for link rules), storing
    only non-empty entries.  :meth:`check` consumes the mutation records
    since the last check — the argument's delta log, or the records
    appended to the store's journal — and re-evaluates exactly the
    touched subjects:

    * added nodes/links evaluate fresh; removed ones drop their entries;
    * a replaced node re-evaluates its node rules, and — when its *type*
      changed — the link rules of every link touching it;
    * any link mutation re-evaluates the node rules of both endpoints
      (support-dependent rules like ``undeveloped-unmarked`` read them).

    Global rules refresh on every :meth:`check` through their
    incremental hooks; a rule without one, or whose hook declines,
    re-runs in full.  Both shipped global rules have hooks, so an edit
    that can neither move the root list nor close a support cycle is
    checked without walking every node.  A rotated delta log, or a
    compacted or rewritten store, forces a full rebuild, so the result
    always equals a fresh full check.  A stored subject is never
    hydrated: ``stored.hydrated`` stays ``False``.

    The report keeps one bucket per rule in canonical order.  The first
    report after a (re)build sorts them once; from then on every hit-map
    write goes through :meth:`_put`, which moves just the changed
    violations in or out by binary search.  So a one-record edit costs
    O(batch) rule runs plus O(log v) key calls per changed violation,
    and the report itself is a concatenation, however many violations
    stand.

    A store-backed checker asks the handle itself for nodes and keeps
    a journal mark; :meth:`~repro.store.StoredArgument.ops_since`
    decides which ops are new to it or that it must rebuild, so a
    coalesce (same ops, new segment names) costs one comparison of the
    consumed ops, not a rebuild.  It can follow its own handle
    (``check()`` refreshes it, which decodes nothing right after the
    handle's own append) or a chain of pinned snapshots of the store
    (``check(snapshot)`` catches up to exactly that generation), which
    is how the service keeps one checker per store across the snapshots
    its appends swap in.
    """

    _sidecar: _Sidecar

    def __init__(
        self, subject: Any, rules: Iterable[ScopedRule], *, _workers: int = 1
    ) -> None:
        self._rules = tuple(rules)
        self._node_rules, self._link_rules, self._global_rules = \
            _split_rules(self._rules)
        self._node_hits: list[dict[str, tuple[Violation, ...]]] = [
            {} for _ in self._node_rules
        ]
        self._link_hits: list[dict[Link, tuple[Violation, ...]]] = [
            {} for _ in self._link_rules
        ]
        # Global verdicts keyed by slot, so they take the same writes.
        self._global_hits: dict[int, tuple[Violation, ...]] = {}
        # One report bucket per rule, kept sorted as hits change; None
        # until the first report after a (re)build sorts them.
        self._sorted: "list[list[Violation]] | None" = None
        # The engines' dispatch-filter tables, keyed by hit-map slot.
        node_slots = {
            index: slot for slot, (index, _) in enumerate(self._node_rules)
        }
        self._node_dispatch = {
            node_type: [(node_slots[index], rule) for index, rule in rules]
            for node_type, rules in _node_dispatch(self._node_rules).items()
        }
        # Per node type, the node-rule slots that cannot fire for it.
        self._node_idle = {
            node_type: sorted(
                set(range(len(self._node_rules)))
                - {slot for slot, _ in rules}
            )
            for node_type, rules in self._node_dispatch.items()
        }
        link_slots = {
            index: slot for slot, (index, _) in enumerate(self._link_rules)
        }
        self._link_dispatch = {
            kind: [(link_slots[index], rule) for index, rule in rules]
            for kind, rules in _link_dispatch(self._link_rules).items()
        }
        self._argument: "Argument | None" = None
        self._graph: Any = subject
        self._ctx: RuleContext
        if isinstance(subject, Argument):
            self._argument = subject
            self._ctx = _LiveContext(subject)
            self._rebuild(subject)
        elif is_stored_argument(subject):
            self._rebuild_store(subject, _workers)
        else:
            raise TypeError(
                "expected an Argument or a StoredArgument, got "
                f"{type(subject).__name__}"
            )

    @property
    def argument(self) -> "Argument | None":
        """The live argument, or ``None`` for a store-backed checker."""
        return self._argument

    def _clear_hits(self) -> None:
        for node_hits in self._node_hits:
            node_hits.clear()
        for link_hits in self._link_hits:
            link_hits.clear()
        self._global_hits.clear()
        self._sorted = None

    def _rebuild(self, argument: Argument) -> None:
        self._clear_hits()
        for node in argument.nodes:
            self._refresh_node(node)
        for link in argument.links:
            self._refresh_link(link)
        self._refresh_globals()
        self._seq = argument.mutation_seq

    def _rebuild_store(self, stored: Any, workers: int = 1) -> None:
        """One pass over the store: sidecar and violation maps.

        :func:`_scan_shard` reads the shards in shard order into the
        sidecar and the node-rule hit maps, buffering the links; then
        link rules run over the buffer and global rules over the
        completed sidecar.  This is the streaming check, with no
        hydration and no link index, paid at attach and again only when
        the journal no longer continues the checker's mark.  No link
        index follows it either: a retype asks the handle's
        ``links_of``, the only link read a batch needs.  The scan reads
        through the handle's per-shard caches, so later per-node
        lookups decode no base shard again.  Shard order leaves the hit
        maps out of insertion order, which slowed later checks (by 11%)
        only while each walked the node list: since ``single-root`` got
        its hook none does, and edit-recheck ``check_p50_ms`` went
        0.294 -> 0.278 ms when the build moved to shard order.

        With two or more ``workers`` (the ``parallel`` mode) the same
        scans run in the warm pool (:func:`_scan_in_pool`) and the rest
        of the build is unchanged.  The parent then parses no shard and
        no journal segment, so the build records no journal mark: a
        later :meth:`check` rebuilds, serially.
        """
        self._mark: Any = None  # set once the pass completes
        self._graph = stored
        sidecar = self._ctx = self._sidecar = _Sidecar(stored.name)
        self._clear_hits()
        links: list[Link] = []
        if workers >= 2:
            _scan_in_pool(
                stored, tuple(rule for _, rule in self._node_rules),
                sidecar, self._node_hits, links, workers,
            )
        else:
            for index in range(stored.shard_count):
                _scan_shard(
                    stored, index, sidecar, self._node_dispatch,
                    self._node_hits, links,
                )
        try:
            sidecar.finalise()
            link_hits, link_dispatch = self._link_hits, self._link_dispatch
            for link in links:
                for slot, rule in link_dispatch[link.kind]:
                    found = rule.fn(link, sidecar)
                    if found:
                        link_hits[slot][link] = tuple(found)
            self._refresh_globals()
        except KeyError:  # a rule looked up a node no shard holds
            dangling = stored.dangling_link()
            if dangling is None:
                raise
            raise dangling from None
        if workers < 2:
            self._mark = stored.journal_mark()

    def _put(
        self,
        hits: "dict[Any, tuple[Violation, ...]]",
        index: int,
        key: Any,
        found: Iterable[Violation],
    ) -> None:
        """The one write to a hit map: ``key``'s violations of rule
        ``index`` become ``found`` (none drops the entry).

        Once the report buckets are sorted, a changed entry moves its
        old violations out of the rule's bucket and its new ones in by
        binary search, so an edit costs O(log v) key calls per changed
        violation instead of a re-sort of all v.
        """
        old = hits.get(key, ())
        new = tuple(found)
        if old == new:
            return
        if new:
            hits[key] = new
        else:
            del hits[key]
        if self._sorted is None:
            return
        bucket = self._sorted[index]
        for violation in old:
            at = bisect_left(
                bucket, _violation_key(violation), key=_violation_key
            )
            while bucket[at] != violation:
                at += 1
            del bucket[at]
        for violation in new:
            insort(bucket, violation, key=_violation_key)

    def _refresh_node(self, node: Node) -> None:
        identifier = node.identifier
        hits, rules = self._node_hits, self._node_rules
        # Rules that cannot fire for this type lose any entry left from
        # a pre-retype evaluation.
        for slot in self._node_idle[node.node_type]:
            self._put(hits[slot], rules[slot][0], identifier, ())
        for slot, rule in self._node_dispatch[node.node_type]:
            self._put(
                hits[slot], rules[slot][0], identifier,
                rule.fn(node, self._ctx) or (),
            )

    def _refresh_link(self, link: Link) -> None:
        # A link never changes kind, so rules filtered out hold nothing.
        hits, rules = self._link_hits, self._link_rules
        for slot, rule in self._link_dispatch[link.kind]:
            self._put(
                hits[slot], rules[slot][0], link,
                rule.fn(link, self._ctx) or (),
            )

    def _refresh_globals(self) -> None:
        for slot, (index, rule) in enumerate(self._global_rules):
            self._put(self._global_hits, index, slot, rule.fn(self._ctx))

    def _drop_node(self, identifier: str) -> None:
        for slot, (index, _) in enumerate(self._node_rules):
            self._put(self._node_hits[slot], index, identifier, ())

    def _drop_link(self, link: Link) -> None:
        for slot, (index, _) in enumerate(self._link_rules):
            self._put(self._link_hits[slot], index, link, ())

    def _apply(self, records: Sequence[tuple[str, Any]]) -> None:
        """Re-evaluate what ``records`` touched, against the graph that
        already holds them.

        A touched link exists iff its last ``add_link``/``remove_link``
        record in the batch adds it: a removal drops its hits at once,
        and ``remove_node`` logs its incident link removals first.  The
        links a retype reaches come from the post-batch graph, so they
        exist too; no link membership is ever asked.
        """
        graph = self._graph
        touched_nodes: set[str] = set()
        touched_links: set[Link] = set()
        for op, payload in records:
            if op == "add_node":
                touched_nodes.add(payload.identifier)
            elif op == "remove_node":
                self._drop_node(payload.identifier)
                touched_nodes.discard(payload.identifier)
            elif op == "replace_node":
                old, new = payload
                touched_nodes.add(new.identifier)
                if (
                    old.node_type is not new.node_type
                    and new.identifier in graph
                ):
                    # A retype can flip link-rule verdicts on every link
                    # touching the node.
                    touched_links.update(graph.links_of(new.identifier))
            elif op == "add_link":
                touched_links.add(payload)
                touched_nodes.add(payload.source)
                touched_nodes.add(payload.target)
            elif op == "remove_link":
                self._drop_link(payload)
                touched_links.discard(payload)
                touched_nodes.add(payload.source)
                touched_nodes.add(payload.target)
        for identifier in touched_nodes:
            if identifier in graph:
                self._refresh_node(graph.node(identifier))
            else:
                self._drop_node(identifier)
        for link in touched_links:
            self._refresh_link(link)
        # Global rules, via their incremental hooks if offered.
        for slot, (index, rule) in enumerate(self._global_rules):
            found: "list[Violation] | None" = None
            if rule.delta_fn is not None:
                found = rule.delta_fn(
                    self._ctx, records, self._global_hits.get(slot, ())
                )
            if found is None:  # no hook, or the hook declined
                found = rule.fn(self._ctx)
            self._put(self._global_hits, index, slot, found)

    def _sync_store(self, snapshot: Any = None) -> None:
        """Catch up with the persisted journal before assembling.

        With no ``snapshot``, ``refresh()`` re-reads the manifest of the
        checker's own handle.  Given a pinned ``snapshot`` (a handle of
        the same store), the checker moves to exactly the generation it
        serves and calls no ``refresh()``; later node lookups go to it.

        The handle decides what is new: the ops
        :meth:`~repro.store.StoredArgument.ops_since` returns for the
        checker's mark patch the sidecar and re-evaluate their touched
        subjects, and ``None`` (a rotated base, a shrunk or rewritten
        journal) forces one streaming rebuild.
        """
        if snapshot is None:
            stored = self._graph
            stored.refresh()
        else:
            stored = self._graph = snapshot
        records = None if self._mark is None else stored.ops_since(self._mark)
        if records is None:
            self._rebuild_store(stored)
            return
        if records:
            # A catch-up that fails part-way (a read fault, say) leaves
            # the caches half patched: rebuild next time.
            self._mark = None
            for op, payload in records:
                self._sidecar.apply_op(op, payload)
            self._apply(records)
        self._mark = stored.journal_mark()

    def check(self, snapshot: Any = None) -> list[Violation]:
        """Current violations; output identical to a fresh full check.

        With no mutations since the last call this is pure cache
        assembly; after mutations only touched subjects re-evaluate,
        global rules refresh through their incremental hooks (falling
        back to full evaluation), and a rotated delta log (or, for a
        store-backed checker, a replaced base-shard generation) forces
        a complete rebuild.

        A store-backed checker given a pinned ``snapshot`` checks
        exactly the generation that handle serves, without refreshing
        anything (see :meth:`_sync_store`); with none it follows its
        own handle's store on disk.  A live checker follows its
        argument and takes no snapshot.
        """
        if self._argument is None:
            self._sync_store(snapshot)
        elif snapshot is not None:
            raise TypeError(
                "a live-argument checker follows its argument's delta "
                "log; only a store-backed checker takes a snapshot"
            )
        else:
            delta = self._argument.delta_since(self._seq)
            if delta is None:
                self._rebuild(self._argument)  # the log rotated past us
            elif delta:
                self._apply(delta.records)
                self._seq = self._argument.mutation_seq
        return self._report()

    def _report(self) -> list[Violation]:
        """The cached violations in report order (no catch-up).

        The first report after a (re)build fills one bucket per rule
        from the hit maps and sorts it, the one sort a one-shot check
        pays anyway; :meth:`_put` keeps the buckets sorted from then on,
        so every later report only concatenates them: O(v) copying, no
        key call.
        """
        if self._sorted is None:
            buckets: list[list[Violation]] = [[] for _ in self._rules]
            for slot, (index, _) in enumerate(self._node_rules):
                for found in self._node_hits[slot].values():
                    buckets[index].extend(found)
            for slot, (index, _) in enumerate(self._link_rules):
                for found in self._link_hits[slot].values():
                    buckets[index].extend(found)
            for slot, (index, _) in enumerate(self._global_rules):
                buckets[index].extend(self._global_hits.get(slot, ()))
            report = _assemble(buckets)
            self._sorted = buckets
            return report
        report: list[Violation] = []
        for bucket in self._sorted:
            report.extend(bucket)
        return report

    def is_well_formed(self) -> bool:
        return not self.check()
