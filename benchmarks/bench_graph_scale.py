"""Benchmark GS: the graph core at tool-generated argument scale.

Resolute derives thousands-of-node assurance cases from architecture
models and Isabelle/SACM mechanises similarly large ones, so the graph
core must survive — and stay fast on — large, deep, DAG-shaped
arguments.  This benchmark generates three synthetic shapes at 10k+
nodes:

* **deep_chain** — a single support chain (the shape that killed the
  seed's recursive traversals with :class:`RecursionError` at ~1,000
  nodes);
* **wide_fan** — one root claim over thousands of sibling hazards;
* **dense_dag** — layered diamonds with shared subgoals, where the
  seed's memo-less ``depth()`` re-visited subdags once per path
  (exponential) and path enumeration explodes combinatorially.

For each shape it times construction, traversal (walk, depth,
find_cycle, path counting, capped path enumeration), and planner-backed
queries on the current engine, and — for the chain and fan — the same
construction + ``statistics()`` on a faithful copy of the *seed*
implementation (O(L) duplicate scans in ``add_link``, recursive
``depth``), run with an enlarged interpreter stack so the recursion can
complete at all.  A persistence workload saves the fan through the
sharded store (:mod:`repro.store`), times full hydration and a leaf
subtree partial load, and records how many shards each hydrated.
Results land in ``BENCH_graph_scale.json`` with the
construction+statistics speedup that the acceptance criteria track.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_graph_scale.py            # full, 10k nodes
    PYTHONPATH=src python benchmarks/bench_graph_scale.py --smoke    # small sizes, CI

The tier-1 suite exercises the ``--smoke`` path via
``tests/test_graph_scale_smoke.py`` so graph-core perf regressions fail
loudly.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.argument import Argument, ArgumentError, Link, LinkKind
from repro.core.nodes import Node, NodeType
from repro.core.query import (
    argument_index,
    attribute_param,
    has_attribute,
    node_type_is,
    select,
    text_contains,
    traceability_view,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_graph_scale.json"

# Generous headroom for the seed's recursive traversals at 10k+ depth.
_SEED_RECURSION_LIMIT = 1_000_000
_SEED_STACK_BYTES = 512 * 1024 * 1024


# -- the seed implementation, preserved for comparison ---------------------


class SeedArgument:
    """The seed graph core, preserved verbatim for comparison.

    A faithful standalone copy — list-based link storage with the O(L)
    duplicate scan in ``add_link`` (O(L²) per argument), per-type node
    scans, recursive ``find_cycle``/``paths_to_root``/``depth``, and
    scanning ``statistics``.  Deliberately does *not* inherit from the
    indexed :class:`Argument`: the seed timings must not include the new
    engine's index-maintenance cost, or the recorded speedup would be
    systematically overstated.  Only used by this benchmark and the
    equivalence tests.
    """

    def __init__(self, name: str = "argument") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._links: list[Link] = []
        self._out: dict[str, list[Link]] = {}
        self._in: dict[str, list[Link]] = {}

    def add_node(self, node: Node) -> Node:
        if node.identifier in self._nodes:
            raise ArgumentError(
                f"duplicate node identifier {node.identifier!r}"
            )
        self._nodes[node.identifier] = node
        self._out.setdefault(node.identifier, [])
        self._in.setdefault(node.identifier, [])
        return node

    def add_link(self, source: str, target: str, kind: LinkKind) -> Link:
        if source not in self._nodes:
            raise ArgumentError(f"unknown source node {source!r}")
        if target not in self._nodes:
            raise ArgumentError(f"unknown target node {target!r}")
        if source == target:
            raise ArgumentError(f"self-link on {source!r}")
        link = Link(source, target, kind)
        if link in self._links:  # the seed's O(L) scan
            raise ArgumentError(f"duplicate link {link}")
        self._links.append(link)
        self._out[source].append(link)
        self._in[target].append(link)
        return link

    def supported_by(self, source: str, target: str) -> Link:
        return self.add_link(source, target, LinkKind.SUPPORTED_BY)

    def node(self, identifier: str) -> Node:
        try:
            return self._nodes[identifier]
        except KeyError:
            raise ArgumentError(f"unknown node {identifier!r}") from None

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    @property
    def links(self) -> list[Link]:
        return list(self._links)

    def nodes_of_type(self, node_type: NodeType) -> list[Node]:
        return [n for n in self.nodes if n.node_type is node_type]

    def supporters(self, identifier: str) -> list[Node]:
        return [
            self._nodes[link.target]
            for link in self._out.get(identifier, ())
            if link.kind is LinkKind.SUPPORTED_BY
        ]

    def roots(self) -> list[Node]:
        supported = {
            link.target
            for link in self._links
            if link.kind is LinkKind.SUPPORTED_BY
        }
        return [
            node
            for node in self._nodes.values()
            if node.node_type.is_claim_like
            and node.identifier not in supported
        ]

    def walk(self, start: str, kind: LinkKind | None = None):
        seen: set[str] = set()
        stack = [start]
        while stack:
            identifier = stack.pop()
            if identifier in seen:
                continue
            seen.add(identifier)
            yield self.node(identifier)
            targets = [
                link.target
                for link in self._out.get(identifier, ())
                if kind is None or link.kind is kind
            ]
            stack.extend(reversed(targets))

    def find_cycle(self) -> list[str] | None:
        colour: dict[str, int] = {}
        parent: dict[str, str] = {}

        def visit(identifier: str) -> list[str] | None:
            colour[identifier] = 1
            for link in self._out.get(identifier, ()):
                if link.kind is not LinkKind.SUPPORTED_BY:
                    continue
                target = link.target
                if colour.get(target, 0) == 1:
                    cycle = [target, identifier]
                    current = identifier
                    while parent.get(current) and current != target:
                        current = parent[current]
                        cycle.append(current)
                        if current == target:
                            break
                    cycle.reverse()
                    return cycle
                if colour.get(target, 0) == 0:
                    parent[target] = identifier
                    found = visit(target)
                    if found:
                        return found
            colour[identifier] = 2
            return None

        for identifier in list(self._nodes):
            if colour.get(identifier, 0) == 0:
                found = visit(identifier)
                if found:
                    return found
        return None

    def paths_to_root(self, identifier: str) -> list[list[str]]:
        # No max_paths parameter: the seed had no cap, and silently
        # accepting one would make capped comparisons look valid while
        # this enumerates everything.
        self.node(identifier)
        paths: list[list[str]] = []

        def climb(current: str, trail: list[str]) -> None:
            incoming = [
                link.source
                for link in self._in.get(current, ())
                if link.kind is LinkKind.SUPPORTED_BY
            ]
            if not incoming:
                paths.append(list(trail))
                return
            for source in incoming:
                if source in trail:
                    continue
                trail.append(source)
                climb(source, trail)
                trail.pop()

        climb(identifier, [identifier])
        return paths

    def depth(self) -> int:
        roots = self.roots()
        if not roots:
            return 0
        best = 0
        for root in roots:
            best = max(best, self._depth_from(root.identifier, set()))
        return best

    def _depth_from(self, identifier: str, seen: set[str]) -> int:
        # Path semantics identical to the seed; the seed copied ``seen``
        # per frame (O(depth²) memory), which would OOM the benchmark
        # host at 10k depth, so this mutates one shared set instead —
        # strictly *faster* than the seed, keeping the comparison
        # conservative.
        if identifier in seen:
            return 0
        seen.add(identifier)
        try:
            supports = self.supporters(identifier)
            if not supports:
                return 1
            return 1 + max(
                self._depth_from(child.identifier, seen)
                for child in supports
            )
        finally:
            seen.discard(identifier)

    def statistics(self) -> dict[str, int]:
        stats: dict[str, int] = {
            f"{node_type.value}_count": len(self.nodes_of_type(node_type))
            for node_type in NodeType
        }
        stats["node_count"] = len(self._nodes)
        stats["link_count"] = len(self._links)
        stats["supported_by_count"] = sum(
            1 for link in self._links
            if link.kind is LinkKind.SUPPORTED_BY
        )
        stats["in_context_of_count"] = sum(
            1 for link in self._links
            if link.kind is LinkKind.IN_CONTEXT_OF
        )
        stats["depth"] = self.depth()
        return stats


def run_with_seed_stack(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` in a thread with a huge stack and recursion limit.

    The seed's recursive traversals need thousands of frames; without
    this the comparison would just crash instead of being slow.
    """
    outcome: dict[str, Any] = {}

    def target() -> None:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_SEED_RECURSION_LIMIT)
        try:
            outcome["value"] = fn()
        except BaseException as error:  # surface in the caller
            outcome["error"] = error
        finally:
            sys.setrecursionlimit(limit)

    previous = threading.stack_size(_SEED_STACK_BYTES)
    try:
        thread = threading.Thread(target=target, name="seed-bench")
        thread.start()
        thread.join()
    finally:
        threading.stack_size(previous)
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


# -- synthetic argument shapes ---------------------------------------------

NodeSpec = tuple[str, NodeType, str, tuple[tuple[str, tuple[Any, ...]], ...]]
LinkSpec = tuple[str, str, LinkKind]


def _metadata_for(index: int) -> tuple[tuple[str, tuple[Any, ...]], ...]:
    """Sprinkle hazard annotations so query benchmarks have selectivity."""
    if index % 10 != 0:
        return ()
    likelihood = "remote" if index % 20 == 0 else "frequent"
    severity = "catastrophic" if index % 40 == 0 else "minor"
    return (("hazard", (f"H{index}", likelihood, severity)),)


def deep_chain(n: int) -> tuple[list[NodeSpec], list[LinkSpec]]:
    """A single support chain of ``n`` nodes ending in a solution."""
    nodes: list[NodeSpec] = []
    links: list[LinkSpec] = []
    for index in range(n - 1):
        nodes.append((
            f"G{index}", NodeType.GOAL,
            f"Claim {index} holds under all operating conditions",
            _metadata_for(index),
        ))
        if index:
            links.append((f"G{index - 1}", f"G{index}",
                          LinkKind.SUPPORTED_BY))
    nodes.append((f"Sn{n - 1}", NodeType.SOLUTION,
                  "Terminal evidence record", ()))
    links.append((f"G{n - 2}", f"Sn{n - 1}", LinkKind.SUPPORTED_BY))
    return nodes, links


def wide_fan(n: int) -> tuple[list[NodeSpec], list[LinkSpec]]:
    """One root claim over ``n - 1`` sibling hazards, with some context."""
    nodes: list[NodeSpec] = [(
        "G0", NodeType.GOAL, "The system is acceptably safe", ()
    )]
    links: list[LinkSpec] = []
    for index in range(1, n):
        if index % 25 == 0:
            nodes.append((
                f"C{index}", NodeType.CONTEXT,
                f"Operating context item {index}", (),
            ))
            links.append(("G0", f"C{index}", LinkKind.IN_CONTEXT_OF))
        else:
            nodes.append((
                f"G{index}", NodeType.GOAL,
                f"Hazard {index} is acceptably managed",
                _metadata_for(index),
            ))
            links.append(("G0", f"G{index}", LinkKind.SUPPORTED_BY))
    return nodes, links


def dense_dag(n: int, width: int = 50) -> tuple[list[NodeSpec], list[LinkSpec]]:
    """A layered diamond DAG: every node shared by two parents.

    The seed's memo-less ``depth()`` re-visits each shared node once per
    path — exponential in the layer count — and the number of root paths
    grows as ~2^layers, so only capped/lazy enumeration can touch it.
    """
    width = max(2, min(width, n // 2))
    layers = max(2, n // width)
    nodes: list[NodeSpec] = [(
        "L0N0", NodeType.GOAL, "The system is acceptably safe", ()
    )]
    links: list[LinkSpec] = []
    previous_width = 1
    for layer in range(1, layers):
        terminal = layer == layers - 1
        for position in range(width):
            if terminal:
                identifier = f"L{layer}N{position}"
                nodes.append((identifier, NodeType.SOLUTION,
                              f"Evidence record {layer}-{position}", ()))
            else:
                identifier = f"L{layer}N{position}"
                nodes.append((
                    identifier, NodeType.GOAL,
                    f"Subclaim {layer}-{position} holds",
                    _metadata_for(layer * width + position),
                ))
            for offset in (0, 1):
                parent = f"L{layer - 1}N{(position + offset) % previous_width}"
                spec = (parent, identifier, LinkKind.SUPPORTED_BY)
                if spec not in links[-2 * width:]:
                    links.append(spec)
        previous_width = width
    return nodes, links


SHAPES: dict[str, Callable[[int], tuple[list[NodeSpec], list[LinkSpec]]]] = {
    "deep_chain": deep_chain,
    "wide_fan": wide_fan,
    "dense_dag": dense_dag,
}

#: Shapes on which the seed implementation is measured.  The dense DAG is
#: excluded: the seed's exponential depth() would not finish at all.
SEED_SHAPES = ("deep_chain", "wide_fan")


def build(
    cls: "type[Argument] | type[SeedArgument]",
    spec: tuple[list[NodeSpec], list[LinkSpec]],
    name: str,
):
    """Construct via the batch API where available (the default path)."""
    if not hasattr(cls, "add_nodes"):  # the seed has no batch layer
        return build_per_op(cls, spec, name)
    argument = cls(name)
    nodes, links = spec
    argument.add_nodes(
        Node(identifier, node_type, text, metadata=metadata)
        for identifier, node_type, text, metadata in nodes
    )
    argument.add_links(links)
    return argument


def build_per_op(
    cls: "type[Argument] | type[SeedArgument]",
    spec: tuple[list[NodeSpec], list[LinkSpec]],
    name: str,
):
    """Construct one mutation at a time (per-mutation invalidation)."""
    argument = cls(name)
    nodes, links = spec
    for identifier, node_type, text, metadata in nodes:
        argument.add_node(Node(identifier, node_type, text,
                               metadata=metadata))
    for source, target, kind in links:
        argument.add_link(source, target, kind)
    return argument


# -- measurement -----------------------------------------------------------


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def bench_shape(
    shape: str, n: int, max_paths: int
) -> dict[str, Any]:
    spec = SHAPES[shape](n)
    nodes, links = spec
    result: dict[str, Any] = {
        "nodes": len(nodes),
        "links": len(links),
        "new": {},
    }
    new_times = result["new"]

    construct_time, argument = timed(
        lambda: build(Argument, spec, shape)
    )
    new_times["construct_s"] = construct_time
    # Batch vs one-mutation-at-a-time construction of the same shape.
    new_times["construct_per_op_s"], _ = timed(
        lambda: build_per_op(Argument, spec, f"{shape}-per-op")
    )
    new_times["statistics_s"], stats = timed(argument.statistics)
    result["depth"] = stats["depth"]
    # Depth is cached per version; re-query to show the cached cost too.
    new_times["statistics_cached_s"], _ = timed(argument.statistics)
    new_times["find_cycle_s"], cycle = timed(argument.find_cycle)
    assert cycle is None, f"{shape} must be acyclic"
    leaf = nodes[-1][0]
    new_times["paths_to_root_s"], paths = timed(
        lambda: argument.paths_to_root(leaf, max_paths=max_paths)
    )
    result["paths_enumerated"] = len(paths)
    new_times["count_paths_s"], count = timed(
        lambda: argument.count_paths_to_root(leaf)
    )
    # Keep the exact int: Python's json serialises arbitrary-precision
    # integers, and float() would overflow past ~1e308 (dense DAGs reach
    # 2^layers paths).
    result["path_count"] = count
    root = argument.roots()[0].identifier
    new_times["walk_s"], visited = timed(
        lambda: sum(1 for _ in argument.walk(root))
    )
    result["walk_visited"] = visited
    new_times["ancestors_s"], ancestors = timed(
        lambda: len(argument.ancestors(leaf))
    )
    result["ancestors"] = ancestors

    worst = attribute_param("hazard", 1, "remote") & attribute_param(
        "hazard", 2, "catastrophic"
    )
    new_times["query_attr_s"], matches = timed(
        lambda: len(select(argument, worst))
    )
    result["query_attr_matches"] = matches
    new_times["query_type_s"], _ = timed(
        lambda: len(select(argument, node_type_is(NodeType.SOLUTION)))
    )
    new_times["query_text_s"], _ = timed(
        lambda: len(select(argument, text_contains("HAZARD")))
    )
    new_times["traceability_view_s"], view = timed(
        lambda: traceability_view(argument, has_attribute("hazard"))
    )
    result["view_nodes"] = len(view)

    if shape in SEED_SHAPES:
        seed_times: dict[str, float] = {}
        seed_construct, seed_argument = timed(
            lambda: run_with_seed_stack(
                lambda: build(SeedArgument, spec, shape)
            )
        )
        seed_times["construct_s"] = seed_construct
        seed_times["statistics_s"], seed_stats = timed(
            lambda: run_with_seed_stack(seed_argument.statistics)
        )
        assert seed_stats == stats, (
            f"seed and new statistics disagree on {shape}"
        )
        result["seed"] = seed_times
        result["speedup_construct_statistics"] = (
            (seed_times["construct_s"] + seed_times["statistics_s"])
            / max(
                new_times["construct_s"] + new_times["statistics_s"],
                1e-9,
            )
        )
    return result


# -- the mutation-heavy interleaved workload -------------------------------
#
# Tool-generated cases are not built once and frozen: generators add a
# chunk of claims, tooling queries the partial case (well-formedness
# panels, traceability views), an editor tweaks a node, and the cycle
# repeats.  Under per-mutation invalidation (PR 1) every one of those
# query rounds rebuilt the planner index from scratch — O(rounds * V).
# The batch layer plus incremental index maintenance turns that into
# O(V + edits).  This workload measures exactly that interleaving.


def _workload_round(
    round_index: int, chunk: int
) -> tuple[list[Node], list[LinkSpec]]:
    """One round's payload: ``chunk - 1`` hazards and a solution."""
    base = 1 + round_index * chunk
    nodes: list[Node] = []
    links: list[LinkSpec] = []
    for offset in range(chunk):
        global_index = base + offset
        if offset == chunk - 1:
            node = Node(
                f"Sn{global_index}", NodeType.SOLUTION,
                f"Evidence record {global_index}",
            )
        else:
            node = Node(
                f"N{global_index}", NodeType.GOAL,
                f"Hazard {global_index} is acceptably managed",
                metadata=_metadata_for(global_index),
            )
        nodes.append(node)
        links.append(("G0", node.identifier, LinkKind.SUPPORTED_BY))
    return nodes, links


def _workload_queries():
    """Cheap planned queries, re-run after every mutation round."""
    worst = attribute_param("hazard", 1, "remote") & attribute_param(
        "hazard", 2, "catastrophic"
    )
    return (
        worst,
        node_type_is(NodeType.SOLUTION),
        attribute_param("hazard", 1, "frequent"),
    )


def run_mutation_workload(
    n: int, chunk: int, batched: bool
) -> tuple[Argument, int]:
    """Interleave chunked construction, edits, and planner queries.

    ``batched=True`` applies each round through ``Argument.batch`` and
    lets the planner index patch itself from the mutation delta;
    ``batched=False`` reproduces the PR 1 behaviour — one invalidation
    per mutation and a full index rebuild on the first query after any
    mutation (``argument_index(..., rebuild=True)``).  Both produce
    ``__eq__``-identical arguments and identical match counts.
    """
    argument = Argument("mutation-workload")
    argument.add_node(Node(
        "G0", NodeType.GOAL, "The system is acceptably safe"
    ))
    queries = _workload_queries()
    rounds = max(1, (n - 1) // chunk)
    matches = 0
    for round_index in range(rounds):
        nodes, links = _workload_round(round_index, chunk)
        if batched:
            with argument.batch():
                argument.add_nodes(nodes)
                argument.add_links(links)
        else:
            for node in nodes:
                argument.add_node(node)
            for source, target, kind in links:
                argument.add_link(source, target, kind)

        # Edits: retext the round's first hazard, churn one link (the
        # remove + re-add exercises the O(1) duplicate-check set), and
        # occasionally retype the round's solution.
        first = nodes[0]
        retyped = (
            Node(nodes[-1].identifier, NodeType.GOAL,
                 nodes[-1].text, metadata=nodes[-1].metadata)
            if round_index % 8 == 7 and len(nodes) > 1 else None
        )

        def edit() -> None:
            argument.replace_node(first.with_text(
                f"{first.text} (revalidated in round {round_index})"
            ))
            link = Link("G0", first.identifier, LinkKind.SUPPORTED_BY)
            argument.remove_link(link)
            argument.add_link(link.source, link.target, link.kind)
            if retyped is not None:
                argument.replace_node(retyped)

        if batched:
            with argument.batch():
                edit()
        else:
            edit()

        if not batched:
            argument_index(argument, rebuild=True)
        for query in queries:
            matches += len(select(argument, query))
    return argument, matches


def bench_mutation_workload(n: int, chunk: int | None = None) -> dict[str, Any]:
    """Time the interleaved workload in both modes and check agreement.

    The default chunk queries every ``n / 250`` additions — the cadence
    of interactive tooling (well-formedness panels, traceability views)
    over a case being generated, where per-mutation invalidation pays a
    full index rebuild per round.
    """
    chunk = chunk or max(10, n // 250)
    batched_s, (batched_argument, batched_matches) = timed(
        lambda: run_mutation_workload(n, chunk, batched=True)
    )
    # Per-mutation mode runs second: warm allocator/caches favour it,
    # keeping the reported speedup conservative.
    per_mutation_s, (per_argument, per_matches) = timed(
        lambda: run_mutation_workload(n, chunk, batched=False)
    )
    assert batched_matches == per_matches, (
        "batched and per-mutation query results diverged"
    )
    assert batched_argument == per_argument, (
        "batched and per-mutation arguments diverged"
    )
    assert (
        batched_argument.statistics() == per_argument.statistics()
    ), "batched and per-mutation statistics diverged"
    return {
        "nodes": len(batched_argument),
        "rounds": max(1, (n - 1) // chunk),
        "chunk": chunk,
        "query_matches": batched_matches,
        "batched_incremental_s": batched_s,
        "per_mutation_rebuild_s": per_mutation_s,
        "speedup_batched_incremental": (
            per_mutation_s / max(batched_s, 1e-9)
        ),
    }


# -- the well-formedness workload ------------------------------------------
#
# PR 4's scoped rule engine runs one rule set four ways; this workload
# measures all of them on a GSN-shaped case saved through the store:
#
# * **full** — the pre-scoped baseline, preserved verbatim below the way
#   SeedArgument is preserved: hydrate the StoredArgument, then run
#   whole-argument rule functions, each scanning every link with a node
#   lookup apiece (plus, for reference, the scoped rules run over the
#   same hydrated argument);
# * **streaming** — check the shards directly with the node-type sidecar,
#   never constructing an Argument (asserted via the hydration flag);
# * **parallel** — partition the streams across process workers (on a
#   single-core host this degrades to the streaming path; the effective
#   worker count is recorded);
# * **incremental** — a mutation-heavy editing session where each round
#   re-checks via the delta-consuming IncrementalChecker vs a full
#   scoped recheck, asserting identical violations every round.


def _legacy_gsn_rules():
    """The pre-scoped-engine whole-argument GSN rules, preserved verbatim.

    These are the monolithic ``Argument -> list[Violation]`` rule
    bodies exactly as ``core/wellformed.py`` shipped them before the
    scoped engine (modulo the solution-leaf index walk, kept
    index-backed as it was), in rule-set order.  Run by
    :func:`_legacy_check` over a hydrated store they still measure the
    old cost model: full hydration plus one scan of the link list per
    rule with an ``argument.node()`` lookup per link.
    """
    from repro.core.analysis import Violation
    from repro.core.nodes import looks_propositional

    def supported_by_targets(argument):
        allowed = {NodeType.GOAL, NodeType.STRATEGY, NodeType.SOLUTION,
                   NodeType.AWAY_GOAL}
        out = []
        for link in argument.links:
            if link.kind is not LinkKind.SUPPORTED_BY:
                continue
            target = argument.node(link.target)
            if target.node_type not in allowed:
                out.append(Violation(
                    "supported-by-target", str(link),
                    f"SupportedBy cannot target a {target.node_type.value}",
                ))
        return out

    def supported_by_sources(argument):
        allowed = {NodeType.GOAL, NodeType.STRATEGY}
        out = []
        for link in argument.links:
            if link.kind is not LinkKind.SUPPORTED_BY:
                continue
            source = argument.node(link.source)
            if source.node_type not in allowed:
                out.append(Violation(
                    "supported-by-source", str(link),
                    f"a {source.node_type.value} cannot cite support",
                ))
        return out

    def context_targets(argument):
        out = []
        for link in argument.links:
            if link.kind is not LinkKind.IN_CONTEXT_OF:
                continue
            target = argument.node(link.target)
            if not target.node_type.is_contextual:
                out.append(Violation(
                    "in-context-of-target", str(link),
                    "InContextOf must target context, assumption, or "
                    f"justification, not {target.node_type.value}",
                ))
        return out

    def context_sources(argument):
        allowed = {NodeType.GOAL, NodeType.STRATEGY, NodeType.AWAY_GOAL}
        out = []
        for link in argument.links:
            if link.kind is not LinkKind.IN_CONTEXT_OF:
                continue
            source = argument.node(link.source)
            if source.node_type not in allowed:
                out.append(Violation(
                    "in-context-of-source", str(link),
                    f"a {source.node_type.value} cannot attach context",
                ))
        return out

    def away_goal_no_solution_context(argument):
        out = []
        for link in argument.links:
            if link.kind is not LinkKind.IN_CONTEXT_OF:
                continue
            source = argument.node(link.source)
            target = argument.node(link.target)
            if (source.node_type is NodeType.AWAY_GOAL
                    and target.node_type is NodeType.SOLUTION):
                out.append(Violation(
                    "away-goal-solution-context", str(link),
                    "solutions cannot be in the context of an away goal",
                ))
        return out

    def solutions_are_leaves(argument):
        out = []
        for solution in argument.nodes_of_type(NodeType.SOLUTION):
            for kind in LinkKind:
                for child in argument.children(solution.identifier, kind):
                    link = Link(solution.identifier, child.identifier, kind)
                    out.append(Violation(
                        "solution-leaf", str(link),
                        "a solution cannot be the source of any connector",
                    ))
        return out

    def single_root(argument):
        roots = argument.roots()
        if len(roots) == 1:
            return []
        if not roots:
            return [Violation(
                "single-root", argument.name, "argument has no root goal"
            )]
        names = ", ".join(r.identifier for r in roots)
        return [Violation(
            "single-root", argument.name,
            f"argument has {len(roots)} root goals ({names})",
        )]

    def acyclic(argument):
        cycle = argument.find_cycle()
        if cycle is None:
            return []
        return [Violation(
            "acyclic", " -> ".join(cycle),
            "support chain forms a cycle (circular reasoning)",
        )]

    def developed_or_marked(argument):
        out = []
        for node in argument.goals:
            if node.undeveloped:
                continue
            if argument.supporters(node.identifier):
                continue
            out.append(Violation(
                "undeveloped-unmarked", node.identifier,
                "goal has no support and is not marked undeveloped",
            ))
        return out

    def strategies_supported(argument):
        out = []
        for node in argument.strategies:
            if node.undeveloped:
                continue
            if argument.supporters(node.identifier):
                continue
            out.append(Violation(
                "strategy-unsupported", node.identifier,
                "strategy has no sub-goals and is not marked undeveloped",
            ))
        return out

    def goals_propositional(argument):
        out = []
        for node in (argument.goals
                     + argument.nodes_of_type(NodeType.AWAY_GOAL)):
            if not looks_propositional(node.text):
                out.append(Violation(
                    "goal-not-proposition", node.identifier,
                    "goal text does not read as a proposition: "
                    f"{node.text!r}",
                ))
        return out

    return (
        supported_by_targets, supported_by_sources, context_targets,
        context_sources, away_goal_no_solution_context,
        solutions_are_leaves, single_root, acyclic, developed_or_marked,
        strategies_supported, goals_propositional,
    )


def _legacy_check(argument, rules) -> list:
    """Whole-argument rules in order, each rule's output canonical."""
    violations: list = []
    for rule in rules:
        violations.extend(
            sorted(rule(argument), key=lambda v: (v.subject, v.detail))
        )
    return violations


def gsn_case(n: int) -> tuple[list[NodeSpec], list[LinkSpec]]:
    """A well-formed GSN case: root goal, strategy, hazards, solutions."""
    hazards = max(1, (n - 2) // 2)
    nodes: list[NodeSpec] = [
        ("G0", NodeType.GOAL, "The system is acceptably safe", ()),
        ("S0", NodeType.STRATEGY,
         "Argument over each identified hazard", ()),
    ]
    links: list[LinkSpec] = [("G0", "S0", LinkKind.SUPPORTED_BY)]
    for index in range(1, hazards + 1):
        goal = f"G{index}"
        nodes.append((
            goal, NodeType.GOAL,
            f"Hazard {index} is acceptably managed",
            _metadata_for(index),
        ))
        links.append(("S0", goal, LinkKind.SUPPORTED_BY))
        if index % 25 == 0:
            context = f"C{index}"
            nodes.append((context, NodeType.CONTEXT,
                          f"Operating context item {index}", ()))
            links.append((goal, context, LinkKind.IN_CONTEXT_OF))
        solution = f"Sn{index}"
        nodes.append((solution, NodeType.SOLUTION,
                      f"Verification record VR-{index}", ()))
        links.append((goal, solution, LinkKind.SUPPORTED_BY))
    return nodes, links


def _wellformed_edit_round(argument, hazards: int, round_index: int) -> None:
    """One deterministic editing round: retext, churn a link, add a goal."""
    from repro.core.nodes import Node as _Node

    target = f"G{1 + (round_index % hazards)}"
    node = argument.node(target)
    argument.replace_node(node.with_text(
        f"Hazard {1 + (round_index % hazards)} is acceptably managed "
        f"(revalidated r{round_index})"
    ))
    link = Link("S0", target, LinkKind.SUPPORTED_BY)
    argument.remove_link(link)
    argument.add_link(link.source, link.target, link.kind)
    if round_index % 5 == 0:
        # A fresh unsupported goal: violations appear and persist.
        identifier = f"X{round_index}"
        argument.add_node(_Node(
            identifier, NodeType.GOAL,
            f"Late-added claim {round_index} holds",
        ))
        argument.add_link("S0", identifier, LinkKind.SUPPORTED_BY)


def bench_wellformed_workload(
    n: int, directory: Path | str | None = None, rounds: int | None = None
) -> dict[str, Any]:
    """Full vs streaming vs parallel vs incremental well-formedness.

    Asserts all four modes report identical violations, that streaming
    and parallel checks never hydrate the store, and that the
    incremental checker equals a fresh full check after every editing
    round.
    """
    import os

    from repro.checking import check
    from repro.core.analysis import IncrementalChecker, run_rules
    from repro.core.wellformed import GSN_STANDARD_RULES
    from repro.store import StoredArgument

    rules = GSN_STANDARD_RULES.rules
    spec = gsn_case(n)
    argument = build(Argument, spec, "wellformed-case")
    hazards = max(1, (n - 2) // 2)
    scratch = directory is None
    base = Path(tempfile.mkdtemp(prefix="bench-wf-")) if scratch \
        else Path(directory)
    store_dir = base / "wellformed-case.store"
    try:
        argument.save(store_dir)

        serial_s, serial = timed(lambda: run_rules(argument, rules))

        # The pre-scoped-engine path: hydrate, then whole-argument rules.
        legacy_rules = _legacy_gsn_rules()
        hydrating = StoredArgument(store_dir)
        full_s, full = timed(
            lambda: _legacy_check(hydrating.load(), legacy_rules)
        )
        assert hydrating.hydrated, "the legacy full check must hydrate"

        # The scoped rules run over a hydrated argument, for reference.
        scoped_full_store = StoredArgument(store_dir)
        scoped_full_s, scoped_full = timed(
            lambda: run_rules(scoped_full_store.load(), rules)
        )

        streaming_store = StoredArgument(store_dir)
        streaming_s, streaming = timed(
            lambda: run_rules(streaming_store, rules, mode="streaming")
        )
        assert not streaming_store.hydrated, (
            "streaming check must not hydrate the store"
        )
        assert streaming_store.shards_read, (
            "streaming check must actually read shards"
        )

        workers = os.cpu_count() or 1
        parallel_store = StoredArgument(store_dir)
        parallel_s, parallel = timed(
            lambda: run_rules(
                parallel_store, rules, mode="parallel", workers=workers
            )
        )
        assert not parallel_store.hydrated, (
            "parallel check must not hydrate the store"
        )
        assert serial == full == scoped_full == streaming == parallel, (
            "well-formedness modes disagreed"
        )

        # Mutation-heavy editing session: incremental vs full recheck.
        # Rounds scale down with size so the full-recheck baseline stays
        # measurable (each round costs O(V + E) in that mode).
        if rounds is None:
            rounds = max(10, min(40, 1_000_000 // max(1, n)))
        incremental_argument = argument.copy()
        checker = IncrementalChecker(incremental_argument, rules)
        incremental_results: list[int] = []

        def run_incremental() -> None:
            for round_index in range(rounds):
                _wellformed_edit_round(
                    incremental_argument, hazards, round_index
                )
                incremental_results.append(
                    len(checker.check())
                )

        full_argument = argument.copy()
        full_results: list[int] = []

        def run_full_recheck() -> None:
            for round_index in range(rounds):
                _wellformed_edit_round(
                    full_argument, hazards, round_index
                )
                full_results.append(
                    len(check(full_argument, GSN_STANDARD_RULES))
                )

        incremental_s, _ = timed(run_incremental)
        full_recheck_s, _ = timed(run_full_recheck)
        assert incremental_results == full_results, (
            "incremental and full rechecks diverged"
        )
        assert checker.check() == run_rules(incremental_argument, rules), (
            "final incremental state diverged from a fresh check"
        )

        return {
            "nodes": len(argument),
            "links": len(argument.links),
            "violations": len(serial),
            "serial_in_memory_s": serial_s,
            "full_hydrate_s": full_s,
            "scoped_full_hydrate_s": scoped_full_s,
            "streaming_s": streaming_s,
            "parallel_s": parallel_s,
            "parallel_workers": workers,
            "speedup_streaming_vs_full": full_s / max(streaming_s, 1e-9),
            "speedup_parallel_vs_full": full_s / max(parallel_s, 1e-9),
            "edit_rounds": rounds,
            "incremental_s": incremental_s,
            "full_recheck_s": full_recheck_s,
            "speedup_incremental_vs_full_recheck": (
                full_recheck_s / max(incremental_s, 1e-9)
            ),
        }
    finally:
        if scratch:
            shutil.rmtree(base, ignore_errors=True)


# -- the journal workload ---------------------------------------------------
#
# An editing session over a persisted case must not pay an O(store)
# rewrite per save: PR 5's append journal persists each session's
# mutation delta as a sealed JSONL segment, readers replay it
# transparently, compact() folds it back into byte-stable shards, and an
# IncrementalChecker over the stored handle re-checks the persisted case
# from the journal deltas without ever hydrating it.  This workload measures the
# whole loop on the same GSN-shaped case the well-formedness workload
# uses.


def bench_journal_workload(
    n: int, directory: Path | str | None = None, rounds: int | None = None
) -> dict[str, Any]:
    """Journal appends vs full rewrites, compaction, store re-checking.

    Asserts along the way that the journal-replayed store loads equal to
    the live argument, that compaction reproduces byte-for-byte the
    files a clean ``save()`` of the same argument writes, and that the
    store-backed incremental checker matches a fresh streaming check
    after every appended delta with ``hydrated`` still ``False``.
    """
    from repro.core.analysis import IncrementalChecker, run_rules
    from repro.core.wellformed import GSN_STANDARD_RULES
    from repro.store import StoredArgument

    rules = GSN_STANDARD_RULES.rules

    spec = gsn_case(n)
    hazards = max(1, (n - 2) // 2)
    if rounds is None:
        rounds = 40
    scratch = directory is None
    base = Path(tempfile.mkdtemp(prefix="bench-journal-")) if scratch \
        else Path(directory)
    journal_dir = base / "journal-session.store"
    rewrite_dir = base / "rewrite-session.store"
    fresh_dir = base / "fresh-reference.store"
    try:
        journal_argument = build(Argument, spec, "journal-case")
        journal_argument.save(journal_dir)
        rewrite_argument = build(Argument, spec, "journal-case")
        rewrite_argument.save(rewrite_dir)

        # The same editing session saved two ways: O(delta) journal
        # appends vs an O(store) rewrite per save.
        def journal_session() -> None:
            for round_index in range(rounds):
                _wellformed_edit_round(
                    journal_argument, hazards, round_index
                )
                journal_argument.save(journal_dir, journal=True)

        def rewrite_session() -> None:
            for round_index in range(rounds):
                _wellformed_edit_round(
                    rewrite_argument, hazards, round_index
                )
                rewrite_argument.save(rewrite_dir)

        journal_s, _ = timed(journal_session)
        rewrite_s, _ = timed(rewrite_session)
        assert journal_argument == rewrite_argument, (
            "the two sessions applied different edits"
        )
        manifest = StoredArgument(journal_dir).manifest
        segments = len(manifest.get("journal", ()))
        assert segments == rounds, "every save should have appended"
        assert StoredArgument(journal_dir).load() == journal_argument, (
            "journal replay diverged from the live argument"
        )

        # Store-backed incremental re-checking: attach once, then each
        # appended delta re-checks incrementally; the baseline re-runs a
        # full streaming check over the same store.  Neither hydrates.
        checker_store = StoredArgument(journal_dir)
        attach_s, checker = timed(
            lambda: IncrementalChecker(checker_store, rules)
        )
        recheck_rounds = max(10, rounds // 2)
        incremental_s = 0.0
        streaming_s = 0.0
        for round_index in range(rounds, rounds + recheck_rounds):
            _wellformed_edit_round(journal_argument, hazards, round_index)
            journal_argument.save(journal_dir, journal=True)
            elapsed, incremental = timed(checker.check)
            incremental_s += elapsed
            elapsed, streamed = timed(
                lambda: run_rules(
                    StoredArgument(journal_dir), rules, mode="streaming"
                )
            )
            streaming_s += elapsed
            assert incremental == streamed, (
                "store-backed incremental check diverged from a fresh "
                "streaming check"
            )
        assert not checker_store.hydrated, (
            "store-backed re-checking must not hydrate the store"
        )

        # Compaction folds the journal into fresh shards, byte-identical
        # to a clean save of the same live argument.
        compact_handle = StoredArgument(journal_dir)
        compact_s, _ = timed(compact_handle.compact)
        # Compaction defers its sweep so pinned snapshot readers stay
        # valid; gc() reclaims the superseded generation's files.
        compact_handle.gc()
        journal_argument.save(fresh_dir)
        compacted_files = {
            path.name: path.read_bytes() for path in journal_dir.iterdir()
        }
        fresh_files = {
            path.name: path.read_bytes() for path in fresh_dir.iterdir()
        }
        byte_stable = compacted_files == fresh_files
        assert byte_stable, "compaction is not byte-stable"
        assert checker.check() == run_rules(
            StoredArgument(journal_dir), rules, mode="streaming"
        ), "checker did not survive compaction"
        assert not checker_store.hydrated

        return {
            "nodes": len(journal_argument),
            "links": len(journal_argument.links),
            "edit_rounds": rounds,
            "journal_segments": segments,
            "journal_session_s": journal_s,
            "rewrite_session_s": rewrite_s,
            "speedup_journal_vs_rewrite": rewrite_s / max(journal_s, 1e-9),
            "compact_s": compact_s,
            "compaction_byte_stable": byte_stable,
            "from_store_attach_s": attach_s,
            "recheck_rounds": recheck_rounds,
            "from_store_incremental_s": incremental_s,
            "streaming_recheck_s": streaming_s,
            "speedup_from_store_vs_streaming": (
                streaming_s / max(incremental_s, 1e-9)
            ),
            "from_store_hydrated": checker_store.hydrated,
        }
    finally:
        if scratch:
            shutil.rmtree(base, ignore_errors=True)


# -- the persistence workload ----------------------------------------------
#
# A 100k-node tool-generated case must outlive the process that built it
# (Resolute regenerates cases per architecture revision; Isabelle/SACM
# persists mechanised cases next to their proofs) and be reloadable
# *partially*: a reviewer inspecting one hazard's sub-argument should not
# pay for full hydration.  This workload saves the fan topology through
# the sharded store, times full load and a leaf-subtree partial load, and
# records how many shards each actually hydrated.


def bench_store_workload(
    n: int, directory: Path | str | None = None
) -> dict[str, Any]:
    """Save/load/partial-load the wide-fan shape through ``repro.store``.

    Verifies along the way that the loaded argument is ``__eq__`` to the
    original with identical statistics, that the partial subtree load
    equals the in-memory ``subtree()``, and that it hydrated strictly
    fewer shards than the full load.
    """
    from repro.store import StoredArgument

    spec = wide_fan(n)
    argument = build(Argument, spec, "store-fan")
    scratch = directory is None
    base = Path(tempfile.mkdtemp(prefix="bench-store-")) if scratch \
        else Path(directory)
    store_dir = base / "store-fan.store"
    try:
        save_s, manifest = timed(lambda: argument.save(store_dir))

        full = StoredArgument(store_dir)
        load_s, loaded = timed(full.load)
        assert loaded == argument, "stored argument did not round-trip"
        assert loaded.statistics() == argument.statistics(), (
            "round-trip changed statistics"
        )
        full_shards = len(full.shards_read)

        # Partial load: one leaf of the fan — its subtree is just itself,
        # so hydration should touch the leaf's node and link shards only.
        leaf = "G1"
        partial = StoredArgument(store_dir)
        subtree_s, fragment = timed(lambda: partial.subtree(leaf))
        assert fragment == argument.subtree(leaf), (
            "partial subtree load diverged from in-memory subtree()"
        )
        partial_shards = len(partial.shards_read)
        assert partial_shards < full_shards, (
            "partial load hydrated as many shards as a full load"
        )

        store_bytes = sum(
            (store_dir / name).stat().st_size for name in manifest["shards"]
        )
        return {
            "nodes": len(argument),
            "links": len(argument.links),
            "shard_count": manifest["shard_count"],
            "store_bytes": store_bytes,
            "save_s": save_s,
            "load_s": load_s,
            "subtree_load_s": subtree_s,
            "subtree_nodes": len(fragment),
            "full_shards_read": full_shards,
            "partial_shards_read": partial_shards,
        }
    finally:
        if scratch:
            shutil.rmtree(base, ignore_errors=True)


def bench_service_mixed(
    n: int,
    writers: int = 2,
    readers: int = 4,
    appends_per_writer: int = 12,
    reads_per_reader: int = 24,
) -> dict[str, Any]:
    """Mixed editor traffic through the asyncio argument service.

    Serves the wide-fan store over a real socket, then drives it the
    way a maintained case is actually used: writer clients landing
    optimistic appends (``expect_generation`` + retry-on-409) while
    reader clients query, fetch summaries, and pull node payloads off
    whatever snapshot is current.  Reports append/read throughput under
    contention and verifies no append was lost.
    """
    import asyncio

    from repro.service import ArgumentService, ServiceClient
    from repro.service.client import ServiceClientError
    from repro.store import StoredArgument

    spec = wide_fan(n)
    argument = build(Argument, spec, "service-fan")
    base = Path(tempfile.mkdtemp(prefix="bench-service-"))
    store_dir = base / "service-fan.store"
    argument.save(store_dir)

    loop = asyncio.new_event_loop()
    service = ArgumentService(base)
    bound: dict[str, Any] = {}
    ready = threading.Event()

    def serve() -> None:
        asyncio.set_event_loop(loop)
        bound["address"] = loop.run_until_complete(service.start())
        ready.set()
        loop.run_forever()

    server_thread = threading.Thread(target=serve, daemon=True)
    server_thread.start()
    assert ready.wait(30), "service failed to start"
    host, port = bound["address"]
    store_name = store_dir.name

    conflicts = [0] * writers
    append_times: list[list[float]] = [[] for _ in range(writers)]
    read_times: list[list[float]] = [[] for _ in range(readers)]
    failures: list[BaseException] = []

    def run_writer(worker: int) -> None:
        client = ServiceClient(host, port)
        try:
            for round_index in range(appends_per_writer):
                ops = [{"op": "add_node", "node": {
                    "id": f"SVC-W{worker}R{round_index}",
                    "type": "context",
                    "text": f"Service edit {worker}/{round_index}",
                }}]
                start = time.perf_counter()
                while True:
                    generation = client.store(store_name)["generation"]
                    try:
                        client.append(
                            store_name, ops, expect_generation=generation
                        )
                        break
                    except ServiceClientError as error:
                        if error.status != 409:
                            raise
                        conflicts[worker] += 1
                append_times[worker].append(time.perf_counter() - start)
        except BaseException as error:  # pragma: no cover - surfaced below
            failures.append(error)
        finally:
            client.close()

    def run_reader(worker: int) -> None:
        client = ServiceClient(host, port)
        try:
            for round_index in range(reads_per_reader):
                start = time.perf_counter()
                if round_index % 3 == 0:
                    payload = client.query(
                        store_name, {"type": "goal"}
                    )
                    assert payload["nodes"], "query lost the fan's goals"
                elif round_index % 3 == 1:
                    client.store(store_name)
                else:
                    client.node(store_name, "G1")
                read_times[worker].append(time.perf_counter() - start)
        except BaseException as error:  # pragma: no cover - surfaced below
            failures.append(error)
        finally:
            client.close()

    threads = (
        [threading.Thread(target=run_writer, args=(w,))
         for w in range(writers)]
        + [threading.Thread(target=run_reader, args=(r,))
           for r in range(readers)]
    )
    try:
        mixed_s, _ = timed(lambda: [
            [t.start() for t in threads], [t.join() for t in threads],
        ])
        assert not failures, f"service traffic failed: {failures[:3]}"

        final = StoredArgument(store_dir)
        expected = {
            f"SVC-W{worker}R{round_index}"
            for worker in range(writers)
            for round_index in range(appends_per_writer)
        }
        missing = {name for name in expected if name not in final}
        assert not missing, f"service lost appends: {sorted(missing)[:5]}"

        all_appends = [s for per in append_times for s in per]
        all_reads = [s for per in read_times for s in per]
        return {
            "nodes": len(argument),
            "writers": writers,
            "readers": readers,
            "appends": len(all_appends),
            "reads": len(all_reads),
            "conflict_retries": sum(conflicts),
            "mixed_wall_s": mixed_s,
            "appends_per_s": len(all_appends) / mixed_s,
            "reads_per_s": len(all_reads) / mixed_s,
            "mean_append_ms": 1e3 * sum(all_appends) / len(all_appends),
            "mean_read_ms": 1e3 * sum(all_reads) / len(all_reads),
            "final_journal_segments": len(final.journal_segments),
        }
    finally:
        asyncio.run_coroutine_threadsafe(service.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        server_thread.join(10)
        shutil.rmtree(base, ignore_errors=True)


def run_bench(
    n: int = 10_000,
    max_paths: int = 1_000,
    out: Path | str | None = DEFAULT_OUT,
    wellformed_nodes: int | None = None,
) -> dict[str, Any]:
    """Benchmark every shape at ``n`` nodes; optionally write the JSON.

    The well-formedness workload runs at ``10 * n`` by default — the
    scoped engine targets 100k+-node throughput, and the hydration
    overhead it eliminates only dominates at that scale.
    """
    shapes = {
        shape: bench_shape(shape, n, max_paths) for shape in SHAPES
    }
    speedups = [
        data["speedup_construct_statistics"]
        for data in shapes.values()
        if "speedup_construct_statistics" in data
    ]
    mutation = bench_mutation_workload(n)
    store = bench_store_workload(n)
    wellformed = bench_wellformed_workload(
        10 * n if wellformed_nodes is None else wellformed_nodes
    )
    journal = bench_journal_workload(n)
    service = bench_service_mixed(n)
    report = {
        "benchmark": "graph_scale",
        "nodes_requested": n,
        "max_paths": max_paths,
        "python": sys.version.split()[0],
        "shapes": shapes,
        "min_speedup_construct_statistics": min(speedups),
        "mutation_workload": mutation,
        "speedup_mutation_workload": mutation[
            "speedup_batched_incremental"
        ],
        "store_workload": store,
        "wellformed_workload": wellformed,
        "speedup_wellformed_parallel": wellformed[
            "speedup_parallel_vs_full"
        ],
        "speedup_wellformed_incremental": wellformed[
            "speedup_incremental_vs_full_recheck"
        ],
        "journal_workload": journal,
        "speedup_journal_appends": journal["speedup_journal_vs_rewrite"],
        "service_workload": service,
        "service_reads_per_s": service["reads_per_s"],
        "note": (
            "seed comparison covers deep_chain and wide_fan; the seed's "
            "exponential depth() cannot finish on dense_dag at all; "
            "mutation_workload interleaves chunked construction, edits, "
            "and planner queries — batch + incremental index vs PR 1's "
            "per-mutation invalidation with full index rebuilds; "
            "store_workload saves/loads the fan through the sharded "
            "persistent store and partial-loads one leaf subtree, "
            "hydrating strictly fewer shards than the full load; "
            "wellformed_workload runs the scoped rule engine full "
            "(hydrate-then-check, the pre-scoped baseline) vs streaming "
            "(shards + node-type sidecar, no hydration) vs parallel "
            "(stream partitions across process workers; single-core "
            "hosts degrade to streaming) vs incremental (delta-log "
            "rechecks during a mutation-heavy editing session); "
            "journal_workload persists a mutation-heavy editing session "
            "as O(delta) append-journal segments vs a full save() "
            "rewrite per round, folds the journal back into byte-stable "
            "shards via compact(), and re-checks the persisted case "
            "from its journal deltas (a store-backed IncrementalChecker) "
            "without hydration vs a full streaming recheck per round; "
            "service_workload drives the asyncio HTTP front end with "
            "concurrent writer clients (optimistic expect_generation "
            "appends, retry on 409) and reader clients (planned "
            "queries, summaries, node fetches) over one shared store — "
            "no append lost, reads served from pinned snapshots "
            "throughout"
        ),
    }
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
    return report


def main(argv: list[str] | None = None) -> int:
    # allow_abbrev=False: a typo'd --node must fail loudly, not silently
    # run at the wrong size and overwrite the committed JSON.
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--nodes", type=int, default=10_000,
                        help="target node count per shape")
    parser.add_argument("--max-paths", type=int, default=1_000,
                        help="cap on enumerated root paths")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON report (default: "
                             "the committed BENCH_graph_scale.json for "
                             "full runs, a scratch file for --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI smoke checking")
    options = parser.parse_args(argv)
    n = 1_500 if options.smoke else options.nodes
    if options.out is None:
        # A smoke run must never clobber the committed full-size report.
        options.out = (
            Path(tempfile.gettempdir()) / "BENCH_graph_scale_smoke.json"
            if options.smoke else DEFAULT_OUT
        )
    report = run_bench(
        n=n, max_paths=options.max_paths, out=options.out,
        wellformed_nodes=n if options.smoke else None,
    )
    for shape, data in report["shapes"].items():
        line = (
            f"{shape:>11}: {data['nodes']} nodes, depth {data['depth']}, "
            f"construct {data['new']['construct_s'] * 1e3:.1f} ms, "
            f"statistics {data['new']['statistics_s'] * 1e3:.1f} ms"
        )
        if "speedup_construct_statistics" in data:
            line += (
                f" ({data['speedup_construct_statistics']:.0f}x vs seed)"
            )
        print(line)
    mutation = report["mutation_workload"]
    print(
        f"   mutation: {mutation['nodes']} nodes over "
        f"{mutation['rounds']} rounds, batched+incremental "
        f"{mutation['batched_incremental_s'] * 1e3:.1f} ms vs "
        f"per-mutation {mutation['per_mutation_rebuild_s'] * 1e3:.1f} ms "
        f"({mutation['speedup_batched_incremental']:.1f}x)"
    )
    store = report["store_workload"]
    print(
        f"      store: {store['nodes']} nodes, "
        f"save {store['save_s'] * 1e3:.1f} ms, "
        f"load {store['load_s'] * 1e3:.1f} ms, "
        f"leaf subtree {store['subtree_load_s'] * 1e3:.2f} ms "
        f"({store['partial_shards_read']}/{store['full_shards_read']} "
        "shards hydrated)"
    )
    wellformed = report["wellformed_workload"]
    print(
        f" wellformed: {wellformed['nodes']} nodes, "
        f"full {wellformed['full_hydrate_s'] * 1e3:.1f} ms, "
        f"streaming {wellformed['streaming_s'] * 1e3:.1f} ms, "
        f"parallel {wellformed['parallel_s'] * 1e3:.1f} ms "
        f"({wellformed['parallel_workers']} worker(s), "
        f"{wellformed['speedup_parallel_vs_full']:.1f}x vs full), "
        f"incremental {wellformed['incremental_s'] * 1e3:.1f} ms over "
        f"{wellformed['edit_rounds']} rounds "
        f"({wellformed['speedup_incremental_vs_full_recheck']:.1f}x vs "
        "full recheck)"
    )
    journal = report["journal_workload"]
    print(
        f"    journal: {journal['nodes']} nodes, "
        f"{journal['edit_rounds']} rounds: appends "
        f"{journal['journal_session_s'] * 1e3:.1f} ms vs rewrites "
        f"{journal['rewrite_session_s'] * 1e3:.1f} ms "
        f"({journal['speedup_journal_vs_rewrite']:.1f}x), compact "
        f"{journal['compact_s'] * 1e3:.1f} ms (byte-stable), "
        f"from_store recheck {journal['from_store_incremental_s'] * 1e3:.1f}"
        f" ms vs streaming {journal['streaming_recheck_s'] * 1e3:.1f} ms "
        f"({journal['speedup_from_store_vs_streaming']:.1f}x, "
        "hydrated=False)"
    )
    service = report["service_workload"]
    print(
        f"    service: {service['nodes']} nodes, {service['writers']} "
        f"writers x {service['readers']} readers: "
        f"{service['appends']} appends ({service['conflict_retries']} "
        f"409 retries) + {service['reads']} reads in "
        f"{service['mixed_wall_s'] * 1e3:.0f} ms "
        f"({service['appends_per_s']:.0f} appends/s, "
        f"{service['reads_per_s']:.0f} reads/s; mean append "
        f"{service['mean_append_ms']:.1f} ms, mean read "
        f"{service['mean_read_ms']:.1f} ms)"
    )
    print(
        "min construct+statistics speedup vs seed: "
        f"{report['min_speedup_construct_statistics']:.0f}x "
        f"-> {options.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
