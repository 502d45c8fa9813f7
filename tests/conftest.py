"""Shared fixtures for the repro test suite.

Also home of the **round-trip equivalence oracle** shared by the store
conformance harness (``test_store_roundtrip.py``) and the legacy
notation round-trip properties (``test_notation_roundtrip.py``): one
canonical form for nodes/arguments, one randomized argument generator
(driving the seeded node generator from ``test_invariants.py``), so
every persistence format is judged against the same notion of
"the same argument".
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path
from typing import Any

import pytest

import repro
from repro.core import ArgumentBuilder
from repro.core.argument import Argument, LinkKind
from repro.core.case import AssuranceCase, SafetyCriterion
from repro.core.evidence import EvidenceItem, EvidenceKind
from repro.core.wellformed import GSN_STANDARD_RULES

_BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def check(subject, rules=GSN_STANDARD_RULES, **options) -> list:
    """A rule set's violations as a list, through :func:`repro.check`."""
    return list(repro.check(subject, rules, **options))


# -- the shared round-trip equivalence oracle -------------------------------


def canonical_node(node, *, with_metadata: bool = True) -> tuple:
    """A node's format-independent identity.

    Metadata compares via ``metadata_dict()`` (duplicate attribute names
    collapse to the last entry) sorted by name — exactly the semantics
    every query predicate reads and every JSON-object-based format can
    represent.  ``with_metadata=False`` is for formats that do not carry
    metadata at all (textual GSN, CAE).
    """
    base: tuple[Any, ...] = (
        node.identifier,
        node.node_type,
        node.text,
        node.undeveloped,
        node.module,
    )
    if with_metadata:
        return base + (tuple(sorted(node.metadata_dict().items())),)
    return base


def canonical_argument(argument, *, with_metadata: bool = True) -> tuple:
    """An argument's format-independent identity: node set + link set."""
    return (
        frozenset(
            canonical_node(node, with_metadata=with_metadata)
            for node in argument.nodes
        ),
        frozenset(argument.links),
    )


def random_argument(
    seed: int,
    size: int,
    *,
    wellformed_kinds: bool = False,
    name: str | None = None,
) -> Argument:
    """A seeded random argument of ``size`` nodes, acyclic by construction.

    Node payloads (types, texts, metadata — including the deliberately
    awkward duplicate-attribute metadata) come from the randomized
    generator in ``test_invariants.py``; links run only from older to
    newer nodes.  With ``wellformed_kinds=True`` the link kind follows
    the target's nature (contextual targets get InContextOf, the rest
    SupportedBy) — the discipline the CAE conversion round-trips exactly;
    otherwise kinds are random, exercising ill-formed shapes too.
    """
    from test_invariants import _random_node

    rng = random.Random(seed)
    argument = Argument(name or f"random-{seed}-{size}")
    nodes = [_random_node(rng, f"n{index}") for index in range(size)]
    argument.add_nodes(nodes)
    specs: list[tuple[str, str, LinkKind]] = []
    seen: set[tuple[str, str, LinkKind]] = set()
    for index in range(1, size):
        target = nodes[index]
        for _ in range(rng.choice((1, 1, 2))):
            source = nodes[rng.randrange(index)]
            if wellformed_kinds:
                kind = (
                    LinkKind.IN_CONTEXT_OF
                    if target.node_type.is_contextual
                    else LinkKind.SUPPORTED_BY
                )
            else:
                kind = rng.choice(tuple(LinkKind))
            spec = (source.identifier, target.identifier, kind)
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
    argument.add_links(specs)
    return argument


def store_files(directory) -> dict[str, bytes]:
    """Every file in a store directory, by name — the byte-stability
    oracle shared by the round-trip, journal, and invariant suites."""
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(directory).iterdir())
    }


# -- the LTL reference evaluator ---------------------------------------------


def recursive_holds(formula, trace, position: int = 0) -> bool:
    """The recursive finite-trace evaluator :func:`repro.logic.ltl.holds`
    replaced, kept as the reference the bit-column evaluator must match.

    It re-evaluates each temporal operand at every later position, so it
    is only fit for small formulas and traces.
    """
    from repro.logic.ltl import (
        Always, Eventually, LAnd, LImplies, LNot, LOr, Next, Prop, Release,
        Until,
    )

    if position >= len(trace) or position < 0:
        raise ValueError(
            f"position {position} outside trace of length {len(trace)}"
        )
    if isinstance(formula, Prop):
        return formula.name in trace[position]
    if isinstance(formula, LNot):
        return not recursive_holds(formula.operand, trace, position)
    if isinstance(formula, LAnd):
        return recursive_holds(
            formula.left, trace, position
        ) and recursive_holds(formula.right, trace, position)
    if isinstance(formula, LOr):
        return recursive_holds(
            formula.left, trace, position
        ) or recursive_holds(formula.right, trace, position)
    if isinstance(formula, LImplies):
        return (
            not recursive_holds(formula.antecedent, trace, position)
        ) or recursive_holds(formula.consequent, trace, position)
    if isinstance(formula, Next):
        if position + 1 >= len(trace):
            return False  # strong next fails at the last state
        return recursive_holds(formula.operand, trace, position + 1)
    if isinstance(formula, Always):
        return all(
            recursive_holds(formula.operand, trace, i)
            for i in range(position, len(trace))
        )
    if isinstance(formula, Eventually):
        return any(
            recursive_holds(formula.operand, trace, i)
            for i in range(position, len(trace))
        )
    if isinstance(formula, Until):
        for i in range(position, len(trace)):
            if recursive_holds(formula.right, trace, i):
                return True
            if not recursive_holds(formula.left, trace, i):
                return False
        return False
    if isinstance(formula, Release):
        # left R right == !(!left U !right)
        return not recursive_holds(
            Until(LNot(formula.left), LNot(formula.right)), trace, position
        )
    raise TypeError(f"not an LTL formula: {formula!r}")


# -- the ranked-search reference scorer ---------------------------------------


def reference_search(
    subject, query_text: str, *, limit: int = 10, neighbourhood: int = 2
) -> list:
    """The per-node-tokenizing scorer :func:`repro.core.search.search`
    replaced, kept as the reference the postings scorer must match.

    It resolves candidates by scanning every node of the subject's
    loaded argument, re-tokenizes each matched node to count its term
    occurrences, sums term scores in query order and sorts every match,
    so it shares no postings, counts or top-k code with ``search()``.
    Only the snippet rendering (:func:`~repro.core.search.
    query_biased_summary`) is common.
    """
    from repro.core.search import tokenize

    terms = tuple(dict.fromkeys(tokenize(query_text)))
    if not terms or limit < 1:
        return []
    sources = getattr(subject, "search_sources", None)
    pairs = list(sources()) if sources is not None else [(None, subject)]
    hits: list = []
    for store, source in pairs:
        argument = source if isinstance(source, Argument) else source.load()
        hits.extend(_reference_rank(
            store, argument, terms, neighbourhood, limit
        ))
    hits.sort(key=lambda hit: (-hit.score, hit.store or "", hit.identifier))
    return hits[:limit]


def _reference_rank(store, argument, terms, neighbourhood, limit) -> list:
    import math

    from repro.core.search import SearchHit, query_biased_summary, tokenize

    nodes = {node.identifier: node for node in argument.nodes}
    if not nodes:
        return []
    matched: dict[str, set[str]] = {}
    term_weight: dict[str, float] = {}
    substring_terms: set[str] = set()
    for term in terms:
        ids = {
            identifier for identifier, node in nodes.items()
            if term in tokenize(node.text)
        }
        weight = 1.0
        if not ids and len(term) >= 3:
            ids = {
                identifier for identifier, node in nodes.items()
                if term in node.text.lower()
            }
            weight = 0.5
            substring_terms.add(term)
        if not ids:
            continue
        term_weight[term] = weight * math.log1p(len(nodes) / (1 + len(ids)))
        for identifier in ids:
            matched.setdefault(identifier, set()).add(term)
    scores: dict[str, float] = {}
    for identifier, hit_terms in matched.items():
        text = nodes[identifier].text
        tokens = tokenize(text)
        score = 0.0
        for term in terms:
            if term in hit_terms:
                occurrences = (
                    text.lower().count(term)
                    if term in substring_terms
                    else tokens.count(term)
                )
                score += term_weight[term] * (1.0 + math.log1p(occurrences))
        scores[identifier] = score
    best = sorted(
        scores.items(), key=lambda item: (-round(item[1], 6), item[0])
    )[:limit]
    hits = []
    for identifier, score in best:
        node = nodes[identifier]
        hit_terms = tuple(sorted(matched[identifier]))
        rendered = []
        if neighbourhood > 0:
            children = argument.supporters(identifier)
            children.sort(key=lambda child: not any(
                term in child.text.lower() for term in terms
            ))
            rendered = [
                f"{child.identifier}: "
                f"{query_biased_summary(child.text, terms, width=72)}"
                for child in children[:neighbourhood]
            ]
        hits.append(SearchHit(
            identifier=identifier,
            score=round(score, 6),
            node_type=node.node_type.value,
            snippet=query_biased_summary(node.text, hit_terms),
            matched_terms=hit_terms,
            neighbourhood=tuple(rendered),
            store=store,
        ))
    return hits


def load_benchmark_module(name: str):
    """Import a benchmark script by file path (benchmarks/ is no package)."""
    spec = importlib.util.spec_from_file_location(
        name, _BENCHMARK_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _fast_scratch_stores():
    """Run the suite with commit fsyncs off (scratch stores, tmpfs CI).

    The durability discipline itself is exercised explicitly by
    ``test_store_concurrency.py``, which flips the switch back on and
    asserts the fsync ordering; everything else just wants fast commits.
    ``REPRO_STORE_FSYNC=1`` in the environment forces the full-durability
    run suite-wide.
    """
    import os

    from repro.store import set_durability

    if os.environ.get("REPRO_STORE_FSYNC") == "1":
        yield
        return
    previous = set_durability(False)
    try:
        yield
    finally:
        set_durability(previous)


@pytest.fixture(scope="session")
def graph_scale_bench():
    """The graph-scale benchmark module (seed reference + generators)."""
    return load_benchmark_module("bench_graph_scale")


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for seeded tests."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def simple_argument() -> Argument:
    """A minimal well-formed argument: goal -> strategy -> goal -> solution."""
    builder = ArgumentBuilder("simple")
    top = builder.goal("The system is acceptably safe")
    strategy = builder.strategy(
        "Argument over identified hazards", under=top
    )
    hazard = builder.goal("Hazard H1 is acceptably managed", under=strategy)
    builder.solution("Fault tree analysis FTA-1", under=hazard)
    return builder.build()


@pytest.fixture
def hazard_argument() -> Argument:
    """A broader argument with context, assumptions, and several hazards."""
    builder = ArgumentBuilder("hazards")
    top = builder.goal("The braking system is acceptably safe")
    builder.context("Operating context: urban light rail", under=top)
    strategy = builder.strategy(
        "Argument over each identified hazard", under=top
    )
    builder.justification(
        "Hazard identification performed to EN 50126", under=strategy
    )
    for index in range(1, 5):
        goal = builder.goal(
            f"Hazard H{index} is acceptably managed", under=strategy
        )
        builder.solution(f"Mitigation record MR-{index}", under=goal)
    builder.assumption(
        "Track adhesion remains within the design envelope", under=strategy
    )
    return builder.build()


@pytest.fixture
def sample_case(hazard_argument: Argument) -> AssuranceCase:
    """A case over the hazard argument with cited evidence."""
    case = AssuranceCase(
        "brake-case",
        hazard_argument,
        SafetyCriterion(
            "Hazardous failure no more than once per million hours",
            "hazardous_failure_rate",
            1e-6,
        ),
    )
    for index in range(1, 5):
        case.add_evidence(
            EvidenceItem(
                identifier=f"ev{index}",
                kind=EvidenceKind.FAULT_TREE_ANALYSIS,
                description=f"fault tree for hazard H{index}",
                coverage=0.9,
            ),
            cited_by=f"Sn{index}",
        )
    return case
