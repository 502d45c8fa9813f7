"""Seeded generation of claim-bound assurance cases and their stores.

Every workload runs against a case built here from the run's seed: the
seed picks words, which blocks carry seeded defects, and which specs
fail; the *counts* of every kind of node, defect and obligation are
fixed by the size alone, so two seeds cost the same work.

A case is a root goal ``G0`` over a strategy ``S0`` and ``blocks``
hazard blocks.  Block ``i`` is six nodes::

    G{i} goal      "Hazard i in the <w1> <w2> is mitigated"
    S{i} strategy  "Argue over the <w3> analysis of hazard i"
    H{i} goal      "The <w2> <w3> behaves as specified for hazard i"
    E{i} solution  "Test report i for the <w1> <w3>"   (one obligation)
    R{i} solution  "Review record i of the <w2>"
    C{i} context   "Operating context i: <w3> <w1>"

Seeded defects add nodes or links to chosen blocks; :class:`CaseModel`
predicts, without running the program, exactly which violations a check
must report, so workloads can verify the program's verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.claims import OBLIGATION_KEY
from repro.core.argument import Argument, LinkKind, MutationDelta
from repro.core.nodes import Node, NodeType
from repro.store import StoredArgument

WORDS = (
    "brake sensor wheel torque pedal actuator valve pump controller "
    "firmware skid fade latency watchdog redundancy voter timing "
    "thermal pressure steering"
).split()

OBLIGATION_RULE = "evidence-obligation"


def passing_spec(block: int, variant: int) -> str:
    """An obligation that discharges; ``variant`` changes its hash."""
    atom, other = f"a{block}v{variant}", f"b{block}v{variant}"
    kind = variant % 3
    if kind == 0:
        return f"sat: {atom} & ({atom} -> {other})"
    if kind == 1:
        return f"entails: {atom} -> {other} ; {atom} |- {other}"
    return f"valid: {atom} | ~{atom}"


def failing_spec(block: int, variant: int) -> str:
    """An obligation that does not discharge."""
    atom, other = f"a{block}v{variant}", f"b{block}v{variant}"
    if variant % 2 == 0:
        return f"valid: {atom} -> {other}"
    return f"sat: {atom} & ~{atom}"


@dataclass
class CaseModel:
    """What the benchmark knows about a generated case.

    ``violations`` is the set of ``(rule, subject)`` pairs a correct
    check reports; ``failing`` the evidence nodes whose obligation must
    fail; ``variants`` how often each evidence node was re-specified.
    """

    blocks: int
    words: "dict[int, tuple[str, str, str]]"
    failing: "set[str]"
    structural: "set[tuple[str, str]]"
    variants: "dict[str, int]" = field(default_factory=dict)

    @property
    def violations(self) -> "set[tuple[str, str]]":
        return self.structural | {
            (OBLIGATION_RULE, identifier) for identifier in self.failing
        }

    def to_json(self) -> "dict[str, Any]":
        return {
            "blocks": self.blocks,
            "words": {str(k): list(v) for k, v in self.words.items()},
            "failing": sorted(self.failing),
            "structural": sorted(self.structural),
            "variants": self.variants,
        }

    @classmethod
    def from_json(cls, payload: "dict[str, Any]") -> "CaseModel":
        return cls(
            blocks=payload["blocks"],
            words={int(k): tuple(v) for k, v in payload["words"].items()},
            failing=set(payload["failing"]),
            structural={tuple(pair) for pair in payload["structural"]},
            variants=dict(payload["variants"]),
        )

    def swap_spec(self, identifier: str, passing: bool) -> str:
        """A fresh spec for ``identifier`` with the given outcome."""
        block = int(identifier[1:])
        variant = self.variants.get(identifier, 0) + 1
        self.variants[identifier] = variant
        spec = (passing_spec if passing else failing_spec)(block, variant)
        if passing:
            self.failing.discard(identifier)
        else:
            self.failing.add(identifier)
        return spec


def build_case(
    seed: int,
    blocks: int,
    *,
    failing: int = 0,
    unmarked: int = 0,
    bare_strategies: int = 0,
    noun_goals: int = 0,
    leaf_links: int = 0,
) -> "tuple[Argument, CaseModel]":
    """A seeded claim-bound case and the model of its expected verdict.

    The keyword counts are the seeded defects: failing obligations,
    unsupported unmarked goals, strategies without sub-goals,
    noun-phrase goals and solutions that attach context.  Each lands on
    a distinct seeded block.
    """
    rng = random.Random(seed)
    defects = failing + unmarked + bare_strategies + noun_goals + leaf_links
    if defects > blocks:
        raise ValueError("more seeded defects than blocks")
    chosen = rng.sample(range(1, blocks + 1), defects)
    cut = [failing, unmarked, bare_strategies, noun_goals, leaf_links]
    groups: "list[set[int]]" = []
    for size in cut:
        groups.append(set(chosen[:size]))
        chosen = chosen[size:]
    failing_at, unmarked_at, bare_at, noun_at, leaf_at = groups

    words: "dict[int, tuple[str, str, str]]" = {}
    structural: "set[tuple[str, str]]" = set()
    nodes = [
        Node("G0", NodeType.GOAL, "The vehicle braking system is acceptably safe"),
        Node("S0", NodeType.STRATEGY, "Argue over each identified hazard"),
    ]
    links = [("G0", "S0", LinkKind.SUPPORTED_BY)]
    for i in range(1, blocks + 1):
        w1, w2, w3 = rng.sample(WORDS, 3)
        words[i] = (w1, w2, w3)
        spec = (failing_spec if i in failing_at else passing_spec)(i, 0)
        nodes += [
            Node(f"G{i}", NodeType.GOAL,
                 f"Hazard {i} in the {w1} {w2} is mitigated"),
            Node(f"S{i}", NodeType.STRATEGY,
                 f"Argue over the {w3} analysis of hazard {i}"),
            Node(f"H{i}", NodeType.GOAL,
                 f"The {w2} {w3} behaves as specified for hazard {i}"),
            Node(f"E{i}", NodeType.SOLUTION,
                 f"Test report {i} for the {w1} {w3}",
                 metadata=((OBLIGATION_KEY, (spec,)),)),
            Node(f"R{i}", NodeType.SOLUTION, f"Review record {i} of the {w2}"),
            Node(f"C{i}", NodeType.CONTEXT,
                 f"Operating context {i}: {w3} {w1}"),
        ]
        links += [
            ("S0", f"G{i}", LinkKind.SUPPORTED_BY),
            (f"G{i}", f"S{i}", LinkKind.SUPPORTED_BY),
            (f"S{i}", f"H{i}", LinkKind.SUPPORTED_BY),
            (f"H{i}", f"E{i}", LinkKind.SUPPORTED_BY),
            (f"H{i}", f"R{i}", LinkKind.SUPPORTED_BY),
            (f"G{i}", f"C{i}", LinkKind.IN_CONTEXT_OF),
        ]
        if i in unmarked_at:
            nodes.append(Node(f"U{i}", NodeType.GOAL,
                              f"The {w1} remains within limits for hazard {i}"))
            links.append((f"S{i}", f"U{i}", LinkKind.SUPPORTED_BY))
            structural.add(("undeveloped-unmarked", f"U{i}"))
        if i in bare_at:
            nodes.append(Node(f"T{i}", NodeType.STRATEGY,
                              f"Argue over {w2} field data for hazard {i}"))
            links.append((f"G{i}", f"T{i}", LinkKind.SUPPORTED_BY))
            structural.add(("strategy-unsupported", f"T{i}"))
        if i in noun_at:
            nodes.append(Node(f"P{i}", NodeType.GOAL,
                              f"Formal proof that the {w3} holds for hazard {i}",
                              undeveloped=True))
            links.append((f"S{i}", f"P{i}", LinkKind.SUPPORTED_BY))
            structural.add(("goal-not-proposition", f"P{i}"))
        if i in leaf_at:
            links.append((f"R{i}", f"C{i}", LinkKind.IN_CONTEXT_OF))
            subject = f"R{i} ~> C{i}"
            structural.add(("in-context-of-source", subject))
            structural.add(("solution-leaf", subject))
    argument = Argument(f"bench-{blocks}")
    argument.add_nodes(nodes)
    argument.add_links(links)
    model = CaseModel(
        blocks=blocks,
        words=words,
        failing={f"E{i}" for i in failing_at},
        structural=structural,
    )
    return argument, model


def spec_swap_delta(old: Node, model: CaseModel, passing: bool) -> MutationDelta:
    """One edit: replace an evidence node's obligation spec."""
    spec = model.swap_spec(old.identifier, passing)
    new = old.with_metadata({OBLIGATION_KEY: (spec,)})
    return MutationDelta((("replace_node", (old, new)),))


def save_store(
    argument: Argument,
    model: CaseModel,
    directory: Path,
    *,
    history: int = 0,
    tail: int = 0,
    seed: int = 0,
) -> None:
    """Save ``argument`` with a search sidecar, then a journal.

    The journal is one segment of ``history`` spec swaps on distinct
    evidence nodes (earlier edits, already coalesced), then ``tail``
    single-edit segments.
    Each swap replaces an evidence node's spec with another of the same
    outcome, so the expected verdict is unchanged while reads must
    replay a journal.
    """
    argument.save(directory, search_index=True)
    if not history and not tail:
        return
    rng = random.Random(seed ^ 0x7A11)
    handle = StoredArgument(directory)
    if history:
        records = []
        for block in rng.sample(range(1, model.blocks + 1), history):
            old = handle.node(f"E{block}")
            passing = old.identifier not in model.failing
            records += spec_swap_delta(old, model, passing).records
        handle.append_delta(MutationDelta(tuple(records)))
    for _ in range(tail):
        old = handle.node(f"E{rng.randint(1, model.blocks)}")
        passing = old.identifier not in model.failing
        handle.append_delta(spec_swap_delta(old, model, passing))


def canonical_bytes(directory: Path) -> int:
    """Bytes of the stored argument as canonical (compact) JSON."""
    from repro.notation.json_io import argument_to_json
    from repro.store import load_argument

    text = argument_to_json(load_argument(directory), indent=None)
    return len(text.encode("utf-8"))


def directory_bytes(directory: Path) -> int:
    """Total size of the regular files in a store directory."""
    return sum(
        entry.stat().st_size for entry in directory.iterdir() if entry.is_file()
    )
