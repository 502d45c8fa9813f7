"""GSN well-formedness checking — formalised syntax rules.

This module is the 'specification of syntax' sense of formality the paper
distinguishes (§II.B.1): rules about which elements may connect to which,
mechanically checkable without any notion of truth.

Two rule sets are provided:

* :data:`GSN_STANDARD_RULES` — the GSN Community Standard's connection
  rules as the paper describes them: goals *can* directly support other
  goals; solutions cannot be in the context of an away goal; contextual
  elements receive InContextOf links only; solutions do not cite further
  support; etc.
* :data:`DENNEY_PAI_RULES` — the variant from Denney & Pai's formalisation
  which (as the paper notes) asserts ``(n → m) ∧ [l(n) = g] ⇒ l(m) ∈ {s,
  e, a, j, c}`` — i.e. *goals cannot connect to other goals* — even though
  'GSN explicitly allows goals to support other goals [30]' (§III.I).  The
  ablation benchmark shows this formalisation rejecting valid
  standard-conformant arguments: an object lesson in how a formal rule can
  be precisely wrong.

Every rule is a **scoped rule** (see :mod:`repro.core.analysis`): it
declares whether it inspects one node, one link, or the whole graph, and
the analysis engine executes the set serially, streaming over a
:class:`~repro.store.StoredArgument`'s shards without hydration, in
parallel across process workers, or incrementally against the mutation
delta log — all with identical output.  A :class:`RuleSet` names an
ordered tuple of scoped rules; check one with :func:`repro.check`.  This
design lets the experiments count *which* rules a checker catches and
compare checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .analysis import (
    RuleContext,
    ScopedRule,
    Violation,
    global_rule,
    per_link,
    per_node,
)
from .argument import Link, LinkKind
from .nodes import Node, NodeType, looks_propositional

__all__ = [
    "Violation",
    "RuleSet",
    "GSN_STANDARD_RULES",
    "DENNEY_PAI_RULES",
]


@dataclass(frozen=True)
class RuleSet:
    """An ordered collection of scoped rules forming one notion of
    well-formed."""

    name: str
    rules: tuple[ScopedRule, ...]

    def audit(self) -> "list[Any]":
        """Statically audit every rule against the authoring contract.

        Runs the rule-scope auditor (see
        :mod:`repro.analysis_static.auditor`) over each rule's callable
        — AST analysis, closures and helpers resolved one level deep —
        and returns the :class:`~repro.analysis_static.auditor.
        AuditFinding` list: undeclared context access, hydration-forcing
        calls, mutation, and nondeterminism sources, each with severity
        and source location.  An empty list means the set keeps the
        locality contract that makes the execution modes agree.
        """
        # Imported here: analysis_static imports this module's shipped
        # rule sets for its gate, so a top-level import would cycle.
        from ..analysis_static.auditor import audit_rule_set

        return audit_rule_set(self)


# -- individual rules ------------------------------------------------------
#
# All module-level functions (parallel workers import them by qualified
# name).  Per-link rules may ask the context only for their endpoints'
# types; per-node rules only whether their node cites support — the
# locality contract that makes streaming and partitioning sound.


_SUPPORT_TARGETS = frozenset({
    NodeType.GOAL, NodeType.STRATEGY, NodeType.SOLUTION, NodeType.AWAY_GOAL,
})

_SUPPORT_SOURCES = frozenset({NodeType.GOAL, NodeType.STRATEGY})

_CONTEXT_SOURCES = frozenset({
    NodeType.GOAL, NodeType.STRATEGY, NodeType.AWAY_GOAL,
})


def _rule_supported_by_targets(
    link: Link, ctx: RuleContext
) -> list[Violation]:
    """SupportedBy may only target goals, strategies, or solutions."""
    if link.kind is not LinkKind.SUPPORTED_BY:
        return []
    target = ctx.node_type(link.target)
    if target in _SUPPORT_TARGETS:
        return []
    return [Violation(
        "supported-by-target",
        str(link),
        f"SupportedBy cannot target a {target.value}",
    )]


def _rule_supported_by_sources(
    link: Link, ctx: RuleContext
) -> list[Violation]:
    """Only goals and strategies may cite support."""
    if link.kind is not LinkKind.SUPPORTED_BY:
        return []
    source = ctx.node_type(link.source)
    if source in _SUPPORT_SOURCES:
        return []
    return [Violation(
        "supported-by-source",
        str(link),
        f"a {source.value} cannot cite support",
    )]


def _rule_context_targets(link: Link, ctx: RuleContext) -> list[Violation]:
    """InContextOf may only target context, assumptions, justifications."""
    if link.kind is not LinkKind.IN_CONTEXT_OF:
        return []
    target = ctx.node_type(link.target)
    if target.is_contextual:
        return []
    return [Violation(
        "in-context-of-target",
        str(link),
        "InContextOf must target context, assumption, or "
        f"justification, not {target.value}",
    )]


def _rule_context_sources(link: Link, ctx: RuleContext) -> list[Violation]:
    """Only goals and strategies carry contextual attachments."""
    if link.kind is not LinkKind.IN_CONTEXT_OF:
        return []
    source = ctx.node_type(link.source)
    if source in _CONTEXT_SOURCES:
        return []
    return [Violation(
        "in-context-of-source",
        str(link),
        f"a {source.value} cannot attach context",
    )]


def _rule_away_goal_no_solution_context(
    link: Link, ctx: RuleContext
) -> list[Violation]:
    """'Solutions cannot be in the context of an away goal' (§II.B)."""
    if link.kind is not LinkKind.IN_CONTEXT_OF:
        return []
    if (
        ctx.node_type(link.source) is NodeType.AWAY_GOAL
        and ctx.node_type(link.target) is NodeType.SOLUTION
    ):
        return [Violation(
            "away-goal-solution-context",
            str(link),
            "solutions cannot be in the context of an away goal",
        )]
    return []


def _rule_solutions_are_leaves(
    link: Link, ctx: RuleContext
) -> list[Violation]:
    """Solutions terminate support chains; they cite nothing further."""
    if ctx.node_type(link.source) is not NodeType.SOLUTION:
        return []
    return [Violation(
        "solution-leaf",
        str(link),
        "a solution cannot be the source of any connector",
    )]


def _single_root(
    rule_name: str, noun: str, ctx: RuleContext
) -> list[Violation]:
    """Exactly one root ``noun``: the body of ``single-root`` and of a
    claim module's ``require single_root``, which differ only in name
    and wording.  Either takes :func:`_rule_single_root_delta`."""
    roots = ctx.roots()
    if len(roots) == 1:
        return []
    if not roots:
        return [Violation(rule_name, ctx.name, f"argument has no root {noun}")]
    names = ", ".join(roots)
    return [Violation(
        rule_name, ctx.name,
        f"argument has {len(roots)} root {noun}s ({names})",
    )]


def _rule_single_root(ctx: RuleContext) -> list[Violation]:
    """A complete argument has exactly one root goal."""
    return _single_root("single-root", "goal", ctx)


def _rule_single_root_delta(
    ctx: RuleContext,
    records: tuple,
    previous: tuple[Violation, ...],
) -> "list[Violation] | None":
    """Incremental single-root: keep the verdict unless roots can move.

    The root list is the claim-like nodes with no SupportedBy in-edge,
    in insertion order, and the verdict is a function of that list.  A
    node joins or leaves it only when its claim-likeness or its
    SupportedBy in-edges change, and the order changes only when a
    node is added.  So the previous verdict stands unless a record
    retypes a node across claim-likeness, adds or removes a claim-like
    node, or adds or removes a SupportedBy link into a claim-like node
    — then the hook declines to the full rule.  InContextOf links never
    matter.  A link's target is judged by its type after the batch;
    one added or removed within the batch is left to its node record,
    which by then has declined unless the node is not claim-like.
    """
    changed_nodes: set[str] = set()
    targets: list[str] = []
    for op, payload in records:
        if op == "replace_node":
            old, new = payload
            if old.node_type.is_claim_like != new.node_type.is_claim_like:
                return None
        elif op == "add_node" or op == "remove_node":
            if payload.node_type.is_claim_like:
                return None
            changed_nodes.add(payload.identifier)
        elif payload.kind is LinkKind.SUPPORTED_BY:  # add_ or remove_link
            targets.append(payload.target)
    for target in targets:
        if (
            target not in changed_nodes
            and ctx.node_type(target).is_claim_like
        ):
            return None
    return list(previous)


def _acyclic(rule_name: str, detail: str, ctx: RuleContext) -> list[Violation]:
    """No support cycle: the body of ``acyclic`` and of a claim module's
    ``require acyclic``, which differ only in name and wording.  Either
    takes :func:`_rule_acyclic_delta`."""
    cycle = ctx.find_cycle()
    if cycle is None:
        return []
    return [Violation(rule_name, " -> ".join(cycle), detail)]


def _rule_acyclic(ctx: RuleContext) -> list[Violation]:
    """The support relation must be acyclic."""
    return _acyclic(
        "acyclic", "support chain forms a cycle (circular reasoning)", ctx
    )


def _rule_acyclic_delta(
    ctx: RuleContext,
    records: tuple,
    previous: tuple[Violation, ...],
) -> "list[Violation] | None":
    """Incremental acyclicity: test only the added support edges.

    An acyclic graph stays acyclic under node additions, removals, and
    replacements; only an *added* SupportedBy edge ``s -> t`` can close
    a cycle, and it does so exactly when ``s`` is reachable from ``t``.
    So when the previous check was clean, reachability probes from each
    added edge (O(reachable subtree), tiny on tree-shaped arguments)
    replace the whole-graph DFS.  A previously cyclic argument declines
    to the full rule — removals may or may not have fixed it, and the
    canonical cycle rendering needs the full search anyway.  The probes
    go through the context's support surface (``has_support`` /
    ``supported_walk``), so the hook works identically for a live
    argument and for the no-hydration store-backed checker.
    """
    if previous:
        return None
    added = [
        payload
        for op, payload in records
        if op == "add_link" and payload.kind is LinkKind.SUPPORTED_BY
    ]
    if not added:
        return []
    for link in added:
        if not ctx.has_support(link.source, link.target):
            continue  # removed again within the same delta
        for identifier in ctx.supported_walk(link.target):
            if identifier == link.source:
                return None  # a cycle appeared: render it canonically
    return []


def _rule_developed_or_marked(
    node: Node, ctx: RuleContext
) -> list[Violation]:
    """Every goal is supported, undeveloped-marked, or an away reference."""
    if node.node_type is not NodeType.GOAL:
        return []
    if node.undeveloped or ctx.cites_support(node.identifier):
        return []
    return [Violation(
        "undeveloped-unmarked",
        node.identifier,
        "goal has no support and is not marked undeveloped",
    )]


def _rule_strategies_supported(
    node: Node, ctx: RuleContext
) -> list[Violation]:
    """Every strategy leads to at least one sub-goal (or is undeveloped)."""
    if node.node_type is not NodeType.STRATEGY:
        return []
    if node.undeveloped or ctx.cites_support(node.identifier):
        return []
    return [Violation(
        "strategy-unsupported",
        node.identifier,
        "strategy has no sub-goals and is not marked undeveloped",
    )]


def _rule_goals_propositional(
    node: Node, ctx: RuleContext
) -> list[Violation]:
    """Goal text must read as a proposition (Kelly [2]).

    This is the shallow part-of-speech check §II.B.1 describes — it flags
    Denney-style 'Formal proof that X holds' noun phrases but cannot judge
    meaning.
    """
    if node.node_type not in (NodeType.GOAL, NodeType.AWAY_GOAL):
        return []
    if looks_propositional(node.text):
        return []
    return [Violation(
        "goal-not-proposition",
        node.identifier,
        f"goal text does not read as a proposition: {node.text!r}",
    )]


def _rule_no_goal_to_goal(link: Link, ctx: RuleContext) -> list[Violation]:
    """Denney & Pai's rule: goals cannot connect directly to other goals.

    The paper notes this *contradicts* the GSN standard, which explicitly
    allows goal-to-goal support.  Included only in
    :data:`DENNEY_PAI_RULES` so the ablation can quantify the damage.
    """
    if link.kind is not LinkKind.SUPPORTED_BY:
        return []
    if (
        ctx.node_type(link.source) is NodeType.GOAL
        and ctx.node_type(link.target) is NodeType.GOAL
    ):
        return [Violation(
            "denney-pai-no-goal-to-goal",
            str(link),
            "goal connects directly to another goal "
            "(rejected by the Denney-Pai formalisation; "
            "allowed by the GSN standard)",
        )]
    return []


_STANDARD_RULES: tuple[ScopedRule, ...] = (
    per_link("supported-by-target",
             "SupportedBy targets goals, strategies, or solutions",
             _rule_supported_by_targets,
             kind=LinkKind.SUPPORTED_BY),
    per_link("supported-by-source",
             "only goals and strategies cite support",
             _rule_supported_by_sources,
             kind=LinkKind.SUPPORTED_BY),
    per_link("in-context-of-target",
             "InContextOf targets contextual elements",
             _rule_context_targets,
             kind=LinkKind.IN_CONTEXT_OF),
    per_link("in-context-of-source",
             "only goals and strategies attach context",
             _rule_context_sources,
             kind=LinkKind.IN_CONTEXT_OF),
    per_link("away-goal-solution-context",
             "solutions cannot contextualise away goals",
             _rule_away_goal_no_solution_context,
             kind=LinkKind.IN_CONTEXT_OF),
    per_link("solution-leaf",
             "solutions are terminal",
             _rule_solutions_are_leaves),
    global_rule("single-root",
                "exactly one root goal",
                _rule_single_root,
                delta_fn=_rule_single_root_delta),
    global_rule("acyclic",
                "no circular support",
                _rule_acyclic,
                delta_fn=_rule_acyclic_delta),
    per_node("undeveloped-unmarked",
             "unsupported goals must be marked undeveloped",
             _rule_developed_or_marked,
             node_types=(NodeType.GOAL,)),
    per_node("strategy-unsupported",
             "strategies must lead to sub-goals",
             _rule_strategies_supported,
             node_types=(NodeType.STRATEGY,)),
    per_node("goal-not-proposition",
             "goal text must be a proposition",
             _rule_goals_propositional,
             node_types=(NodeType.GOAL, NodeType.AWAY_GOAL)),
)

#: The GSN Community Standard rule set (as characterised in the paper).
GSN_STANDARD_RULES = RuleSet("gsn-standard", _STANDARD_RULES)

#: Denney & Pai's formalisation: the standard rules *plus* their
#: goal-to-goal prohibition that the paper flags as an error.
DENNEY_PAI_RULES = RuleSet(
    "denney-pai",
    _STANDARD_RULES + (
        per_link("denney-pai-no-goal-to-goal",
                 "goals cannot connect to other goals "
                 "(erroneous formalisation)",
                 _rule_no_goal_to_goal,
                 kind=LinkKind.SUPPORTED_BY),
    ),
)

