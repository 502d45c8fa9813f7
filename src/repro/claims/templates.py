"""Rule templates the claim compiler instantiates.

Every template is a **module-level** function whose leading parameters
are the compiled declaration's constants and whose trailing parameters
are the scoped-rule signature (``(node, ctx)`` / ``(link, ctx)`` /
``(ctx)``).  The compiler binds the constants with
``functools.partial`` — module-level functions partially applied with
picklable constants stay picklable, so compiled rule sets run under
the parallel executor unchanged, and the static auditor unwraps the
partial to audit the template body itself.

Templates obey the scope surface table
(:data:`repro.core.analysis.SCOPE_SURFACE`): per-node templates touch
only their node and ``ctx.cites_support``; per-link templates only
endpoint types; global templates the declared whole-graph helpers.
That is what makes every compiled claim module pass the PR 6 audit
gate and behave identically in all four execution modes.
"""

from __future__ import annotations

from ..core.analysis import RuleContext, Violation
from ..core.argument import ArgumentError, Link
from ..core.nodes import Node, NodeType

__all__ = [
    "_tpl_declared_present",
    "_tpl_claim_text",
    "_tpl_claim_supported",
    "_tpl_claim_undeveloped",
    "_tpl_forbid_undeveloped",
    "_tpl_require_supported",
    "_tpl_forbid_link",
    "_tpl_require_mention",
]


def _tpl_declared_present(
    rule_name: str,
    entries: "tuple[str, ...]",
    claim_like: bool,
    ctx: RuleContext,
) -> "list[Violation]":
    """Every declared identifier must exist (claims must be claim-like).

    Global scope: presence is a whole-graph question.  ``entries`` is a
    tuple, so iteration order is the declaration order — deterministic.
    """
    out: "list[Violation]" = []
    for identifier in entries:
        try:
            node_type = ctx.node_type(identifier)
        except (KeyError, ArgumentError):
            out.append(Violation(
                rule_name, identifier,
                "declared in the claim module but missing from the "
                "argument",
            ))
            continue
        if claim_like and not node_type.is_claim_like:
            out.append(Violation(
                rule_name, identifier,
                f"declared as a claim but the node is a "
                f"{node_type.value}",
            ))
    return out


def _tpl_claim_text(
    rule_name: str,
    texts: "dict[str, str]",
    node: Node,
    ctx: RuleContext,
) -> "list[Violation]":
    """A claim node's text must match its declaration."""
    expected = texts.get(node.identifier)
    if expected is None or node.text == expected:
        return []
    return [Violation(
        rule_name, node.identifier,
        f"text diverged from the declared claim (expected "
        f"{expected!r})",
    )]


def _tpl_claim_supported(
    rule_name: str,
    required: "frozenset[str]",
    node: Node,
    ctx: RuleContext,
) -> "list[Violation]":
    """A claim declared ``supported`` must cite support."""
    if node.identifier not in required:
        return []
    if ctx.cites_support(node.identifier):
        return []
    return [Violation(
        rule_name, node.identifier,
        "declared supported but cites no support",
    )]


def _tpl_claim_undeveloped(
    rule_name: str,
    required: "frozenset[str]",
    node: Node,
    ctx: RuleContext,
) -> "list[Violation]":
    """A claim declared ``undeveloped`` must carry the marker."""
    if node.identifier not in required or node.undeveloped:
        return []
    return [Violation(
        rule_name, node.identifier,
        "declared undeveloped but not marked so",
    )]


def _tpl_forbid_undeveloped(
    rule_name: str,
    node: Node,
    ctx: RuleContext,
) -> "list[Violation]":
    """``forbid undeveloped <type>`` — no such node may be undeveloped."""
    if not node.undeveloped:
        return []
    return [Violation(
        rule_name, node.identifier,
        f"a {node.node_type.value} may not be left undeveloped here",
    )]


def _tpl_require_supported(
    rule_name: str,
    node: Node,
    ctx: RuleContext,
) -> "list[Violation]":
    """``require supported <type>`` — developed nodes must cite support."""
    if node.undeveloped or ctx.cites_support(node.identifier):
        return []
    return [Violation(
        rule_name, node.identifier,
        f"a {node.node_type.value} must cite support",
    )]


def _tpl_forbid_link(
    rule_name: str,
    source_type: NodeType,
    target_type: NodeType,
    link: Link,
    ctx: RuleContext,
) -> "list[Violation]":
    """``forbid link <kind> <src> -> <dst>`` — per-link, endpoint types only."""
    if ctx.node_type(link.source) is not source_type:
        return []
    if ctx.node_type(link.target) is not target_type:
        return []
    return [Violation(
        rule_name, str(link),
        f"{source_type.value} -> {target_type.value} connections are "
        f"forbidden",
    )]


def _tpl_require_mention(
    rule_name: str,
    needle: str,
    node: Node,
    ctx: RuleContext,
) -> "list[Violation]":
    """``require mention <type> "needle"`` — text must contain the phrase."""
    if needle.lower() in node.text.lower():
        return []
    return [Violation(
        rule_name, node.identifier,
        f"text must mention {needle!r}",
    )]
