"""Lowering claim modules onto the scoped rule engine.

``compile_module`` turns a parsed :class:`~repro.claims.lang
.ClaimModule` into a :class:`CompiledClaims`: an audited
:class:`~repro.core.wellformed.RuleSet` (claims + declared rules +
the obligation discharge rule) plus the evidence bindings.  Every
emitted rule is a ``functools.partial`` of a module-level template
(:mod:`repro.claims.templates`; ``require acyclic`` and ``require
single_root`` bind the bodies the GSN rules of
:mod:`repro.core.wellformed` use, and take their incremental hooks),
which keeps compiled sets picklable for the parallel executor and
auditable by the PR 6 static gate — the gate registers the shipped
claim rule sets and ``assert_shipped_clean()`` fails the import if a
template ever drifts off its declared scope surface.

Obligation bodies are validated at compile time
(:func:`~repro.claims.obligations.validate_obligation`), so authoring
mistakes fail fast; at check time discharge is total and its results
are cached per (evidence id, fingerprint).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

from ..core.analysis import ScopedRule, global_rule, per_link, per_node
from ..core.argument import Argument
from ..core.wellformed import (
    RuleSet,
    _acyclic,
    _rule_acyclic_delta,
    _rule_single_root_delta,
    _single_root,
)
from . import templates as tpl
from .lang import (
    ClaimModule,
    ForbidLink,
    ForbidUndeveloped,
    RequireAcyclic,
    RequireMention,
    RequireSingleRoot,
    RequireSupported,
    RuleDecl,
)
from .obligations import (
    OBLIGATION_KEY,
    OBLIGATION_RULE,
    Obligation,
    ObligationSyntaxError,
    parse_obligation,
    validate_obligation,
)

__all__ = ["ClaimCompileError", "CompiledClaims", "compile_module"]


class ClaimCompileError(ValueError):
    """A claim module that parses but cannot be lowered soundly."""


@dataclass(frozen=True)
class CompiledClaims:
    """A lowered claim module: rule set + evidence obligation bindings.

    ``rule_set`` plugs into everything that takes a
    :class:`~repro.core.wellformed.RuleSet` — ``repro.check``, the
    incremental checkers, the service.  ``bindings`` maps node
    identifiers to the obligation spec strings their evidence
    declarations bind; :meth:`apply` stamps them onto an argument's
    node metadata so they persist with the case.
    """

    module: ClaimModule
    rule_set: RuleSet
    bindings: "Mapping[str, tuple[str, ...]]"

    @property
    def name(self) -> str:
        return self.module.name

    def obligations(self) -> "tuple[tuple[str, Obligation], ...]":
        """All (evidence id, parsed obligation) pairs, binding order."""
        out: "list[tuple[str, Obligation]]" = []
        for identifier, specs in self.bindings.items():
            for spec in specs:
                out.append((identifier, parse_obligation(spec)))
        return tuple(out)

    def apply(self, argument: Argument) -> int:
        """Stamp the evidence bindings onto *argument*'s metadata.

        Returns the number of nodes annotated.  Nodes the module
        names but the argument lacks are skipped — the compiled
        presence rule reports them as violations instead.
        """
        count = 0
        with argument.batch():
            for identifier, specs in self.bindings.items():
                if identifier not in argument:
                    continue
                node = argument.node(identifier)
                argument.replace_node(
                    node.with_metadata({OBLIGATION_KEY: specs})
                )
                count += 1
        return count


def _compile_rule(decl: RuleDecl) -> ScopedRule:
    if isinstance(decl, ForbidUndeveloped):
        return per_node(
            decl.name,
            f"forbid undeveloped {decl.node_type.value}",
            partial(tpl._tpl_forbid_undeveloped, decl.name),
            node_types=(decl.node_type,),
        )
    if isinstance(decl, RequireSupported):
        return per_node(
            decl.name,
            f"require supported {decl.node_type.value}",
            partial(tpl._tpl_require_supported, decl.name),
            node_types=(decl.node_type,),
        )
    if isinstance(decl, ForbidLink):
        return per_link(
            decl.name,
            f"forbid link {decl.kind.value} {decl.source_type.value} "
            f"-> {decl.target_type.value}",
            partial(
                tpl._tpl_forbid_link, decl.name,
                decl.source_type, decl.target_type,
            ),
            kind=decl.kind,
        )
    if isinstance(decl, RequireMention):
        return per_node(
            decl.name,
            f"require mention {decl.node_type.value} {decl.needle!r}",
            partial(tpl._tpl_require_mention, decl.name, decl.needle),
            node_types=(decl.node_type,),
        )
    if isinstance(decl, RequireAcyclic):
        return global_rule(
            decl.name,
            "require acyclic support",
            partial(_acyclic, decl.name, "support chain forms a cycle"),
            delta_fn=_rule_acyclic_delta,
        )
    if isinstance(decl, RequireSingleRoot):
        return global_rule(
            decl.name,
            "require a single root claim",
            partial(_single_root, decl.name, "claim"),
            delta_fn=_rule_single_root_delta,
        )
    raise ClaimCompileError(f"unknown rule declaration {decl!r}")


def _builtin_rules(module: ClaimModule) -> "list[ScopedRule]":
    """The rules every module implies from its claim declarations."""
    rules: "list[ScopedRule]" = []
    claim_ids = tuple(c.identifier for c in module.claims)
    if claim_ids:
        rules.append(global_rule(
            "claims-present",
            "every declared claim exists and is claim-like",
            partial(tpl._tpl_declared_present, "claims-present",
                    claim_ids, True),
        ))
        texts = {c.identifier: c.text for c in module.claims}
        rules.append(per_node(
            "claim-text",
            "claim node text matches its declaration",
            partial(tpl._tpl_claim_text, "claim-text", texts),
        ))
    supported = frozenset(
        c.identifier for c in module.claims if c.supported
    )
    if supported:
        rules.append(per_node(
            "claim-supported",
            "claims declared supported cite support",
            partial(tpl._tpl_claim_supported, "claim-supported",
                    supported),
        ))
    undeveloped = frozenset(
        c.identifier for c in module.claims if c.undeveloped
    )
    if undeveloped:
        rules.append(per_node(
            "claim-undeveloped",
            "claims declared undeveloped carry the marker",
            partial(tpl._tpl_claim_undeveloped, "claim-undeveloped",
                    undeveloped),
        ))
    evidence_ids = tuple(dict.fromkeys(
        e.identifier for e in module.evidence
        if e.identifier not in claim_ids
    ))
    if evidence_ids:
        rules.append(global_rule(
            "evidence-present",
            "every node named by an evidence declaration exists",
            partial(tpl._tpl_declared_present, "evidence-present",
                    evidence_ids, False),
        ))
    return rules


def compile_module(
    module: ClaimModule, *, audit: bool = True
) -> CompiledClaims:
    """Lower *module* to a :class:`CompiledClaims`.

    ``audit=True`` (the default) runs the PR 6 rule-scope auditor over
    the emitted rule set and raises :class:`ClaimCompileError` on any
    hard finding — a compiled module is only shipped if it provably
    keeps the locality contract.
    """
    for decl in module.evidence:
        try:
            validate_obligation(parse_obligation(decl.spec))
        except ObligationSyntaxError as exc:
            raise ClaimCompileError(
                f"evidence {decl.identifier} (line {decl.line}): {exc}"
            ) from exc
    rules = _builtin_rules(module)
    rules.extend(_compile_rule(decl) for decl in module.rules)
    rules.append(OBLIGATION_RULE)
    rule_set = RuleSet(f"claims:{module.name}", tuple(rules))
    if audit:
        from ..analysis_static.auditor import errors_only

        errors = errors_only(rule_set.audit())
        if errors:
            listing = "; ".join(str(f) for f in errors)
            raise ClaimCompileError(
                f"compiled rule set fails the static audit: {listing}"
            )
    bindings: "dict[str, tuple[str, ...]]" = {}
    for decl in module.evidence:
        bindings[decl.identifier] = (
            bindings.get(decl.identifier, ()) + (decl.spec,)
        )
    return CompiledClaims(module, rule_set, bindings)
