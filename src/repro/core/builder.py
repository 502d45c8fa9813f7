"""A fluent builder for assurance arguments.

Constructing GSN graphs node-by-node is verbose; the builder auto-numbers
identifiers with the conventional prefixes (G1, S1, Sn1, C1, A1, J1) and
keeps track of the 'current' parent so arguments read top-down, the way a
safety engineer sketches them::

    builder = ArgumentBuilder("acme-brake")
    top = builder.goal("The braking system is acceptably safe")
    builder.context("Operating context: urban light rail", under=top)
    strategy = builder.strategy("Argument over all identified hazards",
                                under=top)
    h1 = builder.goal("Hazard H1 (overrun) is acceptably managed",
                      under=strategy)
    builder.solution("Overrun fault tree analysis", under=h1)
    argument = builder.build()

``build`` checks well-formedness by default, so builder output is valid by
construction — the property the §VI.D experiment leans on.
"""

from __future__ import annotations

from typing import Iterable

from .argument import Argument, LinkKind
from .nodes import DEFAULT_PREFIXES, Node, NodeType
from .wellformed import GSN_STANDARD_RULES, RuleSet, Violation

__all__ = ["ArgumentBuilder", "BuildError"]


class BuildError(ValueError):
    """Raised when ``build`` finds the argument ill-formed."""

    def __init__(self, violations: list[Violation]) -> None:
        summary = "; ".join(str(v) for v in violations[:5])
        if len(violations) > 5:
            summary += f"; ... ({len(violations)} total)"
        super().__init__(f"argument is not well-formed: {summary}")
        self.violations = violations


class ArgumentBuilder:
    """Incremental construction with automatic identifiers."""

    def __init__(self, name: str = "argument") -> None:
        self._argument = Argument(name=name)
        self._counters: dict[NodeType, int] = {t: 0 for t in NodeType}

    def _next_identifier(self, node_type: NodeType) -> str:
        self._counters[node_type] += 1
        return f"{DEFAULT_PREFIXES[node_type]}{self._counters[node_type]}"

    def _add(
        self,
        node_type: NodeType,
        text: str,
        under: str | None,
        link: LinkKind,
        identifier: str | None = None,
        undeveloped: bool = False,
        module: str | None = None,
    ) -> str:
        node_id = identifier or self._next_identifier(node_type)
        # Node + attaching link are one logical mutation (one version
        # bump), so derived indices refresh once per builder call.
        with self._argument.batch():
            self._argument.add_node(Node(
                identifier=node_id,
                node_type=node_type,
                text=text,
                undeveloped=undeveloped,
                module=module,
            ))
            if under is not None:
                self._argument.add_link(under, node_id, link)
        return node_id

    def goal(
        self,
        text: str,
        under: str | None = None,
        identifier: str | None = None,
        undeveloped: bool = False,
    ) -> str:
        """Add a goal, optionally supported by ``under``; returns its id."""
        return self._add(
            NodeType.GOAL, text, under, LinkKind.SUPPORTED_BY,
            identifier, undeveloped,
        )

    def strategy(
        self,
        text: str,
        under: str,
        identifier: str | None = None,
        undeveloped: bool = False,
    ) -> str:
        """Add a strategy under a goal."""
        return self._add(
            NodeType.STRATEGY, text, under, LinkKind.SUPPORTED_BY,
            identifier, undeveloped,
        )

    def solution(
        self, text: str, under: str, identifier: str | None = None
    ) -> str:
        """Add a solution (evidence citation) under a goal or strategy."""
        return self._add(
            NodeType.SOLUTION, text, under, LinkKind.SUPPORTED_BY, identifier
        )

    def context(
        self, text: str, under: str, identifier: str | None = None
    ) -> str:
        """Attach context to a goal or strategy."""
        return self._add(
            NodeType.CONTEXT, text, under, LinkKind.IN_CONTEXT_OF, identifier
        )

    def assumption(
        self, text: str, under: str, identifier: str | None = None
    ) -> str:
        """Attach an assumption."""
        return self._add(
            NodeType.ASSUMPTION, text, under, LinkKind.IN_CONTEXT_OF,
            identifier,
        )

    def justification(
        self, text: str, under: str, identifier: str | None = None
    ) -> str:
        """Attach a justification."""
        return self._add(
            NodeType.JUSTIFICATION, text, under, LinkKind.IN_CONTEXT_OF,
            identifier,
        )

    def away_goal(
        self,
        text: str,
        module: str,
        under: str,
        identifier: str | None = None,
    ) -> str:
        """Reference a goal argued in another module."""
        return self._add(
            NodeType.AWAY_GOAL, text, under, LinkKind.SUPPORTED_BY,
            identifier, module=module,
        )

    def support(self, parent: str, child: str) -> None:
        """Add an extra SupportedBy link between existing nodes."""
        self._argument.supported_by(parent, child)

    def bulk(self):
        """Batch many builder calls into one version bump.

        Delegates to :meth:`Argument.batch`; use when generating large
        arguments programmatically::

            with builder.bulk():
                for hazard in hazards:
                    goal = builder.goal(..., under=strategy)
                    builder.solution(..., under=goal)
        """
        return self._argument.batch()

    @property
    def argument(self) -> Argument:
        """The argument under construction (live reference)."""
        return self._argument

    def build(
        self,
        check: bool = True,
        rules: RuleSet = GSN_STANDARD_RULES,
    ) -> Argument:
        """Finish; by default verify well-formedness and raise on failure."""
        if check:
            # Imported here: repro.checking imports this package.
            from ..checking import check as run_check

            violations = list(run_check(self._argument, rules).violations)
            if violations:
                raise BuildError(violations)
        return self._argument
