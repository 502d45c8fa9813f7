"""GSN node types for assurance arguments.

The Goal Structuring Notation (GSN Community Standard v1, ref [30]) defines
six principal element kinds, matched exactly by Denney & Pai's formal
syntax ``{s, g, e, a, j, c}`` (§III.I): strategy, goal, evidence
(solution), assumption, justification, and context.  We also model the
standard's *undeveloped* and *away-goal* decorations because the paper's
discussion of module interfaces ('solutions cannot be in the context of an
away goal', §II.B) refers to them.

Nodes carry natural-language ``text``.  Per Kelly [2], a GSN goal must be a
*proposition* — a claim that can be true or false.  The paper points out
that Denney et al.'s generated goal 'Formal proof that Quat4::quat(NED,
Body) holds for Fc.cpp' is *not* a proposition; :func:`looks_propositional`
implements the shallow part-of-speech check a syntax formalisation can
perform, and the tests show it (correctly) cannot tell a meaningful claim
from a well-formed but vacuous one.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = [
    "NodeType",
    "Node",
    "node_type_letter",
    "looks_propositional",
    "DEFAULT_PREFIXES",
]


class NodeType(enum.Enum):
    """The six principal GSN element kinds plus the away goal."""

    GOAL = "goal"
    STRATEGY = "strategy"
    SOLUTION = "solution"
    CONTEXT = "context"
    ASSUMPTION = "assumption"
    JUSTIFICATION = "justification"
    AWAY_GOAL = "away_goal"

    @property
    def letter(self) -> str:
        """Denney & Pai's single-letter code for the node type."""
        return node_type_letter(self)

    @property
    def is_claim_like(self) -> bool:
        """Goals and away goals state claims."""
        return self in (NodeType.GOAL, NodeType.AWAY_GOAL)

    @property
    def is_contextual(self) -> bool:
        """Context, assumptions and justifications attach via InContextOf."""
        return self in (
            NodeType.CONTEXT,
            NodeType.ASSUMPTION,
            NodeType.JUSTIFICATION,
        )


_LETTERS: dict[NodeType, str] = {
    NodeType.GOAL: "g",
    NodeType.STRATEGY: "s",
    NodeType.SOLUTION: "e",  # 'evidence' in Denney & Pai's formalism
    NodeType.CONTEXT: "c",
    NodeType.ASSUMPTION: "a",
    NodeType.JUSTIFICATION: "j",
    NodeType.AWAY_GOAL: "g",
}

#: Conventional identifier prefixes used by GSN practitioners and by our
#: builder when auto-numbering nodes (G1, S1, Sn1, C1, A1, J1).
DEFAULT_PREFIXES: dict[NodeType, str] = {
    NodeType.GOAL: "G",
    NodeType.STRATEGY: "S",
    NodeType.SOLUTION: "Sn",
    NodeType.CONTEXT: "C",
    NodeType.ASSUMPTION: "A",
    NodeType.JUSTIFICATION: "J",
    NodeType.AWAY_GOAL: "AG",
}


def node_type_letter(node_type: NodeType) -> str:
    """Map a node type to Denney & Pai's ``{s, g, e, a, j, c}`` letter."""
    return _LETTERS[node_type]


@dataclass(frozen=True)
class Node:
    """One GSN element.

    ``identifier`` must be unique within an argument.  ``undeveloped``
    marks a goal or strategy whose support is intentionally absent (the
    GSN diamond decoration).  ``module`` names the source module for away
    goals.  ``metadata`` carries the Denney–Naylor–Pai semantic
    annotations (see :mod:`repro.core.metadata`); it is kept as a plain
    tuple-of-pairs mapping so nodes stay hashable.
    """

    identifier: str
    node_type: NodeType
    text: str
    undeveloped: bool = False
    module: str | None = None
    metadata: tuple[tuple[str, tuple[Any, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.identifier:
            raise ValueError("node identifier must be non-empty")
        if not self.text.strip():
            raise ValueError(
                f"node {self.identifier!r} must have non-empty text"
            )
        if self.node_type is NodeType.AWAY_GOAL and not self.module:
            raise ValueError(
                f"away goal {self.identifier!r} must name its module"
            )
        if self.undeveloped and self.node_type not in (
            NodeType.GOAL, NodeType.STRATEGY
        ):
            raise ValueError(
                "only goals and strategies can be undeveloped, not "
                f"{self.node_type.value}"
            )

    def with_text(self, text: str) -> "Node":
        """A copy of this node with different text."""
        return replace(self, text=text)

    def with_metadata(
        self, annotations: Mapping[str, tuple[Any, ...]]
    ) -> "Node":
        """A copy with the given metadata attributes merged in."""
        merged = dict(self.metadata)
        merged.update(annotations)
        return replace(self, metadata=tuple(sorted(merged.items())))

    def metadata_dict(self) -> dict[str, tuple[Any, ...]]:
        """Metadata as a plain dict (attribute name -> parameter tuple)."""
        return dict(self.metadata)

    def __str__(self) -> str:
        marker = " <undeveloped>" if self.undeveloped else ""
        return (
            f"{self.identifier} [{self.node_type.value}] "
            f"{self.text!r}{marker}"
        )


_PROPOSITION_SUBJECT = re.compile(r"^[A-Za-z0-9_'\"].*")
# Verbs whose presence suggests the text asserts something of a subject.
# The alternatives are grouped by first letter: under IGNORECASE a flat
# alternation is tried one branch at a time at every word start, while
# the grouped form rejects a word on its first letter.  Grouping can
# change which alternative matches first, so read only whether it
# matches.
_COPULA_OR_VERB = re.compile(
    r"\b(?:"
    r"a(?:re|chiev\w+|nnunciat\w+|void\w*|lert\w*|rriv\w+|ppl\w+|"
    r"ctivat\w+|ct\w*)|"
    r"b(?:lock\w*|ound\w*|ehav\w+)|"
    r"c(?:ompl\w+|an(?:not)?|over\w*|ontrol\w*|onform\w*|ontain\w*|"
    r"los\w+)|"
    r"d(?:oes|o|etect\w+|isabl\w+|eliver\w*|isengag\w+|eactivat\w+)|"
    r"e(?:nsures?|xceed\w*|nabl\w+|stablish\w+|xecut\w+|ngag\w+|"
    r"nter\w*)|"
    r"f(?:ail\w*|unction\w*)|"
    r"g(?:uarantee\w*|rant\w*)|"
    r"h(?:as|ave|olds?|andl\w+)|"
    r"i(?:s|nhibit\w*|solat\w+|nclud\w+)|"
    r"k(?:eep\w*)|"
    r"l(?:imit\w*|ead\w*)|"
    r"m(?:eets?|itigat\w+|aintain\w+|anag\w+)|"
    r"n(?:otif\w+)|"
    r"o(?:perates?|ccur\w*|pen\w*|perat\w+)|"
    r"p(?:revents?|rovid\w+|rotect\w*|erform\w*)|"
    r"r(?:emain\w*|ecover\w*|espond\w*|educ\w+|ecord\w*|aise\w*|"
    r"eceiv\w+|eturn\w*|each\w*|un\w*)|"
    r"s(?:atisf\w+|hall|upport\w+|top\w*|witch\w+|hut\w*|tart\w*)|"
    r"t(?:olerat\w+|erminat\w+|rip\w*|rigger\w*|ransmit\w*)|"
    r"w(?:as|ere|ill|arn\w*|ork\w*)"
    r")\b",
    re.IGNORECASE,
)
# Leading noun-phrase shapes that are labels, not claims: 'Formal proof
# that X holds', 'Argument over all hazards', 'Testing of module Y'.
_NOUN_PHRASE_OPENERS = re.compile(
    r"^(formal\s+proof|proof|argument|evidence|testing|analysis|review|"
    r"inspection|verification|validation|results?)\b[^.]*?\b"
    r"(that|of|over|for|from)\b",
    re.IGNORECASE,
)


def looks_propositional(text: str) -> bool:
    """Shallow check: could this text be a proposition (true-or-false claim)?

    This is deliberately the *syntactic* check a formalised notation can
    mechanise: sentence shape only.  It flags the noun-phrase goal style the
    paper criticises in Denney et al.'s generated arguments ('Formal proof
    that ... holds for Fc.cpp') while accepting subject-verb claims.  It
    cannot judge whether an accepted sentence is *meaningful* — that is an
    informal property, and the tests demonstrate the gap.
    """
    stripped = text.strip()
    if not stripped:
        return False
    if stripped.endswith("?"):
        return False
    if _NOUN_PHRASE_OPENERS.match(stripped):
        return False
    if not _PROPOSITION_SUBJECT.match(stripped):
        return False
    return bool(_COPULA_OR_VERB.search(stripped))
