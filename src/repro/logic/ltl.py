"""Linear temporal logic with finite-trace semantics.

Brunel & Cazin formalise safety-argument claims in LTL so that 'automatic
validation of the argumentation' becomes possible (§III.G).  Their running
example formalises 'the Detect and Avoid function is correct' as a temporal
property over obstacle distance.  This module supplies:

* an LTL AST and parser (``G``, ``F``, ``X``, ``U``, ``R`` plus the
  propositional connectives but ``<->``).  The tables of ``_LtlClimber``
  are the grammar's single source; precedence, loosest to tightest:
  ``->`` (right-associative), ``|``, ``&``, ``U``/``R``, then the
  prefixes ``!``/``~``, ``G``, ``F``, ``X``.  The parser is the
  propositional one (:mod:`repro.logic.propositional`) run on these
  tables,
* finite-trace semantics (LTLf-style: ``X`` is the strong next; at the end
  of the trace ``X p`` is false and ``G p`` holds iff ``p`` held to the
  end), decided by :func:`holds` in one bottom-up pass that keeps each
  subformula's truth over the whole trace as the bits of one int, so
  each subformula is evaluated once and no nesting depth exhausts the
  stack,
* trace generators for the UAV detect-and-avoid scenario used by the
  examples and benchmarks.

States are just sets of true atom names; a trace is a sequence of states.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

from .propositional import _Climber, _tokenise

__all__ = [
    "LtlFormula",
    "Prop",
    "LNot",
    "LAnd",
    "LOr",
    "LImplies",
    "Next",
    "Always",
    "Eventually",
    "Until",
    "Release",
    "parse_ltl",
    "LtlSyntaxError",
    "Trace",
    "holds",
    "atoms_of_ltl",
    "detect_and_avoid_property",
]


@dataclass(frozen=True, slots=True)
class Prop:
    """An atomic proposition, true in a state that contains its name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class LNot:
    operand: "LtlFormula"

    def __str__(self) -> str:
        return f"!({self.operand})"


@dataclass(frozen=True, slots=True)
class LAnd:
    left: "LtlFormula"
    right: "LtlFormula"

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True, slots=True)
class LOr:
    left: "LtlFormula"
    right: "LtlFormula"

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True, slots=True)
class LImplies:
    antecedent: "LtlFormula"
    consequent: "LtlFormula"

    def __str__(self) -> str:
        return f"({self.antecedent} -> {self.consequent})"


@dataclass(frozen=True, slots=True)
class Next:
    """Strong next: requires a successor state."""

    operand: "LtlFormula"

    def __str__(self) -> str:
        return f"X({self.operand})"


@dataclass(frozen=True, slots=True)
class Always:
    operand: "LtlFormula"

    def __str__(self) -> str:
        return f"G({self.operand})"


@dataclass(frozen=True, slots=True)
class Eventually:
    operand: "LtlFormula"

    def __str__(self) -> str:
        return f"F({self.operand})"


@dataclass(frozen=True, slots=True)
class Until:
    """``left U right``: right eventually holds, left holds until then."""

    left: "LtlFormula"
    right: "LtlFormula"

    def __str__(self) -> str:
        return f"({self.left} U {self.right})"


@dataclass(frozen=True, slots=True)
class Release:
    """``left R right``: dual of until."""

    left: "LtlFormula"
    right: "LtlFormula"

    def __str__(self) -> str:
        return f"({self.left} R {self.right})"


LtlFormula = Union[
    Prop, LNot, LAnd, LOr, LImplies, Next, Always, Eventually, Until, Release
]

Trace = Sequence[frozenset[str]]


class LtlSyntaxError(ValueError):
    """Raised when :func:`parse_ltl` rejects its input."""


#: The propositional tokens less ``<->``, which LTL does not have.
_LTL_TOKEN = re.compile(r"(->|[()&|~!]|\w+)|(\S)")


class _LtlClimber(_Climber):
    binary = {
        "->": (1, True, LImplies),
        "|": (2, False, LOr),
        "&": (3, False, LAnd),
        "U": (4, False, Until),
        "R": (4, False, Release),
    }
    prefix = {
        "!": LNot, "~": LNot, "G": Always, "F": Eventually, "X": Next,
    }
    error = LtlSyntaxError
    trailing = "trailing input at token {!r}"

    def primary(self, token: str) -> LtlFormula:
        if not (token[0].isalpha() or token[0] == "_"):
            raise LtlSyntaxError(f"bad proposition {token!r}")
        return Prop(token)


def parse_ltl(text: str) -> LtlFormula:
    """Parse an LTL formula, e.g. ``G (clear -> F safe)``."""
    return _LtlClimber(_tokenise(text, LtlSyntaxError, _LTL_TOKEN)).whole()


def _postorder(formula: LtlFormula) -> list[LtlFormula]:
    """Every node once, children before parents, without recursion.

    Nodes are told apart by ``id()``: the dataclasses' generated
    ``__hash__`` and ``__eq__`` recurse once per nesting level, so
    hashing a deep formula would overflow the stack.
    """
    order: list[LtlFormula] = []
    seen: set[int] = set()
    stack: list[tuple[LtlFormula, bool]] = [(formula, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, (LNot, Next, Always, Eventually)):
            stack.append((node.operand, False))
        elif isinstance(node, LImplies):
            stack += ((node.consequent, False), (node.antecedent, False))
        elif isinstance(node, (LAnd, LOr, Until, Release)):
            stack += ((node.right, False), (node.left, False))
        elif not isinstance(node, Prop):
            raise TypeError(f"not an LTL formula: {node!r}")
    return order


def atoms_of_ltl(formula: LtlFormula) -> frozenset[str]:
    """All proposition names in the formula."""
    return frozenset(
        node.name for node in _postorder(formula) if isinstance(node, Prop)
    )


def _until(left: int, right: int, length: int) -> int:
    """The column of ``left U right``, by one backward pass."""
    column = 0
    for i in range(length - 1, -1, -1):
        if right >> i & 1 or (left >> i & 1 and column >> (i + 1) & 1):
            column |= 1 << i
    return column


def holds(formula: LtlFormula, trace: Trace, position: int = 0) -> bool:
    """Finite-trace satisfaction: does ``trace, position |= formula``?

    Each subformula is evaluated once, bottom-up, into its truth column:
    one int whose bit i says whether it holds at state i.

    Raises :class:`ValueError` for positions outside the trace; an empty
    trace satisfies nothing (there is no state 0).
    """
    length = len(trace)
    if position >= length or position < 0:
        raise ValueError(
            f"position {position} outside trace of length {length}"
        )
    full = (1 << length) - 1
    column: dict[int, int] = {}
    for node in _postorder(formula):
        if isinstance(node, Prop):
            bits = sum(
                1 << i for i, state in enumerate(trace) if node.name in state
            )
        elif isinstance(node, LImplies):
            antecedent = column[id(node.antecedent)]
            bits = (full ^ antecedent) | column[id(node.consequent)]
        elif isinstance(node, (LAnd, LOr, Until, Release)):
            left, right = column[id(node.left)], column[id(node.right)]
            if isinstance(node, LAnd):
                bits = left & right
            elif isinstance(node, LOr):
                bits = left | right
            elif isinstance(node, Until):
                bits = _until(left, right, length)
            else:  # left R right == !(!left U !right)
                bits = full ^ _until(full ^ left, full ^ right, length)
        else:
            operand = column[id(node.operand)]
            if isinstance(node, LNot):
                bits = full ^ operand
            elif isinstance(node, Next):
                bits = operand >> 1  # strong: false at the last state
            elif isinstance(node, Eventually):
                bits = (1 << operand.bit_length()) - 1
            else:  # Always: the states after the operand's last failure
                failed = (full ^ operand).bit_length()
                bits = operand >> failed << failed
        column[id(node)] = bits
    return bool(column[id(formula)] >> position & 1)


def detect_and_avoid_property() -> LtlFormula:
    """Brunel & Cazin's UAV claim, in our atom vocabulary.

    The paper formalises 'the Detect and Avoid function is correct' as
    ``G (d_obstacle < d_min) -> ((d_obstacle != 0) U (d_obstacle > d_min))``.
    Rendered over boolean atoms: whenever an intrusion occurs
    (``intrusion`` = distance below minimum), no collision happens
    (``no_collision`` = distance nonzero) until separation is restored
    (``separated`` = distance above minimum).
    """
    return parse_ltl("G (intrusion -> (no_collision U separated))")
