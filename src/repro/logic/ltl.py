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
  end) — evaluated both by a direct recursive evaluator and an equivalent
  dynamic-programming evaluator used to cross-check it,
* trace generators for the UAV detect-and-avoid scenario used by the
  examples and benchmarks.

States are just sets of true atom names; a trace is a sequence of states.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

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
    "holds_dp",
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


def atoms_of_ltl(formula: LtlFormula) -> frozenset[str]:
    """All proposition names in the formula."""
    if isinstance(formula, Prop):
        return frozenset((formula.name,))
    if isinstance(formula, (LNot, Next, Always, Eventually)):
        return atoms_of_ltl(formula.operand)
    if isinstance(formula, LImplies):
        return atoms_of_ltl(formula.antecedent) | atoms_of_ltl(
            formula.consequent
        )
    return atoms_of_ltl(formula.left) | atoms_of_ltl(formula.right)


def holds(formula: LtlFormula, trace: Trace, position: int = 0) -> bool:
    """Finite-trace satisfaction: does ``trace, position |= formula``?

    Raises :class:`ValueError` for positions outside the trace; an empty
    trace satisfies nothing (there is no state 0).
    """
    if position >= len(trace) or position < 0:
        raise ValueError(
            f"position {position} outside trace of length {len(trace)}"
        )
    if isinstance(formula, Prop):
        return formula.name in trace[position]
    if isinstance(formula, LNot):
        return not holds(formula.operand, trace, position)
    if isinstance(formula, LAnd):
        return holds(formula.left, trace, position) and holds(
            formula.right, trace, position
        )
    if isinstance(formula, LOr):
        return holds(formula.left, trace, position) or holds(
            formula.right, trace, position
        )
    if isinstance(formula, LImplies):
        return (not holds(formula.antecedent, trace, position)) or holds(
            formula.consequent, trace, position
        )
    if isinstance(formula, Next):
        if position + 1 >= len(trace):
            return False  # strong next fails at the last state
        return holds(formula.operand, trace, position + 1)
    if isinstance(formula, Always):
        return all(
            holds(formula.operand, trace, i)
            for i in range(position, len(trace))
        )
    if isinstance(formula, Eventually):
        return any(
            holds(formula.operand, trace, i)
            for i in range(position, len(trace))
        )
    if isinstance(formula, Until):
        for i in range(position, len(trace)):
            if holds(formula.right, trace, i):
                return True
            if not holds(formula.left, trace, i):
                return False
        return False
    if isinstance(formula, Release):
        # left R right == !(!left U !right)
        return not holds(
            Until(LNot(formula.left), LNot(formula.right)), trace, position
        )
    raise TypeError(f"not an LTL formula: {formula!r}")


def holds_dp(formula: LtlFormula, trace: Trace) -> bool:
    """Dynamic-programming evaluator (backwards over the trace).

    Semantically identical to :func:`holds` at position 0; kept as an
    independent implementation so property tests can cross-check the two.
    """
    if not trace:
        raise ValueError("empty trace")
    subformulas = _subformulas_postorder(formula)
    table: dict[LtlFormula, list[bool]] = {}
    length = len(trace)
    for sub in subformulas:
        row = [False] * length
        for i in range(length - 1, -1, -1):
            if isinstance(sub, Prop):
                row[i] = sub.name in trace[i]
            elif isinstance(sub, LNot):
                row[i] = not table[sub.operand][i]
            elif isinstance(sub, LAnd):
                row[i] = table[sub.left][i] and table[sub.right][i]
            elif isinstance(sub, LOr):
                row[i] = table[sub.left][i] or table[sub.right][i]
            elif isinstance(sub, LImplies):
                row[i] = (not table[sub.antecedent][i]) or table[
                    sub.consequent
                ][i]
            elif isinstance(sub, Next):
                row[i] = i + 1 < length and table[sub.operand][i + 1]
            elif isinstance(sub, Always):
                row[i] = table[sub.operand][i] and (
                    i + 1 >= length or row[i + 1]
                )
            elif isinstance(sub, Eventually):
                row[i] = table[sub.operand][i] or (
                    i + 1 < length and row[i + 1]
                )
            elif isinstance(sub, Until):
                row[i] = table[sub.right][i] or (
                    table[sub.left][i] and i + 1 < length and row[i + 1]
                )
            elif isinstance(sub, Release):
                row[i] = table[sub.right][i] and (
                    table[sub.left][i] or i + 1 >= length or row[i + 1]
                )
            else:
                raise TypeError(f"not an LTL formula: {sub!r}")
        table[sub] = row
    return table[formula][0]


def _subformulas_postorder(formula: LtlFormula) -> list[LtlFormula]:
    seen: list[LtlFormula] = []

    def visit(node: LtlFormula) -> None:
        if node in seen:
            return
        if isinstance(node, (LNot, Next, Always, Eventually)):
            visit(node.operand)
        elif isinstance(node, LImplies):
            visit(node.antecedent)
            visit(node.consequent)
        elif not isinstance(node, Prop):
            visit(node.left)
            visit(node.right)
        seen.append(node)

    visit(formula)
    return seen


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
