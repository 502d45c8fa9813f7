"""Propositional logic: formula AST, parser, transforms, and evaluation.

This module is the foundation for the formal side of the paper's analysis:

* the formal-fallacy detectors in :mod:`repro.fallacies.formal_detector`
  (denying the antecedent, affirming the consequent, begging the question,
  incompatible premises, premise/conclusion contradiction) operate on
  propositional renderings of arguments;
* :mod:`repro.logic.sat` and :mod:`repro.logic.entailment` give the
  mechanical argument-validation services the surveyed proposals assume;
* :mod:`repro.formalise.translator` renders Rushby-style partially
  formalised assurance arguments into these formulas.

Formula syntax accepted by :func:`parse`:

* atoms: identifiers (``on_grnd``, ``threv_en``)
* negation: ``~p`` or ``!p``
* conjunction: ``p & q``
* disjunction: ``p | q``
* implication: ``p -> q`` (right-associative)
* biconditional: ``p <-> q`` (right-associative)
* constants ``true`` and ``false``
* parentheses group as usual.

Precedence (loosest to tightest): ``<->``, ``->``, ``|``, ``&``, ``~``.
The tables of ``_PropClimber`` are the grammar's single source: one
precedence-climbing routine, ``_Climber``, parses this syntax, the LTL
syntax of :mod:`repro.logic.ltl` and the formulas of FOL obligations
(:mod:`repro.claims.obligations`), each from its own tables.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Union

__all__ = [
    "Formula",
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "TRUE",
    "FALSE",
    "Verum",
    "Falsum",
    "parse",
    "PropositionalSyntaxError",
    "atoms_of",
    "evaluate",
    "all_valuations",
    "is_tautology",
    "is_contradiction",
    "is_satisfiable_bruteforce",
    "models_of",
    "to_nnf",
    "to_cnf",
    "cnf_clauses",
    "equivalent",
    "conjoin",
    "disjoin",
    "substitute",
]


@dataclass(frozen=True, slots=True)
class Atom:
    """A propositional atom, identified by name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Verum:
    """The constant true."""

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True, slots=True)
class Falsum:
    """The constant false."""

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True, slots=True)
class Not:
    """Negation."""

    operand: "Formula"

    def __str__(self) -> str:
        return f"~{_wrap(self.operand)}"


@dataclass(frozen=True, slots=True)
class And:
    """Binary conjunction."""

    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True, slots=True)
class Or:
    """Binary disjunction."""

    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True, slots=True)
class Implies:
    """Material implication."""

    antecedent: "Formula"
    consequent: "Formula"

    def __str__(self) -> str:
        return f"({self.antecedent} -> {self.consequent})"


@dataclass(frozen=True, slots=True)
class Iff:
    """Biconditional."""

    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({self.left} <-> {self.right})"


Formula = Union[Atom, Verum, Falsum, Not, And, Or, Implies, Iff]

TRUE = Verum()
FALSE = Falsum()


def _wrap(formula: Formula) -> str:
    if isinstance(formula, (Atom, Verum, Falsum, Not)):
        return str(formula)
    return f"({formula})"


class PropositionalSyntaxError(ValueError):
    """Raised when :func:`parse` rejects its input."""


#: One token per match: a connective or parenthesis (``<->`` before
#: ``->``), a run of word characters (``str.isalnum`` or ``_``, exactly
#: ``\w``), or — group 2 — any other non-whitespace character, which is
#: a syntax error.  Whitespace (``\s`` is ``str.isspace``) falls between
#: matches.
_TOKEN = re.compile(r"(<->|->|[()&|~!]|\w+)|(\S)")


def _tokenise(
    text: str,
    error: type[ValueError] = PropositionalSyntaxError,
    pattern: re.Pattern[str] = _TOKEN,
) -> list[str]:
    tokens: list[str] = []
    for match in pattern.finditer(text):
        token = match.group(1)
        if token is None:
            raise error(
                f"unexpected character {match.group(2)!r} at position "
                f"{match.start()}"
            )
        tokens.append(token)
    return tokens


class _Climber:
    """Precedence climbing over a token list, driven by a language's tables.

    ``binary`` maps each infix token to ``(precedence, right-associative,
    constructor)``; a higher precedence binds tighter.  ``prefix`` maps
    each prefix token to its constructor; prefixes bind tighter than any
    infix token.  :meth:`primary` turns the token it is given into an
    atom; parentheses are handled here.  A run of prefixes is a loop and
    a left-associative chain is a loop, so only a parenthesis level or a
    right-associative level costs a frame.  ``error`` and the message
    attributes give each language its own syntax errors.
    """

    binary: Mapping[str, tuple[int, bool, Callable[..., object]]] = {}
    prefix: Mapping[str, Callable[..., object]] = {}
    error: type[ValueError] = PropositionalSyntaxError
    end = "unexpected end of input"
    unclosed = "expected ')'"
    trailing = "trailing input from token {!r}"

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        if self.pos == len(self.tokens):
            raise self.error(self.end)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def primary(self, token: str) -> object:
        raise NotImplementedError

    def formula(self, floor: int = 0) -> Any:
        """The longest formula here whose infix tokens bind at ``floor``
        or tighter."""
        prefix, binary, tokens = self.prefix, self.binary, self.tokens
        prefixes = []
        token = self.take()
        while token in prefix:
            prefixes.append(prefix[token])
            token = self.take()
        if token == "(":
            left = self.formula()
            if (token := self.take()) != ")":
                raise self.error(self.unclosed.format(token))
        else:
            left = self.primary(token)
        for build in reversed(prefixes):
            left = build(left)
        while self.pos < len(tokens):
            infix = binary.get(tokens[self.pos])
            if infix is None or infix[0] < floor:
                break
            self.pos += 1
            precedence, right, build = infix
            left = build(
                left, self.formula(precedence if right else precedence + 1)
            )
        return left

    def whole(self) -> Any:
        """One formula spanning every remaining token."""
        formula = self.formula()
        if self.pos < len(self.tokens):
            raise self.error(self.trailing.format(self.tokens[self.pos]))
        return formula


class _PropClimber(_Climber):
    binary = {
        "<->": (1, True, Iff),
        "->": (2, True, Implies),
        "|": (3, False, Or),
        "&": (4, False, And),
    }
    prefix = {"~": Not, "!": Not}

    def primary(self, token: str) -> Formula:
        if token == "true":
            return TRUE
        if token == "false":
            return FALSE
        if not (token[0].isalpha() or token[0] == "_"):
            raise PropositionalSyntaxError(f"bad atom name {token!r}")
        return Atom(token)


def parse(text: str) -> Formula:
    """Parse a propositional formula from text."""
    return _PropClimber(_tokenise(text)).whole()


def atoms_of(formula: Formula) -> frozenset[Atom]:
    """All atoms occurring in the formula."""
    if isinstance(formula, Atom):
        return frozenset((formula,))
    if isinstance(formula, (Verum, Falsum)):
        return frozenset()
    if isinstance(formula, Not):
        return atoms_of(formula.operand)
    if isinstance(formula, Implies):
        return atoms_of(formula.antecedent) | atoms_of(formula.consequent)
    return atoms_of(formula.left) | atoms_of(formula.right)


Valuation = Mapping[Atom, bool]


def evaluate(formula: Formula, valuation: Valuation) -> bool:
    """Evaluate the formula under a (total) valuation of its atoms."""
    if isinstance(formula, Atom):
        try:
            return valuation[formula]
        except KeyError:
            raise KeyError(
                f"valuation does not assign atom {formula.name!r}"
            ) from None
    if isinstance(formula, Verum):
        return True
    if isinstance(formula, Falsum):
        return False
    if isinstance(formula, Not):
        return not evaluate(formula.operand, valuation)
    if isinstance(formula, And):
        return evaluate(formula.left, valuation) and evaluate(
            formula.right, valuation
        )
    if isinstance(formula, Or):
        return evaluate(formula.left, valuation) or evaluate(
            formula.right, valuation
        )
    if isinstance(formula, Implies):
        return (not evaluate(formula.antecedent, valuation)) or evaluate(
            formula.consequent, valuation
        )
    if isinstance(formula, Iff):
        return evaluate(formula.left, valuation) == evaluate(
            formula.right, valuation
        )
    raise TypeError(f"not a formula: {formula!r}")


def all_valuations(atoms: Iterable[Atom]) -> Iterator[dict[Atom, bool]]:
    """Yield every valuation of the given atoms (2^n of them)."""
    atom_list = sorted(set(atoms), key=lambda a: a.name)
    for bits in itertools.product((False, True), repeat=len(atom_list)):
        yield dict(zip(atom_list, bits))


def is_tautology(formula: Formula) -> bool:
    """Truth-table check that the formula is true under every valuation."""
    return all(
        evaluate(formula, v) for v in all_valuations(atoms_of(formula))
    )


def is_contradiction(formula: Formula) -> bool:
    """Truth-table check that the formula is false under every valuation."""
    return all(
        not evaluate(formula, v) for v in all_valuations(atoms_of(formula))
    )


def is_satisfiable_bruteforce(formula: Formula) -> bool:
    """Truth-table satisfiability; exponential, used as a test oracle."""
    return any(
        evaluate(formula, v) for v in all_valuations(atoms_of(formula))
    )


def models_of(formula: Formula) -> list[dict[Atom, bool]]:
    """All satisfying valuations (exponential; for small formulas/tests)."""
    return [
        v for v in all_valuations(atoms_of(formula)) if evaluate(formula, v)
    ]


def equivalent(left: Formula, right: Formula) -> bool:
    """Truth-table logical equivalence over the union of both atom sets."""
    atoms = atoms_of(left) | atoms_of(right)
    return all(
        evaluate(left, v) == evaluate(right, v)
        for v in all_valuations(atoms)
    )


def to_nnf(formula: Formula) -> Formula:
    """Negation normal form: eliminate ->, <->; push ~ onto atoms."""
    if isinstance(formula, (Atom, Verum, Falsum)):
        return formula
    if isinstance(formula, And):
        return And(to_nnf(formula.left), to_nnf(formula.right))
    if isinstance(formula, Or):
        return Or(to_nnf(formula.left), to_nnf(formula.right))
    if isinstance(formula, Implies):
        return Or(to_nnf(Not(formula.antecedent)), to_nnf(formula.consequent))
    if isinstance(formula, Iff):
        return And(
            to_nnf(Implies(formula.left, formula.right)),
            to_nnf(Implies(formula.right, formula.left)),
        )
    # Negation: dispatch on the operand.
    operand = formula.operand
    if isinstance(operand, Atom):
        return formula
    if isinstance(operand, Verum):
        return FALSE
    if isinstance(operand, Falsum):
        return TRUE
    if isinstance(operand, Not):
        return to_nnf(operand.operand)
    if isinstance(operand, And):
        return Or(to_nnf(Not(operand.left)), to_nnf(Not(operand.right)))
    if isinstance(operand, Or):
        return And(to_nnf(Not(operand.left)), to_nnf(Not(operand.right)))
    if isinstance(operand, Implies):
        return And(to_nnf(operand.antecedent), to_nnf(Not(operand.consequent)))
    if isinstance(operand, Iff):
        return to_nnf(Not(And(
            Implies(operand.left, operand.right),
            Implies(operand.right, operand.left),
        )))
    raise TypeError(f"not a formula: {operand!r}")


def to_cnf(formula: Formula) -> Formula:
    """Conjunctive normal form by NNF then distribution.

    Worst-case exponential in formula size, which is acceptable for the
    argument-sized formulas this library manipulates; the SAT layer uses
    clause sets from :func:`cnf_clauses`.
    """
    return _distribute(to_nnf(formula))


def _distribute(formula: Formula) -> Formula:
    if isinstance(formula, And):
        return And(_distribute(formula.left), _distribute(formula.right))
    if isinstance(formula, Or):
        left = _distribute(formula.left)
        right = _distribute(formula.right)
        if isinstance(left, And):
            return And(
                _distribute(Or(left.left, right)),
                _distribute(Or(left.right, right)),
            )
        if isinstance(right, And):
            return And(
                _distribute(Or(left, right.left)),
                _distribute(Or(left, right.right)),
            )
        return Or(left, right)
    return formula


Literal = tuple[str, bool]
"""A CNF literal: (atom name, polarity). (p, True) is p; (p, False) is ~p."""

Clause = frozenset[Literal]


def cnf_clauses(formula: Formula) -> frozenset[Clause]:
    """Convert to a clause set suitable for the DPLL solver.

    Constant handling: a clause containing ``true`` is dropped; ``false``
    literals are removed from their clause.  The empty clause set means the
    formula is valid-as-CNF (i.e. trivially satisfiable); a clause set
    containing the empty clause is unsatisfiable.
    """
    cnf = to_cnf(formula)
    clauses: set[Clause] = set()
    for conjunct in _conjuncts(cnf):
        literals: set[Literal] = set()
        tautological = False
        for disjunct in _disjuncts(conjunct):
            if isinstance(disjunct, Verum):
                tautological = True
                break
            if isinstance(disjunct, Falsum):
                continue
            if isinstance(disjunct, Atom):
                literals.add((disjunct.name, True))
            elif isinstance(disjunct, Not) and isinstance(
                disjunct.operand, Atom
            ):
                literals.add((disjunct.operand.name, False))
            elif isinstance(disjunct, Not) and isinstance(
                disjunct.operand, Verum
            ):
                continue
            elif isinstance(disjunct, Not) and isinstance(
                disjunct.operand, Falsum
            ):
                tautological = True
                break
            else:
                raise ValueError(
                    f"formula not in CNF after transform: {disjunct}"
                )
        if tautological:
            continue
        if any((name, not pol) in literals for name, pol in literals):
            continue  # p | ~p clause is tautological
        clauses.add(frozenset(literals))
    return frozenset(clauses)


def _conjuncts(formula: Formula) -> Iterator[Formula]:
    if isinstance(formula, And):
        yield from _conjuncts(formula.left)
        yield from _conjuncts(formula.right)
    else:
        yield formula


def _disjuncts(formula: Formula) -> Iterator[Formula]:
    if isinstance(formula, Or):
        yield from _disjuncts(formula.left)
        yield from _disjuncts(formula.right)
    else:
        yield formula


def conjoin(formulas: Iterable[Formula]) -> Formula:
    """Right-nested conjunction of the formulas; TRUE when empty."""
    items = list(formulas)
    if not items:
        return TRUE
    result = items[-1]
    for item in reversed(items[:-1]):
        result = And(item, result)
    return result


def disjoin(formulas: Iterable[Formula]) -> Formula:
    """Right-nested disjunction of the formulas; FALSE when empty."""
    items = list(formulas)
    if not items:
        return FALSE
    result = items[-1]
    for item in reversed(items[:-1]):
        result = Or(item, result)
    return result


def substitute(
    formula: Formula, mapping: Mapping[Atom, Formula]
) -> Formula:
    """Uniformly replace atoms by formulas."""
    replace: Callable[[Formula], Formula]

    def replace(node: Formula) -> Formula:
        if isinstance(node, Atom):
            return mapping.get(node, node)
        if isinstance(node, (Verum, Falsum)):
            return node
        if isinstance(node, Not):
            return Not(replace(node.operand))
        if isinstance(node, And):
            return And(replace(node.left), replace(node.right))
        if isinstance(node, Or):
            return Or(replace(node.left), replace(node.right))
        if isinstance(node, Implies):
            return Implies(replace(node.antecedent), replace(node.consequent))
        return Iff(replace(node.left), replace(node.right))

    return replace(formula)
