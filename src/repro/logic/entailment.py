"""Entailment, consistency, and validity services.

These are the logical queries an assurance-argument checker needs:

* does a set of premises entail a conclusion? (argument validity)
* are the premises mutually consistent? (the 'incompatible premises' fallacy)
* does a premise contradict the conclusion?
* is the conclusion already among the premises? (begging the question, the
  purely formal rendition)

Every query reduces to :func:`is_satisfiable`, which decides a formula in
one of two ways:

* over at most :data:`TABLE_MAX_ATOMS` atoms, by truth table: the formula
  is evaluated once over Python ints, atom *i* bound to its column of the
  ``2**n``-row table (bit *r* is the atom's value in row *r*), and it is
  satisfiable when the resulting int is non-zero;
* over more atoms, by the DPLL solver of :mod:`repro.logic.sat` on a
  definitional (Tseitin) clause set: at most one fresh variable per
  binary connective (none for those that only join the clauses the
  formula asserts), so the clauses grow linearly with the formula, where the
  distributive :func:`~repro.logic.propositional.cnf_clauses` can grow
  exponentially.

Both walk the formula with an explicit stack rather than by recursion,
so a deeply nested formula is decided like a flat one (the DPLL search
itself recurses once per decision, not per connective).

The formal-fallacy detector (:mod:`repro.fallacies.formal_detector`) and the
Rushby-style what-if probing in :mod:`repro.experiments.sufficiency_study`
are both clients of this module.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Iterator, Sequence

from .propositional import (
    And,
    Atom,
    Clause,
    Falsum,
    Formula,
    Iff,
    Implies,
    Literal,
    Not,
    Or,
    Verum,
    conjoin,
)
from .sat import solve

__all__ = [
    "TABLE_MAX_ATOMS",
    "is_satisfiable",
    "is_valid",
    "entails",
    "consistent",
    "equivalent_sat",
    "independent",
    "minimal_inconsistent_subsets",
    "premises_used",
]

#: Formulas over at most this many atoms are decided by truth table,
#: larger ones by DPLL.  Measured on five obligation shapes (DNF, its
#: negation, CNF, an implication-chain entailment, a DNF entailment),
#: the table is 10-60x faster than DPLL at 12 atoms, and the two cross
#: between 18 and 20 atoms.  The bound sits below that crossover: the
#: table's time, and the columns kept for it, double with every atom
#: however easy the formula, while no formula the claim language ships
#: comes near 12 atoms.  At 12, every table fits in 4096 bits.  The
#: formaliser's queries (:mod:`repro.formalise.translator`, one atom per
#: node) mostly exceed the bound; they are Horn clauses, so DPLL gets the
#: same clause set as from ``cnf_clauses``, without the distribution.
TABLE_MAX_ATOMS = 12


def _table_columns(count: int) -> tuple[int, tuple[int, ...]]:
    """The all-ones mask of a ``2**count``-row table and its atom columns.

    Column *i* has bit *r* set exactly when bit *i* of *r* is set: a
    period of ``2**i`` zeros then ``2**i`` ones, doubled until it spans
    every row.
    """
    rows = 1 << count
    columns = []
    for index in range(count):
        run = 1 << index
        column, width = ((1 << run) - 1) << run, 2 * run
        while width < rows:
            column |= column << width
            width *= 2
        columns.append(column)
    return (1 << rows) - 1, tuple(columns)


_TABLES = tuple(_table_columns(n) for n in range(TABLE_MAX_ATOMS + 1))


def _flatten(formula: Formula) -> tuple[list[Formula], dict[str, int]]:
    """The formula's nodes in pre-order, and its atom names numbered.

    Read backwards, the pre-order list puts every node after its
    children, with the left child's value on top of the right one's.
    """
    order: list[Formula] = []
    atoms: dict[str, int] = {}
    stack = [formula]
    while stack:
        node = stack.pop()
        order.append(node)
        kind = type(node)
        if kind is Atom:
            atoms.setdefault(node.name, len(atoms))
        elif kind is Not:
            stack.append(node.operand)
        elif kind is Implies:
            stack.append(node.consequent)
            stack.append(node.antecedent)
        elif kind is And or kind is Or or kind is Iff:
            stack.append(node.right)
            stack.append(node.left)
        elif kind is not Verum and kind is not Falsum:
            raise TypeError(f"not a formula: {node!r}")
    return order, atoms


def _truth_table(order: list[Formula], atoms: dict[str, int]) -> int:
    """The truth table of a flattened formula: bit *r* is row *r*."""
    mask, columns = _TABLES[len(atoms)]
    values: list[int] = []
    push, pop = values.append, values.pop
    for node in reversed(order):
        kind = type(node)
        if kind is Atom:
            push(columns[atoms[node.name]])
        elif kind is Not:
            push(mask ^ pop())
        elif kind is And:
            push(pop() & pop())
        elif kind is Or:
            push(pop() | pop())
        elif kind is Implies:
            push((mask ^ pop()) | pop())
        elif kind is Iff:
            push(mask ^ pop() ^ pop())
        else:
            push(mask if kind is Verum else 0)
    return values[0]


def _definitional_clauses(formula: Formula) -> set[Clause]:
    """Tseitin clauses for the formula, satisfiable iff it is.

    The formula is read as the conjunction of the clauses it asserts at
    its top (see :func:`_spread`); each operand inside such a clause is
    encoded by :func:`_encode` into one literal.  As in
    :func:`~repro.logic.propositional.cnf_clauses`, a clause holding a
    true operand or a literal and its negation is dropped, and a false
    operand is left out of its clause, so a formula already in CNF gives
    the same clause set as there (atom ``p`` named ``xp``), with no gate.
    """
    clauses: set[Clause] = set()
    gates = count()
    for conjunct, positive in _spread(formula, True, conjunction=True):
        clause: set[Literal] = set()
        for node, polarity in _spread(conjunct, positive, conjunction=False):
            kind = type(node)
            if kind is Verum or kind is Falsum:
                if (kind is Verum) == polarity:
                    break  # a true operand: the clause always holds
                continue
            name, root_polarity = _encode(_flatten(node)[0], clauses, gates)
            value = root_polarity == polarity
            if (name, not value) in clause:
                break  # a literal and its negation: always holds
            clause.add((name, value))
        else:
            clauses.add(frozenset(clause))
    return clauses


def _spread(
    formula: Formula, positive: bool, *, conjunction: bool
) -> Iterator[tuple[Formula, bool]]:
    """The operands, each with its polarity, whose conjunction (or
    disjunction) the formula is, read with the given polarity through
    negations, ``&``, ``|`` and ``->``."""
    stack = [(formula, positive)]
    while stack:
        node, positive = stack.pop()
        kind = type(node)
        if kind is Not:
            stack.append((node.operand, not positive))
        elif kind is (And if positive == conjunction else Or):
            stack += ((node.right, positive), (node.left, positive))
        elif kind is Implies and positive != conjunction:
            stack += (
                (node.consequent, positive), (node.antecedent, not positive)
            )
        else:
            yield node, positive


def _encode(
    order: list[Formula], clauses: set[Clause], gates: Iterator[int]
) -> Literal:
    """Add the definitional clauses of a flattened formula to ``clauses``
    and return the literal equal to its root.

    Atom ``p`` becomes variable ``xp`` and each binary connective a
    fresh ``g<j>``, ``j`` drawn from ``gates``, whose clauses make it
    equal to the connective; negation flips a literal's polarity, and
    the constants are the two literals of ``t``, which a unit clause
    makes true once a gate uses it.
    """
    values: list[Literal] = []
    push, pop = values.append, values.pop
    for node in reversed(order):
        kind = type(node)
        if kind is Atom:
            push(("x" + node.name, True))
        elif kind is Verum or kind is Falsum:
            clauses.add(frozenset((("t", True),)))
            push(("t", kind is Verum))
        elif kind is Not:
            name, polarity = pop()
            push((name, not polarity))
        else:
            left, right = pop(), pop()
            if kind is Implies:
                left, kind = (left[0], not left[1]), Or
            gate = f"g{next(gates)}"
            on, off = (gate, True), (gate, False)
            not_left = (left[0], not left[1])
            not_right = (right[0], not right[1])
            if kind is And:
                clauses.update((
                    frozenset((off, left)), frozenset((off, right)),
                    frozenset((on, not_left, not_right)),
                ))
            elif kind is Or:
                clauses.update((
                    frozenset((on, not_left)), frozenset((on, not_right)),
                    frozenset((off, left, right)),
                ))
            else:
                clauses.update((
                    frozenset((off, not_left, right)),
                    frozenset((off, left, not_right)),
                    frozenset((on, left, right)),
                    frozenset((on, not_left, not_right)),
                ))
            push(on)
    (root,) = values
    return root


def _satisfiable_by_dpll(formula: Formula) -> bool:
    """Decide the formula by DPLL on its definitional clauses."""
    return bool(solve(_definitional_clauses(formula)))


def is_satisfiable(formula: Formula) -> bool:
    """Truth table up to :data:`TABLE_MAX_ATOMS` atoms, DPLL above."""
    order, atoms = _flatten(formula)
    if len(atoms) <= TABLE_MAX_ATOMS:
        return _truth_table(order, atoms) != 0
    return _satisfiable_by_dpll(formula)


def is_valid(formula: Formula) -> bool:
    """Validity: the negation is unsatisfiable."""
    return not is_satisfiable(Not(formula))


def entails(premises: Iterable[Formula], conclusion: Formula) -> bool:
    """True when ``premises`` semantically entail ``conclusion``.

    Implemented by refutation: premises ∪ {¬conclusion} is unsatisfiable.
    """
    body = conjoin(list(premises) + [Not(conclusion)])
    return not is_satisfiable(body)


def consistent(formulas: Iterable[Formula]) -> bool:
    """True when the formulas have at least one common model."""
    return is_satisfiable(conjoin(formulas))


def equivalent_sat(left: Formula, right: Formula) -> bool:
    """Logical equivalence by mutual entailment."""
    return entails([left], right) and entails([right], left)


def independent(premises: Sequence[Formula], conclusion: Formula) -> bool:
    """True when the conclusion is neither entailed nor refuted.

    An independent conclusion signals a *non sequitur* at the formal level:
    the premises say nothing about it either way.
    """
    if entails(premises, conclusion):
        return False
    if entails(premises, Not(conclusion)):
        return False
    return True


def minimal_inconsistent_subsets(
    formulas: Sequence[Formula], max_size: int | None = None
) -> list[tuple[int, ...]]:
    """Index tuples of minimal mutually inconsistent premise subsets.

    Checks subsets in increasing size order and suppresses supersets of
    already-found cores, so every returned tuple is minimal.  Exponential in
    the number of premises; assurance arguments keep this small.
    """
    from itertools import combinations

    limit = max_size if max_size is not None else len(formulas)
    found: list[tuple[int, ...]] = []
    for size in range(1, limit + 1):
        for indices in combinations(range(len(formulas)), size):
            if any(set(core).issubset(indices) for core in found):
                continue
            subset = [formulas[i] for i in indices]
            if not consistent(subset):
                found.append(indices)
    return found


def premises_used(
    premises: Sequence[Formula], conclusion: Formula
) -> tuple[int, ...]:
    """Indices of premises needed for entailment (greedy minimisation).

    Implements the 'what-if exploration' Rushby proposes [20]: remove each
    premise in turn and observe whether the proof still goes through.
    Returns the indices of a minimal entailing subset, or the full index
    range when the premises do not entail the conclusion at all.
    """
    if not entails(premises, conclusion):
        return tuple(range(len(premises)))
    keep = list(range(len(premises)))
    for index in list(keep):
        trial = [premises[i] for i in keep if i != index]
        if entails(trial, conclusion):
            keep.remove(index)
    return tuple(keep)
