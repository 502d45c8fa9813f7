"""A DPLL SAT solver over CNF clause sets.

This provides the mechanical argument-validation service that several
surveyed proposals assume exists (Rushby [19][20], Brunel & Cazin [9],
Forder [14]): given a formalised argument, decide satisfiability,
entailment, and consistency.  The solver implements classic DPLL with unit
propagation and pure-literal elimination — ample for argument-sized
problems, and simple enough to audit, which matters in an assurance
context.

Clause representation matches :func:`repro.logic.propositional.cnf_clauses`:
a clause is a frozenset of ``(atom_name, polarity)`` literals.

:func:`solve_formula` converts by distribution, whose clause set can grow
exponentially with the formula.  The queries of
:mod:`repro.logic.entailment` do not: they decide formulas over at most
:data:`~repro.logic.entailment.TABLE_MAX_ATOMS` atoms by truth table and
hand only larger ones to this solver, as definitional (Tseitin) clauses
that grow linearly with the formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Mapping

from .propositional import Clause, Formula, Literal, cnf_clauses

__all__ = ["SatResult", "DpllSolver", "solve", "solve_formula"]


@dataclass(frozen=True)
class SatResult:
    """Outcome of a SAT query.

    ``satisfiable`` is the verdict; when True, ``assignment`` maps atom names
    to booleans for one satisfying model (atoms not mentioned may be absent
    and can take either value).  ``decisions`` and ``propagations`` expose
    search-effort counters used by the benchmarks.
    """

    satisfiable: bool
    assignment: Mapping[str, bool] | None
    decisions: int
    propagations: int

    def __bool__(self) -> bool:
        return self.satisfiable


class DpllSolver:
    """Davis–Putnam–Logemann–Loveland search with standard optimisations."""

    def __init__(self, clauses: Iterable[Clause]) -> None:
        self.clauses: list[Clause] = [frozenset(c) for c in clauses]
        self.decisions = 0
        self.propagations = 0

    def solve(self) -> SatResult:
        """Run the search and return a :class:`SatResult`."""
        self.decisions = 0
        self.propagations = 0
        model = self._search(self.clauses, {})
        return SatResult(
            satisfiable=model is not None,
            assignment=dict(model) if model is not None else None,
            decisions=self.decisions,
            propagations=self.propagations,
        )

    def _search(
        self, clauses: list[Clause], assignment: dict[str, bool]
    ) -> dict[str, bool] | None:
        # Depth first on an explicit stack, so a long chain of decisions
        # needs no frames.  A decision pushes its False branch under its
        # True branch, and a branch's clauses are reduced when it is
        # popped, so the order and the work are those of recursion.
        stack: list[tuple[list[Clause], dict[str, bool], str, bool]] = []
        while True:
            clauses, assignment, conflict = self._propagate(
                clauses, assignment
            )
            if not conflict:
                clauses, assignment = self._pure_literals(clauses, assignment)
                if not clauses:
                    return assignment
                if all(clauses):
                    variable = self._choose_variable(clauses)
                    self.decisions += 1
                    stack.append((clauses, assignment, variable, False))
                    stack.append((clauses, assignment, variable, True))
            if not stack:
                return None
            clauses, assignment, variable, value = stack.pop()
            assignment = {**assignment, variable: value}
            clauses = _apply_assignment(clauses, variable, value)

    def _propagate(
        self, clauses: list[Clause], assignment: dict[str, bool]
    ) -> tuple[list[Clause], dict[str, bool], bool]:
        assignment = dict(assignment)
        while True:
            unit: Literal | None = None
            for clause in clauses:
                if len(clause) == 1:
                    unit = next(iter(clause))
                    break
            if unit is None:
                return clauses, assignment, False
            name, polarity = unit
            if assignment.get(name, polarity) != polarity:
                return clauses, assignment, True
            assignment[name] = polarity
            self.propagations += 1
            clauses = _apply_assignment(clauses, name, polarity)
            if any(not clause for clause in clauses):
                return clauses, assignment, True

    def _pure_literals(
        self, clauses: list[Clause], assignment: dict[str, bool]
    ) -> tuple[list[Clause], dict[str, bool]]:
        polarity_seen: dict[str, set[bool]] = {}
        for clause in clauses:
            for name, polarity in clause:
                polarity_seen.setdefault(name, set()).add(polarity)
        assignment = dict(assignment)
        pure = {
            name: next(iter(polarities))
            for name, polarities in polarity_seen.items()
            if len(polarities) == 1
        }
        for name, polarity in pure.items():
            assignment[name] = polarity
            clauses = _apply_assignment(clauses, name, polarity)
        return clauses, assignment

    @staticmethod
    def _choose_variable(clauses: list[Clause]) -> str:
        # Most-frequent variable heuristic: cheap and effective at this scale.
        counts: dict[str, int] = {}
        for clause in clauses:
            for name, _ in clause:
                counts[name] = counts.get(name, 0) + 1
        return max(sorted(counts), key=lambda name: counts[name])


def _apply_assignment(
    clauses: list[Clause], name: str, value: bool
) -> list[Clause]:
    out: list[Clause] = []
    for clause in clauses:
        if (name, value) in clause:
            continue  # clause satisfied
        if (name, not value) in clause:
            out.append(clause - {(name, not value)})
        else:
            out.append(clause)
    return out


def solve(clauses: Iterable[Clause]) -> SatResult:
    """Solve a clause set."""
    return DpllSolver(clauses).solve()


def solve_formula(formula: Formula) -> SatResult:
    """Convert a formula to CNF and solve it."""
    return solve(cnf_clauses(formula))
