"""Tests for repro.logic.sat and repro.logic.entailment."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.claims.obligations import discharge, parse_obligation
from repro.logic import entailment
from repro.logic.entailment import (
    TABLE_MAX_ATOMS,
    consistent,
    entails,
    equivalent_sat,
    independent,
    is_satisfiable,
    is_valid,
    minimal_inconsistent_subsets,
    premises_used,
)
from repro.logic.propositional import (
    FALSE,
    TRUE,
    And,
    Atom,
    Iff,
    Implies,
    Not,
    Or,
    atoms_of,
    cnf_clauses,
    evaluate,
    is_satisfiable_bruteforce,
    parse,
)
from repro.logic.sat import DpllSolver, solve, solve_formula


class TestDpll:
    def test_satisfiable_formula(self):
        result = solve_formula(parse("(a | b) & (~a | c)"))
        assert result.satisfiable
        assert result.assignment is not None

    def test_unsatisfiable_formula(self):
        result = solve_formula(parse("(a | b) & ~a & ~b"))
        assert not result.satisfiable
        assert result.assignment is None

    def test_model_actually_satisfies(self):
        formula = parse("(a | b) & (~b | c) & (c -> d)")
        result = solve_formula(formula)
        assert result.satisfiable
        from repro.logic.propositional import Atom, atoms_of

        valuation = {
            atom: result.assignment.get(atom.name, False)
            for atom in atoms_of(formula)
        }
        assert evaluate(formula, valuation)

    def test_empty_clause_set_is_sat(self):
        assert solve([]).satisfiable

    def test_empty_clause_is_unsat(self):
        assert not solve([frozenset()]).satisfiable

    def test_unit_propagation_counter(self):
        solver = DpllSolver(cnf_clauses(parse("a & (a -> b) & (b -> c)")))
        result = solver.solve()
        assert result.satisfiable
        assert result.propagations > 0

    def test_pigeonhole_2_into_1_unsat(self):
        # Two pigeons, one hole.
        formula = parse("(p1h1) & (p2h1) & ~(p1h1 & p2h1)")
        assert not solve_formula(formula).satisfiable

    def test_agrees_with_bruteforce_on_suite(self):
        from repro.logic.propositional import is_satisfiable_bruteforce

        suite = [
            "a",
            "~a & a",
            "(a -> b) & (b -> c) & a & ~c",
            "(a <-> b) & (b <-> c) & (a <-> ~c)",
            "(a | b | c) & (~a | ~b) & (~b | ~c) & (~a | ~c)",
            "true -> (a | ~a)",
        ]
        for text in suite:
            formula = parse(text)
            assert solve_formula(formula).satisfiable == \
                is_satisfiable_bruteforce(formula), text


class TestEntailment:
    def test_modus_ponens(self):
        assert entails([parse("p -> q"), parse("p")], parse("q"))

    def test_non_entailment(self):
        assert not entails([parse("p -> q"), parse("q")], parse("p"))

    def test_chain(self):
        premises = [parse("a -> b"), parse("b -> c"), parse("a")]
        assert entails(premises, parse("c"))

    def test_validity(self):
        assert is_valid(parse("p | ~p"))
        assert not is_valid(parse("p"))

    def test_satisfiability(self):
        assert is_satisfiable(parse("p & q"))
        assert not is_satisfiable(parse("p & ~p"))

    def test_consistency(self):
        assert consistent([parse("p"), parse("q")])
        assert not consistent([parse("p"), parse("~p")])

    def test_equivalence(self):
        assert equivalent_sat(parse("p -> q"), parse("~q -> ~p"))
        assert not equivalent_sat(parse("p -> q"), parse("q -> p"))

    def test_independence(self):
        assert independent([parse("p")], parse("q"))
        assert not independent([parse("p")], parse("p"))
        assert not independent([parse("p")], parse("~p"))


class TestMinimalInconsistentSubsets:
    def test_simple_core(self):
        formulas = [parse("p"), parse("~p"), parse("q")]
        cores = minimal_inconsistent_subsets(formulas)
        assert cores == [(0, 1)]

    def test_self_contradiction(self):
        formulas = [parse("p & ~p"), parse("q")]
        cores = minimal_inconsistent_subsets(formulas)
        assert cores == [(0,)]

    def test_consistent_set_has_no_cores(self):
        assert minimal_inconsistent_subsets(
            [parse("p"), parse("q")]
        ) == []

    def test_three_way_core(self):
        formulas = [parse("p -> q"), parse("p"), parse("~q")]
        cores = minimal_inconsistent_subsets(formulas)
        assert (0, 1, 2) in cores


class TestPremisesUsed:
    def test_minimal_support_found(self):
        premises = [
            parse("a"),
            parse("a -> goal"),
            parse("unrelated"),
        ]
        used = premises_used(premises, parse("goal"))
        assert set(used) == {0, 1}

    def test_non_entailing_returns_all(self):
        premises = [parse("a"), parse("b")]
        used = premises_used(premises, parse("c"))
        assert used == (0, 1)

    def test_redundant_evidence_pruned(self):
        # Two independent routes to the goal: only one survives greedy
        # minimisation.
        premises = [
            parse("a"), parse("a -> goal"),
            parse("b"), parse("b -> goal"),
        ]
        used = premises_used(premises, parse("goal"))
        assert len(used) == 2


# -- the two deciders against the truth-table oracle --------------------------


@st.composite
def formulas_over(draw, max_atoms: int = TABLE_MAX_ATOMS + 3):
    """A random formula using each of 0 to ``max_atoms`` atoms at least
    once, with constants, every connective and nested negations."""
    count = draw(st.integers(0, max_atoms))
    pool = [Atom(f"p{i}") for i in range(count)]
    extra = draw(st.lists(
        st.sampled_from(pool + [TRUE, FALSE]), min_size=0 if pool else 1,
        max_size=4,
    ))
    nodes = draw(st.permutations(pool + extra))
    while len(nodes) > 1:
        at = draw(st.integers(0, len(nodes) - 2))
        connective = draw(st.sampled_from([And, Or, Implies, Iff]))
        node = connective(nodes[at], nodes[at + 1])
        for _ in range(draw(st.integers(0, 2))):
            node = Not(node)
        nodes[at:at + 2] = [node]
    return nodes[0]


@given(formulas_over(), formulas_over(max_atoms=3))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_deciders_agree_with_bruteforce(formula, conclusion):
    satisfiable = is_satisfiable_bruteforce(formula)
    assert is_satisfiable(formula) == satisfiable
    assert entailment._satisfiable_by_dpll(formula) == satisfiable
    assert is_valid(formula) == (not is_satisfiable_bruteforce(Not(formula)))
    assert entails([formula], conclusion) == (
        not is_satisfiable_bruteforce(And(formula, Not(conclusion)))
    )


def test_generated_formulas_reach_both_deciders():
    # The oracle test above is only as good as its reach: above
    # TABLE_MAX_ATOMS atoms is_satisfiable takes the DPLL path.
    counts = set()

    @given(formulas_over())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def collect(formula):
        counts.add(len(atoms_of(formula)))

    collect()
    assert min(counts) == 0 and max(counts) > TABLE_MAX_ATOMS


@pytest.mark.parametrize("text", [
    "true", "false", "~true", "a <-> a", "a <-> ~a", "(a -> b) <-> (~b -> ~a)",
    "false -> a", "a & true", "a | false", "~(a | true)", "(a <-> true) & ~a",
])
def test_definitional_path_handles_constants(text):
    formula = parse(text)
    assert entailment._satisfiable_by_dpll(formula) == \
        is_satisfiable_bruteforce(formula), text


@pytest.mark.parametrize("text", [
    "(a | b) & (~a | ~b) & (a | b) & (b | ~b | c)",
    "a & (a -> b) & ((b & c) -> d) & ~d & (false | e) & (true | f)",
    "~(a | ~b) & (c -> (d | ~a))",
    "p & ~p", "false", "true",
])
def test_cnf_input_gives_the_distributive_clause_set(text):
    # A CNF-shaped formula needs no gate: DPLL gets the clause set
    # cnf_clauses gives, de-duplicated and without always-true clauses.
    formula = parse(text)
    renamed = {
        frozenset(("x" + name, polarity) for name, polarity in clause)
        for clause in cnf_clauses(formula)
    }
    assert entailment._definitional_clauses(formula) == renamed


# -- nesting depth ------------------------------------------------------------


def _depth_left() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return sys.getrecursionlimit() - depth


@pytest.mark.parametrize("shape, expected", [
    # Each is parsed by recursive descent at one frame per level, and the
    # verdicts are the ones the distributive CNF path gave.
    (lambda n: "sat: " + "~" * n + "p", None),
    (lambda n: "valid: " + "~" * (2 * (n // 2)) + "(p | ~p)", None),
    (lambda n: "valid: " + " -> ".join(["p"] * n), None),
    (lambda n: "sat: " + " & ".join(["p", "~p"] * (n // 2)),
     "formula is unsatisfiable"),
])
def test_deep_nesting_discharges_as_before(shape, expected):
    spec = shape(_depth_left() - 30)
    assert discharge(parse_obligation(spec)) == expected
