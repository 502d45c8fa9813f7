"""The LTL and FOL obligation deciders cannot stall.

A short spec must not hold a check for seconds, and no nesting depth
may end in ``maximum recursion depth exceeded``:

* LTL is decided by one bottom-up pass of truth columns, so nested
  temporal operators cost linear time and any depth;
* FOL sort checking and grounding walk explicit stacks, and grounding
  refuses, before building anything, a formula that would ground past
  :data:`repro.logic.fol.GROUND_BUDGET` propositional nodes.

The cross-check of the LTL evaluator against the recursive reference
lives with the other LTL tests (``test_logic_ltl_ec_bbn.py``,
``test_properties.py``).
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.claims.obligations import discharge, parse_obligation
from repro.logic import fol, propositional as prop
from repro.logic.ltl import atoms_of_ltl, parse_ltl
from repro.logic.terms import Atom, Const, Var

pytestmark = pytest.mark.claims

_DEEP = 3000


def _budget_detail(size: int) -> str:
    return (
        f"grounding needs {size} propositional nodes, over the budget "
        f"of {fol.GROUND_BUDGET}"
    )


def _square_size(constants: int) -> int:
    """Ground nodes of :func:`_square_tautology`: ``n * n`` instances of
    four nodes, ``n - 1`` conjunctions over ``x`` and ``n * (n - 1)``
    over ``y``."""
    return 5 * constants * constants - 1


def _just_over_the_budget() -> int:
    constants = 1
    while _square_size(constants) <= fol.GROUND_BUDGET:
        constants += 1
    return constants


def _square_tautology(constants: int) -> str:
    domain = ", ".join(f"c{i}" for i in range(constants))
    return (
        f"fol: sort S = {domain} ; pred R(S, S) |- "
        "forall x:S. forall y:S. R(x, y) | ~R(x, y)"
    )


def _node_count(formula: prop.Formula) -> int:
    count, stack = 0, [formula]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(
            getattr(node, field.name) for field in dataclasses.fields(node)
            if field.name != "name"
        )
    return count


# -- LTL ----------------------------------------------------------------------


def test_three_thousand_nested_always_discharge():
    spec = "ltl: " + "G " * _DEEP + "p @ p ; p"
    assert discharge(parse_obligation(spec)) is None


def test_seven_nested_eventually_over_thirty_states_is_prompt():
    # Re-evaluating each operand at every later position would take
    # C(37, 7) evaluations, seconds of work.
    spec = "ltl: " + "F " * 7 + "(~p) @ " + " ; ".join(["p"] * 30)
    started = time.perf_counter()
    detail = discharge(parse_obligation(spec))
    assert time.perf_counter() - started < 1.0
    assert detail == "trace does not satisfy the formula"


def test_atoms_of_a_three_thousand_deep_formula():
    formula = parse_ltl("X " * _DEEP + "(p U q)")
    assert atoms_of_ltl(formula) == {"p", "q"}


# -- FOL ----------------------------------------------------------------------


def test_fol_conclusion_under_three_thousand_negations(monkeypatch):
    spec = parse_obligation(
        "fol: sort S = a ; pred P(S) ; axiom P(a) |- " + "~" * _DEEP + "P(a)"
    )
    size = _DEEP + 1
    expected = _budget_detail(size) if size > fol.GROUND_BUDGET else None
    assert discharge(spec) == expected
    # With room for it, the chain grounds and is decided.
    monkeypatch.setattr(fol, "GROUND_BUDGET", 2 * size)
    assert discharge(spec) is None


def test_a_spec_just_over_the_ground_budget_fails_with_its_size():
    constants = _just_over_the_budget()
    spec = parse_obligation(_square_tautology(constants))
    assert discharge(spec) == _budget_detail(_square_size(constants))


def test_a_spec_just_within_the_ground_budget_is_decided():
    spec = parse_obligation(_square_tautology(_just_over_the_budget() - 1))
    assert discharge(spec) is None


def test_a_spec_far_over_the_ground_budget_fails_at_once():
    # Six constants under five quantifiers: 7,776 instances, 38,879
    # nodes, which DPLL does not decide within a minute.
    xs = ", ".join(f"x{i}" for i in range(5))
    spec = parse_obligation(
        "fol: sort S = c0, c1, c2, c3, c4, c5 ; pred R(S, S, S, S, S) |- "
        + " ".join(f"forall x{i}:S." for i in range(5))
        + f" R({xs}) | ~R({xs})"
    )
    expected = _budget_detail(38879)
    started = time.perf_counter()
    assert discharge(spec) == expected
    assert time.perf_counter() - started < 1.0


def test_ground_size_counts_the_nodes_ground_builds():
    signature = fol.Signature()
    s = signature.declare_sort("S")
    t = signature.declare_sort("T")
    for name in "abc":
        signature.declare_constant(name, s)
    for name in "de":
        signature.declare_constant(name, t)
    signature.declare_predicate("P", s)
    signature.declare_predicate("Q", s, t)
    x, y = Var("x"), Var("y")
    formulas = [
        fol.FolAtom(Atom("P", (Const("a"),))),
        fol.ForAll(x, s, fol.FolAtom(Atom("P", (x,)))),
        fol.ForAll(x, s, fol.Exists(y, t, fol.FolImplies(
            fol.FolAtom(Atom("P", (x,))),
            fol.FolNot(fol.FolAtom(Atom("Q", (x, y)))),
        ))),
        fol.FolAnd(
            fol.Exists(x, s, fol.FolAtom(Atom("P", (x,)))),
            fol.ForAll(y, t, fol.FolOr(
                fol.FolAtom(Atom("Q", (Const("b"), y))),
                fol.Exists(x, s, fol.FolAtom(Atom("Q", (x, y)))),
            )),
        ),
    ]
    for formula in formulas:
        assert fol._ground_size(signature, formula) == _node_count(
            fol.ground(signature, formula)
        ), formula


def test_a_variable_shadows_a_constant_of_the_same_name():
    signature = fol.Signature()
    s = signature.declare_sort("S")
    for name in "ab":
        signature.declare_constant(name, s)
    signature.declare_predicate("Q", s, s)
    a = Var("a")
    formula = fol.ForAll(a, s, fol.Exists(a, s, fol.FolAtom(
        Atom("Q", (a, Const("a")))
    )))
    fol.sort_check(signature, formula)
    inner = prop.disjoin([prop.Atom("Q__a_a"), prop.Atom("Q__b_a")])
    assert fol.ground(signature, formula) == prop.conjoin([inner, inner])
