"""Property-based tests (hypothesis) for the core invariants.

These pin down the DESIGN.md §4 invariants: transform equivalences,
solver agreement, unification laws, proof soundness, round-tripping,
pattern typing, and detector completeness/blindness.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.logic import propositional as prop
from repro.logic.entailment import entails
from repro.logic.natural_deduction import ProofBuilder, Rule, check_proof
from repro.logic.sat import solve_formula
from repro.logic.sequent import is_valid_sequent
from repro.logic.terms import Const, Func, Term, Var
from repro.logic.unification import unify
from repro.notation.gsn_text import parse as gsn_parse, serialise
from repro.notation.json_io import argument_from_json, argument_to_json

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_ATOM_NAMES = ("p", "q", "r", "s")


def formulas(max_depth: int = 4) -> st.SearchStrategy[prop.Formula]:
    atoms = st.sampled_from(
        [prop.Atom(name) for name in _ATOM_NAMES]
        + [prop.TRUE, prop.FALSE]
    )

    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        return st.one_of(
            st.builds(prop.Not, children),
            st.builds(prop.And, children, children),
            st.builds(prop.Or, children, children),
            st.builds(prop.Implies, children, children),
            st.builds(prop.Iff, children, children),
        )

    return st.recursive(atoms, extend, max_leaves=12)


def terms(max_depth: int = 3) -> st.SearchStrategy[Term]:
    leaves = st.one_of(
        st.sampled_from([Var("X"), Var("Y"), Var("Z")]),
        st.sampled_from([Const("a"), Const("b"), Const("c")]),
    )

    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        return st.builds(
            lambda functor, args: Func(functor, tuple(args)),
            st.sampled_from(["f", "g"]),
            st.lists(children, min_size=1, max_size=3),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def arguments(draw) -> Argument:
    """Random small well-shaped arguments (tree of goals + leaves)."""
    argument = Argument(name=draw(st.sampled_from(["a1", "case-x", "N"])))
    goal_count = draw(st.integers(min_value=1, max_value=6))
    goals = []
    for index in range(goal_count):
        identifier = f"G{index}"
        argument.add_node(Node(
            identifier, NodeType.GOAL,
            f"Claim number {index} is acceptably handled",
            undeveloped=draw(st.booleans()),
        ))
        if goals:
            parent = draw(st.sampled_from(goals))
            argument.add_link(parent, identifier, LinkKind.SUPPORTED_BY)
        goals.append(identifier)
    solution_count = draw(st.integers(min_value=0, max_value=4))
    for index in range(solution_count):
        identifier = f"Sn{index}"
        argument.add_node(Node(
            identifier, NodeType.SOLUTION, f"Evidence record {index}"
        ))
        parent = draw(st.sampled_from(goals))
        argument.add_link(parent, identifier, LinkKind.SUPPORTED_BY)
    context_count = draw(st.integers(min_value=0, max_value=3))
    for index in range(context_count):
        identifier = f"C{index}"
        argument.add_node(Node(
            identifier, NodeType.CONTEXT, f"Context item {index}"
        ))
        parent = draw(st.sampled_from(goals))
        argument.add_link(parent, identifier, LinkKind.IN_CONTEXT_OF)
    return argument


# ---------------------------------------------------------------------------
# Propositional invariants
# ---------------------------------------------------------------------------


@given(formulas())
@settings(max_examples=150, deadline=None)
def test_nnf_preserves_equivalence(formula):
    assert prop.equivalent(formula, prop.to_nnf(formula))


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_cnf_preserves_equivalence(formula):
    assert prop.equivalent(formula, prop.to_cnf(formula))


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_nnf_has_no_arrows_and_negates_only_atoms(formula):
    nnf = prop.to_nnf(formula)

    def check(node) -> None:
        assert not isinstance(node, (prop.Implies, prop.Iff))
        if isinstance(node, prop.Not):
            assert isinstance(node.operand, prop.Atom)
        elif isinstance(node, (prop.And, prop.Or)):
            check(node.left)
            check(node.right)

    check(nnf)


@given(formulas())
@settings(max_examples=150, deadline=None)
def test_dpll_agrees_with_truth_tables(formula):
    assert solve_formula(formula).satisfiable == \
        prop.is_satisfiable_bruteforce(formula)


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_sequent_prover_agrees_with_truth_tables(formula):
    assert is_valid_sequent([], [formula]) == prop.is_tautology(formula)


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_diverse_checkers_never_disagree(formula):
    # Tableaux, SAT, and LK must concur on validity for every formula;
    # independent_validity_check raises CheckerDisagreement otherwise.
    from repro.logic.tableau import independent_validity_check

    verdict = independent_validity_check(formula)
    assert verdict == prop.is_tautology(formula)


@pytest.mark.claims
@given(formulas())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_parser_round_trips_rendered_formulas(formula):
    # Structural, not just equivalent: str() brackets every binary
    # connective, so this pins the parser's reading of each token.
    assert prop.parse(str(formula)) == formula


# ---------------------------------------------------------------------------
# Unification invariants
# ---------------------------------------------------------------------------


@given(terms(), terms())
@settings(max_examples=200, deadline=None)
def test_unifier_equalises_terms(left, right):
    unifier = unify(left, right)
    if unifier is not None:
        assert unifier.apply(left) == unifier.apply(right)


@given(terms())
@settings(max_examples=100, deadline=None)
def test_unify_with_self_is_trivial(term):
    unifier = unify(term, term)
    assert unifier is not None
    assert len(unifier) == 0


@given(terms(), terms())
@settings(max_examples=100, deadline=None)
def test_unification_symmetric_on_success(left, right):
    # MGUs agree up to variable renaming, so assert both directions
    # succeed/fail together and each equalises the pair.
    forward = unify(left, right)
    backward = unify(right, left)
    assert (forward is None) == (backward is None)
    if forward is not None:
        assert forward.apply(left) == forward.apply(right)
        assert backward.apply(left) == backward.apply(right)


# ---------------------------------------------------------------------------
# Natural-deduction soundness
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.sampled_from(_ATOM_NAMES), min_size=2, max_size=4, unique=True
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_random_mp_chains_check_and_are_sound(names, rnd):
    builder = ProofBuilder()
    start = builder.premise(prop.Atom(names[0]))
    previous_atom = prop.Atom(names[0])
    lines = [start]
    for name in names[1:]:
        atom = prop.Atom(name)
        implication = builder.premise(prop.Implies(previous_atom, atom))
        lines.append(builder.detach(implication, lines[-1]))
        previous_atom = atom
    proof = builder.build()
    assert check_proof(proof)
    assert entails(proof.premises, proof.conclusion)


# ---------------------------------------------------------------------------
# Notation round-trips
# ---------------------------------------------------------------------------


@given(arguments())
@settings(max_examples=80, deadline=None)
def test_gsn_text_round_trip(argument):
    assert gsn_parse(serialise(argument)) == argument


@given(arguments())
@settings(max_examples=80, deadline=None)
def test_json_round_trip(argument):
    assert argument_from_json(argument_to_json(argument)) == argument


@given(arguments())
@settings(max_examples=50, deadline=None)
def test_cae_round_trip(argument):
    from repro.notation.cae import cae_to_gsn, gsn_to_cae

    assert cae_to_gsn(gsn_to_cae(argument)) == argument


# ---------------------------------------------------------------------------
# Pattern typing
# ---------------------------------------------------------------------------


@given(
    st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
        min_size=1, max_size=12,
    ),
    st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Lu", "Ll")),
            min_size=1, max_size=8,
        ),
        min_size=1, max_size=5,
    ),
    st.integers(min_value=0, max_value=100),
)
@settings(max_examples=60, deadline=None)
def test_well_typed_pattern_instantiations_are_well_formed(
    system, hazards, risk
):
    from repro.core.patterns import Binding, hazard_avoidance_pattern
    import repro

    pattern = hazard_avoidance_pattern()
    argument = pattern.instantiate(Binding.of(
        system=f"System {system}", hazards=list(hazards),
        residual_risk=risk,
    ))
    assert repro.check(argument).well_formed
    assert len(argument) == 4 + 2 * len(hazards)


@given(st.integers(min_value=101, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_out_of_range_risk_always_rejected(risk):
    import pytest

    from repro.core.patterns import (
        Binding,
        InstantiationError,
        hazard_avoidance_pattern,
    )

    pattern = hazard_avoidance_pattern()
    with pytest.raises(InstantiationError):
        pattern.instantiate(Binding.of(
            system="S", hazards=["h"], residual_risk=risk
        ))


# ---------------------------------------------------------------------------
# Detector completeness and blindness
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_detector_complete_on_injected_formal_fallacies(seed):
    from repro.fallacies.formal_detector import detect
    from repro.fallacies.injector import inject_formal
    from repro.fallacies.taxonomy import FormalFallacy

    rng = random.Random(seed)
    propositional = (
        FormalFallacy.BEGGING_THE_QUESTION,
        FormalFallacy.INCOMPATIBLE_PREMISES,
        FormalFallacy.PREMISE_CONCLUSION_CONTRADICTION,
        FormalFallacy.DENYING_THE_ANTECEDENT,
        FormalFallacy.AFFIRMING_THE_CONSEQUENT,
    )
    fallacy = rng.choice(propositional)
    seeded = inject_formal(rng, fallacy, size=rng.randrange(2, 5))
    assert fallacy in detect(seeded.argument).fallacies


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_detector_validates_clean_arguments(seed):
    from repro.fallacies.formal_detector import Verdict, detect
    from repro.fallacies.injector import make_formal_argument

    rng = random.Random(seed)
    argument = make_formal_argument(rng, valid=True,
                                    size=rng.randrange(2, 6))
    assert detect(argument).verdict is Verdict.VALID


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_injected_informal_fallacies_stay_well_formed(seed):
    from repro.core.builder import ArgumentBuilder
    import repro
    from repro.fallacies.injector import inject_informal
    from repro.fallacies.taxonomy import GREENWELL_FINDINGS

    rng = random.Random(seed)
    builder = ArgumentBuilder("prop")
    top = builder.goal("The system is acceptably safe")
    strategy = builder.strategy("Argument over hazards", under=top)
    for index in range(4):
        goal = builder.goal(
            f"Hazard H{index} is acceptably managed", under=strategy
        )
        builder.solution(f"Analysis record {index}", under=goal)
    base = builder.build()
    fallacy = rng.choice(list(GREENWELL_FINDINGS))
    mutated, record = inject_informal(base, fallacy, rng)
    assert record.fallacy is fallacy
    # Structural syntax checking finds nothing to object to: the defect
    # is semantic (§IV.C).  (Texts may trip the propositionality
    # heuristic, which is a text-shape rule, so exclude that rule.)
    from repro.core.wellformed import GSN_STANDARD_RULES, RuleSet

    structural = RuleSet(
        "structural-only",
        tuple(
            rule for rule in GSN_STANDARD_RULES.rules
            if rule.name != "goal-not-proposition"
        ),
    )
    assert repro.check(mutated, structural).well_formed


# ---------------------------------------------------------------------------
# Prolog vs resolution agreement on ground Datalog
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["p", "q", "r"]),
            st.sampled_from(["a", "b", "c"]),
        ),
        min_size=1, max_size=6, unique=True,
    ),
    st.lists(
        st.tuples(
            st.sampled_from(["p", "q", "r"]),
            st.sampled_from(["p", "q", "r"]),
        ),
        min_size=0, max_size=4, unique=True,
    ),
    st.sampled_from(["p", "q", "r"]),
    st.sampled_from(["a", "b", "c"]),
)
@settings(max_examples=60, deadline=None)
def test_prolog_and_resolution_agree_on_datalog(
    facts, rules, query_pred, query_const
):
    """SLD resolution and refutation resolution decide the same ground
    queries over non-recursive Datalog programs."""
    from repro.logic.prolog import Program, parse_clause
    from repro.logic.resolution import FolClause, FolLiteral, prove
    from repro.logic.terms import parse_atom

    # Keep the rule set acyclic: only allow head < body alphabetically,
    # so SLD terminates without hitting depth limits.
    rules = [(head, body) for head, body in rules if head < body]

    program = Program()
    clauses = []
    for predicate, constant in facts:
        program.add(parse_clause(f"{predicate}({constant})."))
        clauses.append(FolClause.of(
            FolLiteral(parse_atom(f"{predicate}({constant})"))
        ))
    for head, body in rules:
        program.add(parse_clause(f"{head}(X) :- {body}(X)."))
        clauses.append(FolClause.of(
            FolLiteral(parse_atom(f"{body}(X)"), False),
            FolLiteral(parse_atom(f"{head}(X)")),
        ))

    query = f"{query_pred}({query_const})"
    sld_answer = program.provable(query)
    resolution_answer = prove(
        clauses, parse_atom(query), max_clauses=500
    ).found
    assert sld_answer == resolution_answer


# ---------------------------------------------------------------------------
# LTL cross-checks
# ---------------------------------------------------------------------------


@st.composite
def ltl_formulas(draw):
    from repro.logic import ltl

    atoms = st.sampled_from([ltl.Prop("a"), ltl.Prop("b"), ltl.Prop("c")])

    def extend(children):
        return st.one_of(
            st.builds(ltl.LNot, children),
            st.builds(ltl.LAnd, children, children),
            st.builds(ltl.LOr, children, children),
            st.builds(ltl.LImplies, children, children),
            st.builds(ltl.Next, children),
            st.builds(ltl.Always, children),
            st.builds(ltl.Eventually, children),
            st.builds(ltl.Until, children, children),
            st.builds(ltl.Release, children, children),
        )

    return draw(st.recursive(atoms, extend, max_leaves=8))


@st.composite
def ltl_traces(draw):
    length = draw(st.integers(min_value=1, max_value=6))
    return [
        frozenset(draw(st.sets(st.sampled_from(["a", "b", "c"]))))
        for _ in range(length)
    ]


@pytest.mark.claims
@given(ltl_formulas(), ltl_traces())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_ltl_evaluators_agree(formula, trace):
    from conftest import recursive_holds
    from repro.logic.ltl import holds

    for position in range(len(trace)):
        assert holds(formula, trace, position) == recursive_holds(
            formula, trace, position
        )


@pytest.mark.claims
@given(ltl_formulas())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_ltl_parser_round_trips_rendered_formulas(formula):
    from repro.logic.ltl import parse_ltl

    assert parse_ltl(str(formula)) == formula


# ---------------------------------------------------------------------------
# BBN variable elimination vs enumeration
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.floats(min_value=0.05, max_value=0.95), min_size=3, max_size=3
    ),
    st.floats(min_value=0.05, max_value=0.95),
    st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_bbn_elimination_matches_enumeration(priors, strength, evidence):
    import pytest

    from repro.logic.bbn import BayesNet, Cpt, noisy_or_cpt

    net = BayesNet()
    net.add_prior("a", priors[0])
    net.add_prior("b", priors[1])
    net.add(noisy_or_cpt("c", ("a", "b"), (strength, priors[2])))
    net.add(Cpt("d", ("c",), {(True,): 0.9, (False,): 0.1}))
    query = net.query("a", {"d": evidence})
    brute = net.query_bruteforce("a", {"d": evidence})
    assert query == pytest.approx(brute)
