"""The obligation formula parsers: round trips, totality, a FOL oracle.

Propositional, LTL and FOL obligation formulas are parsed by one
precedence-climbing routine, each language from its own tables.  These
tests pin those tables from outside:

* a minimal-bracket printer, driven by a precedence table written here
  from the documented grammars, renders random formulas that the
  parsers must read back structurally (``str()`` round trips live in
  ``test_properties.py`` for the propositional and LTL syntaxes; the
  FOL one is here, through the obligation parser);
* every parser entry point, fed arbitrary text, ends in its own typed
  error and nothing else;
* a finite-domain FOL evaluator that shares no code with
  :mod:`repro.logic.fol` or :mod:`repro.logic.entailment` enumerates
  every interpretation of tiny signatures and must agree with
  ``fol_entails`` and with ``discharge("fol: ...")``;
* nesting far past the old recursive-descent limit, and a DPLL search
  long enough to have exhausted the old recursion, both discharge.

Every hypothesis test here is derandomized, so a CI failure reproduces
locally.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from repro.claims.compiler import ClaimCompileError
from repro.claims.lang import ClaimSyntaxError, parse_module
from repro.claims.obligations import (
    ObligationSyntaxError,
    _parse_fol_body,
    discharge,
    parse_obligation,
    validate_obligation,
)
from repro.logic import fol, ltl, propositional as prop
from repro.logic.sat import DpllSolver, _apply_assignment
from repro.logic.terms import Atom, Const, Var

from test_properties import formulas, ltl_formulas

pytestmark = pytest.mark.claims

_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


# -- generators ---------------------------------------------------------------


#: The fixed signature every generated FOL formula is typed against.
_SORTS = {"S": ("a", "b"), "T": ("c",)}
_PREDICATES = {"P": ("S",), "Q": ("S",), "R": ("T",), "E": ("S", "T"),
               "Z": ()}
_SIGNATURE_TEXT = (
    "sort S = a, b ; sort T = c ; pred P(S) ; pred Q(S) ; pred R(T) ; "
    "pred E(S, T) ; pred Z"
)
_BINARY_FOL = (fol.FolAnd, fol.FolOr, fol.FolImplies)


@st.composite
def _fol_formulas(
    draw, scope: "tuple[tuple[str, str], ...]" = (), depth: int = 3,
) -> fol.FolFormula:
    """A well-sorted closed formula over the fixed signature."""
    choice = draw(st.integers(0, 5 if depth else 0))
    if choice == 0:
        predicate = draw(st.sampled_from(sorted(_PREDICATES)))
        visible = dict(reversed(scope))
        args = []
        for sort in _PREDICATES[predicate]:
            names = [Var(v) for v, s in visible.items() if s == sort]
            names += [Const(c) for c in _SORTS[sort] if c not in visible]
            args.append(draw(st.sampled_from(names)))
        return fol.FolAtom(Atom(predicate, tuple(args)))
    if choice == 1:
        return fol.FolNot(draw(_fol_formulas(scope, depth - 1)))
    if choice <= 4:
        return draw(st.sampled_from(_BINARY_FOL))(
            draw(_fol_formulas(scope, depth - 1)),
            draw(_fol_formulas(scope, depth - 1)),
        )
    # "a" is also a constant: bound, it shadows the constant.
    variable = draw(st.sampled_from(["x", "a"]))
    sort = draw(st.sampled_from(sorted(_SORTS)))
    body = draw(_fol_formulas(((variable, sort), *scope), depth - 1))
    ctor = draw(st.sampled_from([fol.ForAll, fol.Exists]))
    return ctor(Var(variable), fol.Sort(sort), body)


# -- a minimal-bracket printer from the documented precedence -----------------

#: Loosest binds lowest: (token, precedence, right-associative).  Written
#: from the module docstrings, not read from the parsers' tables.
_INFIX = {
    prop.Iff: ("<->", 1, True), prop.Implies: ("->", 2, True),
    prop.Or: ("|", 3, False), prop.And: ("&", 4, False),
    ltl.LImplies: ("->", 1, True), ltl.LOr: ("|", 2, False),
    ltl.LAnd: ("&", 3, False), ltl.Until: ("U", 4, False),
    ltl.Release: ("R", 4, False),
    fol.FolImplies: ("->", 1, True), fol.FolOr: ("|", 2, False),
    fol.FolAnd: ("&", 3, False),
}
_PREFIX = {
    prop.Not: "~", ltl.LNot: "!", ltl.Next: "X", ltl.Always: "G",
    ltl.Eventually: "F", fol.FolNot: "~",
}


def _operands(node) -> tuple:
    if hasattr(node, "antecedent"):
        return node.antecedent, node.consequent
    return node.left, node.right


def _minimal(node, last: bool = True) -> str:
    """Render with only the brackets the grammar needs.

    ``last`` says nothing follows this text inside its bracket, which a
    quantifier needs because its body extends as far right as it can.
    """
    kind = type(node)
    if kind in _PREFIX:
        operand = node.operand
        text = _minimal(operand, last)
        if type(operand) in _INFIX:
            text = f"({_minimal(operand)})"
        return f"{_PREFIX[kind]} {text}"
    if kind in (fol.ForAll, fol.Exists):
        word = "forall" if kind is fol.ForAll else "exists"
        text = f"{word} {node.variable}:{node.sort}. {_minimal(node.body)}"
        return text if last else f"({text})"
    if kind not in _INFIX:
        return str(node)
    token, precedence, right = _INFIX[kind]
    left_node, right_node = _operands(node)
    left_text = _minimal(left_node, last=False)
    if type(left_node) in _INFIX:
        inner = _INFIX[type(left_node)][1]
        if inner < precedence or (inner == precedence and right):
            left_text = f"({_minimal(left_node)})"
    right_text = _minimal(right_node, last)
    if type(right_node) in _INFIX:
        inner = _INFIX[type(right_node)][1]
        if inner < precedence or (inner == precedence and not right):
            right_text = f"({_minimal(right_node)})"
    return f"{left_text} {token} {right_text}"


def test_minimal_printer_drops_brackets():
    a, b, c = (prop.Atom(n) for n in "abc")
    assert _minimal(prop.Implies(a, prop.Implies(b, c))) == "a -> b -> c"
    assert _minimal(prop.Implies(prop.Implies(a, b), c)) == "(a -> b) -> c"
    assert _minimal(prop.Or(prop.Or(a, b), c)) == "a | b | c"
    assert _minimal(prop.Or(a, prop.Or(b, c))) == "a | (b | c)"
    assert _minimal(prop.Iff(prop.And(a, b), prop.Not(c))) == "a & b <-> ~ c"


@_SETTINGS
@given(formulas())
def test_propositional_minimal_rendering_round_trips(formula):
    assert prop.parse(_minimal(formula)) == formula


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ltl_formulas())
def test_ltl_minimal_rendering_round_trips(formula):
    assert ltl.parse_ltl(_minimal(formula)) == formula


def _parse_fol_conclusion(text: str) -> fol.FolFormula:
    return _parse_fol_body(f"{_SIGNATURE_TEXT} |- {text}")[2]


@_SETTINGS
@given(_fol_formulas())
def test_fol_minimal_rendering_round_trips(formula):
    assert _parse_fol_conclusion(_minimal(formula)) == formula


@_SETTINGS
@given(_fol_formulas())
def test_fol_parser_round_trips_rendered_formulas(formula):
    assert _parse_fol_conclusion(str(formula)) == formula


def test_ltl_rejects_the_biconditional():
    with pytest.raises(ltl.LtlSyntaxError, match="unexpected character '<'"):
        ltl.parse_ltl("p <-> q")


# -- totality -----------------------------------------------------------------

_FRAGMENTS = st.sampled_from([
    "<->", "->", "|-", "(", ")", "&", "|", "~", "!", ";", ",", ":", ".",
    "=", "@", "<", "-", " ", " ", "p", "q", "a", "true", "G", "F", "X",
    "U", "R", "sort", "pred", "axiom", "forall", "exists", "S", "P",
    "P(a)", "P(x)", "x", "1",
])
#: Mostly grammar fragments, so texts get past the tokenisers, with
#: arbitrary characters mixed in.
_TEXT = st.one_of(st.text(), st.lists(
    st.one_of(_FRAGMENTS, _FRAGMENTS, _FRAGMENTS, st.characters()),
    max_size=30,
).map("".join))
_SPECS = st.one_of(
    st.builds("{}{}{}".format, st.sampled_from(
        ["sat", "valid", "entails", "fol", "ltl", "SAT", "x", ""],
    ), st.sampled_from([":", ": ", ""]), _TEXT),
    st.builds("entails: {} |- {}".format, _TEXT, _TEXT),
    st.builds("fol: sort S = a, b ; pred P(S) ; axiom {} |- {}".format,
              _TEXT, _TEXT),
    st.builds("ltl: {} @ {}".format, _TEXT, _TEXT),
)


@_SETTINGS
@given(_TEXT)
def test_the_formula_parsers_raise_only_their_syntax_errors(text):
    for parser, error in ((prop.parse, prop.PropositionalSyntaxError),
                          (ltl.parse_ltl, ltl.LtlSyntaxError)):
        try:
            parser(text)
        except error:
            pass


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_SPECS)
def test_obligations_raise_only_obligation_syntax_errors(spec):
    try:
        obligation = parse_obligation(spec)
    except ObligationSyntaxError:
        return
    try:
        validate_obligation(obligation)
    except ObligationSyntaxError:
        pass
    detail = discharge(obligation)
    assert detail is None or isinstance(detail, str)


_MODULE_LINES = st.sampled_from([
    "module m", 'claim G1 "The system is safe" supported',
    "claim G2 'x' undeveloped", "rule r1 require supported goal",
    "rule r2 forbid link supported_by solution -> goal",
    "rule r3 require acyclic", "rule r3 require single_root",
    "rule r4 require mention goal \"safe\"",
])


@st.composite
def _modules(draw) -> str:
    lines = draw(st.lists(st.one_of(
        _MODULE_LINES,
        st.builds(
            lambda kind, body: f'evidence Sn1 {kind} "{body}"',
            st.sampled_from(["sat", "valid", "entails", "fol", "ltl", "x"]),
            _SPECS.map(lambda s: s.partition(":")[2].replace('"', "")),
        ),
        _TEXT,
    ), max_size=6))
    if draw(st.booleans()):
        lines.insert(0, "module m")
    return "\n".join(lines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_modules())
def test_claim_modules_raise_only_typed_errors(text):
    try:
        parse_module(text).compile()
    except (ClaimSyntaxError, ClaimCompileError, ObligationSyntaxError):
        pass


# -- a finite-domain FOL oracle -----------------------------------------------

_GROUND_ATOMS = [
    (predicate, args)
    for predicate, sorts in sorted(_PREDICATES.items())
    for args in itertools.product(*(_SORTS[sort] for sort in sorts))
]


def _interpretations() -> Iterator[frozenset]:
    """Every set of true ground atoms over the fixed signature."""
    for bits in itertools.product((False, True), repeat=len(_GROUND_ATOMS)):
        yield frozenset(
            atom for atom, bit in zip(_GROUND_ATOMS, bits) if bit
        )


def _true_in(formula, model: frozenset, env: "dict[str, str]") -> bool:
    """Tarski's truth definition, quantifiers over the sorts' domains."""
    if isinstance(formula, fol.FolAtom):
        args = tuple(
            env[arg.name] if isinstance(arg, Var) else arg.name
            for arg in formula.atom.args
        )
        return (formula.atom.predicate, args) in model
    if isinstance(formula, fol.FolNot):
        return not _true_in(formula.operand, model, env)
    if isinstance(formula, (fol.ForAll, fol.Exists)):
        test = all if isinstance(formula, fol.ForAll) else any
        return test(
            _true_in(formula.body, model, {**env, formula.variable.name: c})
            for c in _SORTS[formula.sort.name]
        )
    left, right = _operands(formula)
    left_true = _true_in(left, model, env)
    if isinstance(formula, fol.FolAnd):
        return left_true and _true_in(right, model, env)
    if isinstance(formula, fol.FolOr):
        return left_true or _true_in(right, model, env)
    return not left_true or _true_in(right, model, env)


def _oracle_entails(axioms, conclusion) -> bool:
    return all(
        _true_in(conclusion, model, {})
        for model in _interpretations()
        if all(_true_in(axiom, model, {}) for axiom in axioms)
    )


def _signature() -> fol.Signature:
    signature = fol.Signature()
    sorts = {name: signature.declare_sort(name) for name in _SORTS}
    for name, constants in _SORTS.items():
        for constant in constants:
            signature.declare_constant(constant, sorts[name])
    for name, arg_sorts in _PREDICATES.items():
        signature.declare_predicate(name, *(sorts[s] for s in arg_sorts))
    return signature


def _agrees_with_the_oracle(axioms, conclusion) -> bool:
    expected = _oracle_entails(axioms, conclusion)
    assert fol.fol_entails(_signature(), axioms, conclusion) is expected
    body = " ; ".join(
        [_SIGNATURE_TEXT, *(f"axiom {_minimal(a)}" for a in axioms)]
    ) + f" |- {_minimal(conclusion)}"
    detail = discharge(parse_obligation(f"fol: {body}"))
    assert detail == (None if expected else
                      "axioms do not entail the conclusion")
    return expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_fol_formulas(depth=2), max_size=2), _fol_formulas())
def test_fol_agrees_with_an_independent_model_enumerator(axioms, conclusion):
    _agrees_with_the_oracle(axioms, conclusion)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.booleans(), min_size=len(_GROUND_ATOMS),
             max_size=len(_GROUND_ATOMS)),
    _fol_formulas(),
)
def test_fol_agrees_with_the_oracle_in_one_model(bits, conclusion):
    # An axiom fixing every ground atom leaves one model, so entailment
    # is truth in that model: about half the verdicts are "entailed".
    literals = []
    for (predicate, args), bit in zip(_GROUND_ATOMS, bits):
        atom = fol.FolAtom(Atom(predicate, tuple(map(Const, args))))
        literals.append(atom if bit else fol.FolNot(atom))
    model = frozenset(a for a, bit in zip(_GROUND_ATOMS, bits) if bit)
    diagram = functools.reduce(fol.FolAnd, literals)
    assert _agrees_with_the_oracle([diagram], conclusion) is _true_in(
        conclusion, model, {}
    )


def test_the_oracle_sees_both_verdicts():
    forall_p = fol.ForAll(Var("x"), fol.Sort("S"),
                          fol.FolAtom(Atom("P", (Var("x"),))))
    p_a = fol.FolAtom(Atom("P", (Const("a"),)))
    assert _oracle_entails([forall_p], p_a)
    assert not _oracle_entails([p_a], forall_p)
    assert len(_GROUND_ATOMS) == 8


# -- depth --------------------------------------------------------------------


def test_deep_parentheses_discharge():
    # Recursive descent spent five frames per level and failed at about
    # 200 levels; the climber spends one.
    spec = "sat: " + "(" * 300 + "p" + ")" * 300
    assert discharge(parse_obligation(spec)) is None


def test_nesting_past_the_recursion_limit_is_a_typed_error():
    # Deep enough for any stack: compiling a claim module must still end
    # in ObligationSyntaxError, and discharge in a detail string.
    spec = parse_obligation("sat: " + "(" * 5000 + "p" + ")" * 5000)
    with pytest.raises(ObligationSyntaxError, match="recursion"):
        validate_obligation(spec)
    assert discharge(spec).startswith("malformed obligation: maximum recursion")


def test_a_thousand_decisions_need_no_recursion():
    # Each CNF XOR pair costs DPLL one decision, and each used to cost a
    # frame: 1000 pairs ended as "maximum recursion depth exceeded".
    spec = "sat: " + " & ".join(
        f"(a{i} | b{i}) & (~a{i} | ~b{i})" for i in range(1000)
    )
    assert discharge(parse_obligation(spec)) is None


class _RecursiveDpll(DpllSolver):
    """The recursive search the explicit stack replaced, as reference."""

    def _search(self, clauses, assignment):
        clauses, assignment, conflict = self._propagate(clauses, assignment)
        if conflict:
            return None
        clauses, assignment = self._pure_literals(clauses, assignment)
        if not clauses:
            return assignment
        if any(not clause for clause in clauses):
            return None
        variable = self._choose_variable(clauses)
        self.decisions += 1
        for value in (True, False):
            trial = dict(assignment)
            trial[variable] = value
            reduced = _apply_assignment(clauses, variable, value)
            result = self._search(reduced, trial)
            if result is not None:
                return result
        return None


@pytest.mark.parametrize("seed", range(40))
def test_dpll_searches_in_the_recursive_order(seed):
    # Random 3-SAT near the satisfiability threshold (4.3 clauses per
    # variable): both verdicts, and 2 to 9 decisions with backtracking.
    rnd = random.Random(seed)
    names = [f"v{i}" for i in range(rnd.randint(6, 14))]
    clauses = [
        frozenset((name, rnd.random() < 0.5) for name in rnd.sample(names, 3))
        for _ in range(round(4.3 * len(names)))
    ]
    got, want = DpllSolver(clauses).solve(), _RecursiveDpll(clauses).solve()
    assert (got.assignment, got.decisions, got.propagations) == (
        want.assignment, want.decisions, want.propagations
    )
