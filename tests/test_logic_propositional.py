"""Tests for repro.logic.propositional."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.propositional import (
    FALSE,
    TRUE,
    And,
    Atom,
    Falsum,
    Iff,
    Implies,
    Not,
    Or,
    PropositionalSyntaxError,
    Verum,
    all_valuations,
    atoms_of,
    cnf_clauses,
    conjoin,
    disjoin,
    equivalent,
    evaluate,
    is_contradiction,
    is_satisfiable_bruteforce,
    is_tautology,
    models_of,
    _tokenise,
    parse,
    substitute,
    to_cnf,
    to_nnf,
)


class TestParse:
    def test_atom(self):
        assert parse("p") == Atom("p")

    def test_underscored_atom(self):
        assert parse("on_grnd") == Atom("on_grnd")

    def test_negation_tilde(self):
        assert parse("~p") == Not(Atom("p"))

    def test_negation_bang(self):
        assert parse("!p") == Not(Atom("p"))

    def test_double_negation(self):
        assert parse("~~p") == Not(Not(Atom("p")))

    def test_conjunction(self):
        assert parse("p & q") == And(Atom("p"), Atom("q"))

    def test_disjunction(self):
        assert parse("p | q") == Or(Atom("p"), Atom("q"))

    def test_implication(self):
        assert parse("p -> q") == Implies(Atom("p"), Atom("q"))

    def test_biconditional(self):
        assert parse("p <-> q") == Iff(Atom("p"), Atom("q"))

    def test_implication_right_associative(self):
        assert parse("p -> q -> r") == Implies(
            Atom("p"), Implies(Atom("q"), Atom("r"))
        )

    def test_and_binds_tighter_than_or(self):
        assert parse("p | q & r") == Or(
            Atom("p"), And(Atom("q"), Atom("r"))
        )

    def test_or_binds_tighter_than_implies(self):
        assert parse("p | q -> r") == Implies(
            Or(Atom("p"), Atom("q")), Atom("r")
        )

    def test_parentheses(self):
        assert parse("(p | q) & r") == And(
            Or(Atom("p"), Atom("q")), Atom("r")
        )

    def test_constants(self):
        assert parse("true") == TRUE
        assert parse("false") == FALSE

    def test_thrust_reverser_example(self):
        # The paper's §II.B symbolic claim.
        formula = parse("~on_grnd -> ~threv_en")
        assert formula == Implies(
            Not(Atom("on_grnd")), Not(Atom("threv_en"))
        )

    def test_rejects_trailing_input(self):
        with pytest.raises(PropositionalSyntaxError):
            parse("p q")

    def test_rejects_empty(self):
        with pytest.raises(PropositionalSyntaxError):
            parse("")

    def test_rejects_unbalanced_paren(self):
        with pytest.raises(PropositionalSyntaxError):
            parse("(p & q")

    def test_rejects_bad_character(self):
        with pytest.raises(PropositionalSyntaxError):
            parse("p @ q")

    def test_roundtrip_via_str(self):
        formula = parse("(a -> b) & ~(c | d) <-> e")
        assert equivalent(parse(str(formula)), formula)


_OLD_SYMBOLS = ("<->", "->", "(", ")", "&", "|", "~", "!")


def _old_tokenise(text: str) -> list[str]:
    """The per-character tokeniser the compiled regex replaced, kept as
    the reference the differential test below compares against."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        char = text[pos]
        if char.isspace():
            pos += 1
            continue
        for symbol in _OLD_SYMBOLS:
            if text.startswith(symbol, pos):
                tokens.append(symbol)
                pos += len(symbol)
                break
        else:
            if char.isalnum() or char == "_":
                start = pos
                while pos < len(text) and (
                    text[pos].isalnum() or text[pos] == "_"
                ):
                    pos += 1
                tokens.append(text[start:pos])
            else:
                raise PropositionalSyntaxError(
                    f"unexpected character {char!r} at position {pos}"
                )
    return tokens


def _outcome(tokenise, text: str):
    try:
        return tokenise(text)
    except PropositionalSyntaxError as error:
        return str(error)


#: Every symbol and near-miss of one, so ``<->`` lands next to ``->``,
#: ``<-``, a lone ``<`` or ``-`` and ``>``.
_FRAGMENTS = st.sampled_from(
    ["<->", "->", "<-", "<", "-", ">", "(", ")", "&", "|", "~", "!", "_"]
)
_WHITESPACE = st.sampled_from(
    [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
)
_WORD = st.characters(categories=("L", "N"))


@pytest.mark.claims
@settings(max_examples=400, deadline=None)
@given(st.lists(
    st.one_of(_FRAGMENTS, _WHITESPACE, _WORD, st.characters()),
    max_size=40,
).map("".join))
def test_tokenise_matches_the_per_character_loop(text: str) -> None:
    assert _outcome(_tokenise, text) == _outcome(_old_tokenise, text)


@pytest.mark.claims
def test_tokenise_every_word_and_space_code_point() -> None:
    """All of Unicode the old loop accepts, in one text: every word
    character and every whitespace character, between symbols."""
    accepted = [
        chr(code) for code in range(sys.maxunicode + 1)
        if chr(code).isspace() or chr(code).isalnum()
    ]
    text = "->".join(accepted) + "<->_"
    assert _tokenise(text) == _old_tokenise(text)


class TestEvaluate:
    def test_atom_lookup(self):
        assert evaluate(Atom("p"), {Atom("p"): True})
        assert not evaluate(Atom("p"), {Atom("p"): False})

    def test_missing_atom_raises(self):
        with pytest.raises(KeyError):
            evaluate(Atom("p"), {})

    def test_implication_truth_table(self):
        formula = parse("p -> q")
        p, q = Atom("p"), Atom("q")
        assert evaluate(formula, {p: False, q: False})
        assert evaluate(formula, {p: False, q: True})
        assert not evaluate(formula, {p: True, q: False})
        assert evaluate(formula, {p: True, q: True})

    def test_iff_truth_table(self):
        formula = parse("p <-> q")
        p, q = Atom("p"), Atom("q")
        assert evaluate(formula, {p: False, q: False})
        assert not evaluate(formula, {p: True, q: False})

    def test_constants(self):
        assert evaluate(TRUE, {})
        assert not evaluate(FALSE, {})


class TestClassification:
    def test_excluded_middle_is_tautology(self):
        assert is_tautology(parse("p | ~p"))

    def test_contradiction(self):
        assert is_contradiction(parse("p & ~p"))

    def test_contingent_is_neither(self):
        formula = parse("p -> q")
        assert not is_tautology(formula)
        assert not is_contradiction(formula)
        assert is_satisfiable_bruteforce(formula)

    def test_models_count(self):
        assert len(models_of(parse("p | q"))) == 3

    def test_all_valuations_count(self):
        atoms = [Atom("a"), Atom("b"), Atom("c")]
        assert len(list(all_valuations(atoms))) == 8


class TestNnf:
    def test_eliminates_implication(self):
        nnf = to_nnf(parse("p -> q"))
        assert nnf == Or(Not(Atom("p")), Atom("q"))

    def test_de_morgan_and(self):
        nnf = to_nnf(parse("~(p & q)"))
        assert nnf == Or(Not(Atom("p")), Not(Atom("q")))

    def test_de_morgan_or(self):
        nnf = to_nnf(parse("~(p | q)"))
        assert nnf == And(Not(Atom("p")), Not(Atom("q")))

    def test_negated_implication(self):
        nnf = to_nnf(parse("~(p -> q)"))
        assert nnf == And(Atom("p"), Not(Atom("q")))

    def test_double_negation_collapses(self):
        assert to_nnf(parse("~~p")) == Atom("p")

    def test_negated_constants(self):
        assert to_nnf(Not(TRUE)) == FALSE
        assert to_nnf(Not(FALSE)) == TRUE

    def test_preserves_equivalence(self):
        for text in ("p -> q", "~(p <-> q)", "~(p & (q | ~r))"):
            formula = parse(text)
            assert equivalent(formula, to_nnf(formula))


class TestCnf:
    def test_distribution(self):
        cnf = to_cnf(parse("p | (q & r)"))
        assert equivalent(cnf, parse("(p | q) & (p | r)"))

    def test_preserves_equivalence(self):
        for text in (
            "p -> (q -> r)",
            "(p & q) | (r & s)",
            "~(p <-> (q | r))",
        ):
            formula = parse(text)
            assert equivalent(formula, to_cnf(formula))

    def test_clauses_shape(self):
        clauses = cnf_clauses(parse("(p | q) & ~r"))
        assert frozenset({("p", True), ("q", True)}) in clauses
        assert frozenset({("r", False)}) in clauses

    def test_tautological_clause_dropped(self):
        clauses = cnf_clauses(parse("p | ~p"))
        assert clauses == frozenset()

    def test_contradiction_yields_unsatisfiable_clauses(self):
        # p & ~p becomes the unit clauses {p} and {~p}; the *solver*
        # derives the empty clause, the transform does not.
        clauses = cnf_clauses(parse("p & ~p"))
        assert frozenset({("p", True)}) in clauses
        assert frozenset({("p", False)}) in clauses

    def test_false_constant_yields_empty_clause(self):
        assert frozenset() in cnf_clauses(FALSE)


class TestHelpers:
    def test_atoms_of(self):
        assert atoms_of(parse("(a -> b) & ~c")) == {
            Atom("a"), Atom("b"), Atom("c")
        }

    def test_conjoin_empty_is_true(self):
        assert conjoin([]) == TRUE

    def test_disjoin_empty_is_false(self):
        assert disjoin([]) == FALSE

    def test_conjoin_evaluates_as_and(self):
        formula = conjoin([Atom("a"), Atom("b"), Atom("c")])
        assert equivalent(formula, parse("a & b & c"))

    def test_substitute(self):
        formula = substitute(
            parse("p -> q"), {Atom("p"): parse("a & b")}
        )
        assert equivalent(formula, parse("(a & b) -> q"))
