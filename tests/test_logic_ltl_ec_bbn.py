"""Tests for repro.logic.ltl, event_calculus, and bbn."""

from __future__ import annotations

import pytest

from conftest import recursive_holds
from repro.logic.bbn import BayesNet, BbnError, Cpt, noisy_or_cpt
from repro.logic.event_calculus import (
    EffectAxiom,
    Event,
    EventCalculus,
    Fluent,
    Narrative,
    TriggerRule,
)
from repro.logic.ltl import (
    Always,
    Eventually,
    LtlSyntaxError,
    Next,
    Prop,
    Until,
    atoms_of_ltl,
    detect_and_avoid_property,
    holds,
    parse_ltl,
)


def _trace(*states: str) -> list[frozenset[str]]:
    """Build a trace from comma-separated atom strings ('a,b', '', 'c')."""
    return [
        frozenset(s.split(",")) - {""} for s in states
    ]


class TestLtlParse:
    def test_atom(self):
        assert parse_ltl("p") == Prop("p")

    def test_unary_operators(self):
        assert parse_ltl("G p") == Always(Prop("p"))
        assert parse_ltl("F p") == Eventually(Prop("p"))
        assert parse_ltl("X p") == Next(Prop("p"))

    def test_until(self):
        assert parse_ltl("p U q") == Until(Prop("p"), Prop("q"))

    def test_paper_formula_shape(self):
        formula = detect_and_avoid_property()
        assert isinstance(formula, Always)

    def test_rejects_garbage(self):
        with pytest.raises(LtlSyntaxError):
            parse_ltl("G (p ->")

    def test_atoms_of(self):
        assert atoms_of_ltl(parse_ltl("G (a -> (b U c))")) == {
            "a", "b", "c"
        }


class TestLtlSemantics:
    def test_atom_at_position(self):
        trace = _trace("p", "")
        assert holds(Prop("p"), trace, 0)
        assert not holds(Prop("p"), trace, 1)

    def test_always(self):
        assert holds(parse_ltl("G p"), _trace("p", "p", "p"))
        assert not holds(parse_ltl("G p"), _trace("p", "", "p"))

    def test_eventually(self):
        assert holds(parse_ltl("F p"), _trace("", "", "p"))
        assert not holds(parse_ltl("F p"), _trace("", "", ""))

    def test_strong_next_fails_at_end(self):
        assert not holds(parse_ltl("X p"), _trace("p"))
        assert holds(parse_ltl("X p"), _trace("", "p"))

    def test_until_requires_eventual_right(self):
        assert holds(parse_ltl("p U q"), _trace("p", "p", "q"))
        assert not holds(parse_ltl("p U q"), _trace("p", "p", "p"))
        assert not holds(parse_ltl("p U q"), _trace("p", "", "q"))

    def test_until_immediate(self):
        assert holds(parse_ltl("p U q"), _trace("q"))

    def test_release(self):
        # q must hold up to and including the step where p releases it.
        assert holds(parse_ltl("p R q"), _trace("q", "q,p", ""))
        assert holds(parse_ltl("p R q"), _trace("q", "q", "q"))
        assert not holds(parse_ltl("p R q"), _trace("q", "", ""))

    def test_out_of_range_position(self):
        with pytest.raises(ValueError):
            holds(Prop("p"), _trace("p"), 5)

    def test_detect_and_avoid_nominal(self):
        trace = _trace(
            "no_collision",
            "intrusion,no_collision",
            "intrusion,no_collision",
            "separated,no_collision",
        )
        assert holds(detect_and_avoid_property(), trace)

    def test_detect_and_avoid_collision(self):
        trace = _trace(
            "no_collision",
            "intrusion",  # collision at intrusion onset
            "separated,no_collision",
        )
        assert not holds(detect_and_avoid_property(), trace)

    def test_agrees_with_the_recursive_reference(self):
        formulas = [
            "G p", "F p", "X p", "p U q", "p R q",
            "G (p -> F q)", "G (p -> (q U r))", "F (p & X q)",
            "!(p U q)", "G p | F q",
        ]
        traces = [
            _trace("p", "q", "r"),
            _trace("p,q", "p", "p,r"),
            _trace("", "", ""),
            _trace("q"),
            _trace("p", "p,q", "q,r", "r", ""),
        ]
        for text in formulas:
            formula = parse_ltl(text)
            for trace in traces:
                for position in range(len(trace)):
                    assert holds(formula, trace, position) == recursive_holds(
                        formula, trace, position
                    ), (text, trace, position)


class TestEventCalculus:
    def test_initiation_and_inertia(self):
        light_on = Fluent("LightOn")
        calculus = EventCalculus(axioms=[
            EffectAxiom(Event("SwitchOn"), light_on, initiates=True),
            EffectAxiom(Event("SwitchOff"), light_on, initiates=False),
        ])
        narrative = Narrative()
        narrative.happens(Event("SwitchOn"), 1)
        narrative.happens(Event("SwitchOff"), 3)
        timeline = calculus.run(narrative, horizon=6)
        assert not timeline.holds_at(light_on, 0)
        assert not timeline.holds_at(light_on, 1)  # effect after event
        assert timeline.holds_at(light_on, 2)
        assert timeline.holds_at(light_on, 3)
        assert not timeline.holds_at(light_on, 4)

    def test_initially_true_fluents(self):
        power = Fluent("Power")
        calculus = EventCalculus(axioms=[
            EffectAxiom(Event("Cut"), power, initiates=False),
        ])
        narrative = Narrative(initially={power})
        narrative.happens(Event("Cut"), 2)
        timeline = calculus.run(narrative, horizon=5)
        assert timeline.holds_at(power, 0)
        assert not timeline.holds_at(power, 3)

    def test_conditional_effect(self):
        armed = Fluent("Armed")
        fired = Fluent("Fired")
        calculus = EventCalculus(axioms=[
            EffectAxiom(Event("Arm"), armed, initiates=True),
            EffectAxiom(Event("Trigger"), fired, initiates=True,
                        condition=(armed,)),
        ])
        narrative = Narrative()
        narrative.happens(Event("Trigger"), 1)  # not armed: no effect
        narrative.happens(Event("Arm"), 2)
        narrative.happens(Event("Trigger"), 4)
        timeline = calculus.run(narrative, horizon=7)
        assert not timeline.holds_at(fired, 2)
        assert timeline.holds_at(fired, 5)

    def test_trigger_rule_derives_events(self):
        friends = Fluent("Friends")
        calculus = EventCalculus(triggers=[
            TriggerRule(Event("Tap"), (friends,), Event("Query"),
                        delay=1),
        ])
        narrative = Narrative(initially={friends})
        narrative.happens(Event("Tap"), 2)
        timeline = calculus.run(narrative)
        assert timeline.happens(Event("Query"), 3)
        assert timeline.first_occurrence(Event("Query")) == 3

    def test_trigger_guard_blocks(self):
        friends = Fluent("Friends")
        calculus = EventCalculus(triggers=[
            TriggerRule(Event("Tap"), (friends,), Event("Query")),
        ])
        narrative = Narrative()  # not friends
        narrative.happens(Event("Tap"), 2)
        timeline = calculus.run(narrative)
        assert not timeline.ever_happens(Event("Query"))

    def test_negative_time_rejected(self):
        narrative = Narrative()
        with pytest.raises(ValueError):
            narrative.happens(Event("E"), -1)

    def test_all_occurrences_ordered(self):
        calculus = EventCalculus()
        narrative = Narrative()
        narrative.happens(Event("B"), 3)
        narrative.happens(Event("A"), 1)
        timeline = calculus.run(narrative)
        times = [o.time for o in timeline.all_occurrences()]
        assert times == sorted(times)


class TestBbn:
    def test_prior_query(self):
        net = BayesNet()
        net.add_prior("rain", 0.3)
        assert net.query("rain") == pytest.approx(0.3)

    def test_chain_inference(self):
        net = BayesNet()
        net.add_prior("a", 0.5)
        net.add(Cpt("b", ("a",), {(True,): 0.9, (False,): 0.1}))
        assert net.query("b") == pytest.approx(0.5)
        assert net.query("b", {"a": True}) == pytest.approx(0.9)

    def test_diagnostic_reasoning(self):
        net = BayesNet()
        net.add_prior("disease", 0.01)
        net.add(Cpt(
            "test_positive", ("disease",),
            {(True,): 0.95, (False,): 0.05},
        ))
        posterior = net.query("test_positive", {})
        assert posterior == pytest.approx(0.01 * 0.95 + 0.99 * 0.05)
        updated = net.query("disease", {"test_positive": True})
        assert 0.15 < updated < 0.17  # Bayes: ~0.161

    def test_noisy_or(self):
        cpt = noisy_or_cpt("c", ("a", "b"), (0.8, 0.6), leak=0.0)
        assert cpt.table[(False, False)] == pytest.approx(0.0)
        assert cpt.table[(True, False)] == pytest.approx(0.8)
        assert cpt.table[(False, True)] == pytest.approx(0.6)
        assert cpt.table[(True, True)] == pytest.approx(1 - 0.2 * 0.4)

    def test_variable_elimination_matches_bruteforce(self):
        net = BayesNet()
        net.add_prior("a", 0.4)
        net.add_prior("b", 0.7)
        net.add(noisy_or_cpt("c", ("a", "b"), (0.9, 0.5), leak=0.05))
        net.add(Cpt("d", ("c",), {(True,): 0.8, (False,): 0.2}))
        for variable in ("a", "b", "c", "d"):
            for evidence in ({}, {"d": True}, {"a": True, "d": False}):
                if variable in evidence:
                    continue
                assert net.query(variable, evidence) == pytest.approx(
                    net.query_bruteforce(variable, evidence)
                ), (variable, evidence)

    def test_invalid_cpt_rejected(self):
        with pytest.raises(BbnError):
            Cpt("x", ("p",), {(True,): 0.5})  # missing a row
        with pytest.raises(BbnError):
            Cpt("x", (), {(): 1.5})  # probability out of range

    def test_unknown_parent_rejected(self):
        net = BayesNet()
        with pytest.raises(BbnError):
            net.add(Cpt("x", ("ghost",), {(True,): 0.5, (False,): 0.5}))

    def test_zero_probability_evidence(self):
        net = BayesNet()
        net.add_prior("a", 1.0)
        with pytest.raises(BbnError):
            net.query("a", {"a": False})

    def test_joint_sums_to_one(self):
        import itertools

        net = BayesNet()
        net.add_prior("a", 0.3)
        net.add(Cpt("b", ("a",), {(True,): 0.6, (False,): 0.2}))
        total = sum(
            net.joint({"a": a, "b": b})
            for a, b in itertools.product((False, True), repeat=2)
        )
        assert total == pytest.approx(1.0)
