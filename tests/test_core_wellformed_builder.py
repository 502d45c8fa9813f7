"""Tests for repro.core.wellformed and repro.core.builder."""

from __future__ import annotations

import pytest

import repro
from conftest import check
from repro.core.argument import Argument, LinkKind
from repro.core.builder import ArgumentBuilder, BuildError
from repro.core.nodes import Node, NodeType
from repro.core.wellformed import DENNEY_PAI_RULES, GSN_STANDARD_RULES


class TestStandardRules:
    def test_well_formed_fixture(self, hazard_argument):
        assert repro.check(hazard_argument).well_formed

    def test_supported_by_cannot_target_context(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        argument.add_node(Node("C1", NodeType.CONTEXT, "Urban rail"))
        argument.add_link("G1", "C1", LinkKind.SUPPORTED_BY)
        rules = {v.rule for v in check(argument)}
        assert "supported-by-target" in rules

    def test_solution_cannot_cite_support(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        argument.add_node(Node("Sn1", NodeType.SOLUTION, "Test report"))
        argument.add_node(Node("G2", NodeType.GOAL, "A claim is made"))
        argument.supported_by("G1", "Sn1")
        argument.supported_by("Sn1", "G2")
        rules = {v.rule for v in check(argument)}
        assert "supported-by-source" in rules
        assert "solution-leaf" in rules

    def test_in_context_of_must_target_contextual(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        argument.add_node(Node("G2", NodeType.GOAL, "Another claim is made",
                               undeveloped=True))
        argument.add_link("G1", "G2", LinkKind.IN_CONTEXT_OF)
        rules = {v.rule for v in check(argument)}
        assert "in-context-of-target" in rules

    def test_away_goal_solution_context_rule(self):
        # §II.B: 'solutions cannot be in the context of an away goal'.
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        argument.add_node(Node(
            "AG1", NodeType.AWAY_GOAL, "Power is safe", module="power"
        ))
        argument.add_node(Node("Sn1", NodeType.SOLUTION, "Report"))
        argument.supported_by("G1", "AG1")
        argument.add_link("AG1", "Sn1", LinkKind.IN_CONTEXT_OF)
        rules = {v.rule for v in check(argument)}
        assert "away-goal-solution-context" in rules

    def test_multiple_roots_flagged(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe",
                               undeveloped=True))
        argument.add_node(Node("G2", NodeType.GOAL, "The unit is safe",
                               undeveloped=True))
        rules = {v.rule for v in check(argument)}
        assert "single-root" in rules

    def test_cycle_flagged(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "Claim one is true"))
        argument.add_node(Node("G2", NodeType.GOAL, "Claim two is true"))
        argument.supported_by("G1", "G2")
        argument.supported_by("G2", "G1")
        rules = {v.rule for v in check(argument)}
        assert "acyclic" in rules

    def test_unmarked_undeveloped_goal_flagged(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        rules = {v.rule for v in check(argument)}
        assert "undeveloped-unmarked" in rules

    def test_marked_undeveloped_goal_ok(self):
        argument = Argument()
        argument.add_node(Node(
            "G1", NodeType.GOAL, "The system is safe", undeveloped=True
        ))
        assert repro.check(argument).well_formed

    def test_empty_strategy_flagged(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        argument.add_node(Node("S1", NodeType.STRATEGY, "Argument over parts"))
        argument.supported_by("G1", "S1")
        rules = {v.rule for v in check(argument)}
        assert "strategy-unsupported" in rules

    def test_non_propositional_goal_flagged(self):
        argument = Argument()
        argument.add_node(Node(
            "G1", NodeType.GOAL,
            "Formal proof that spec holds for Fc.cpp",
            undeveloped=True,
        ))
        rules = {v.rule for v in check(argument)}
        assert "goal-not-proposition" in rules


class TestDenneyPaiVariant:
    def test_goal_to_goal_allowed_by_standard(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        argument.add_node(Node("G2", NodeType.GOAL,
                               "The subsystem is safe"))
        argument.add_node(Node("Sn1", NodeType.SOLUTION, "Report"))
        argument.supported_by("G1", "G2")
        argument.supported_by("G2", "Sn1")
        assert repro.check(argument, GSN_STANDARD_RULES).well_formed

    def test_goal_to_goal_rejected_by_denney_pai(self):
        # The erroneous formalisation the paper calls out (§III.I).
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        argument.add_node(Node("G2", NodeType.GOAL,
                               "The subsystem is safe"))
        argument.add_node(Node("Sn1", NodeType.SOLUTION, "Report"))
        argument.supported_by("G1", "G2")
        argument.supported_by("G2", "Sn1")
        violations = check(argument, DENNEY_PAI_RULES)
        assert any(
            v.rule == "denney-pai-no-goal-to-goal" for v in violations
        )


class TestBuilder:
    def test_auto_identifiers(self):
        builder = ArgumentBuilder()
        first = builder.goal("The system is safe", undeveloped=True)
        assert first == "G1"

    def test_explicit_identifier(self):
        builder = ArgumentBuilder()
        name = builder.goal("The system is safe", identifier="TOP",
                            undeveloped=True)
        assert name == "TOP"

    def test_build_checks_by_default(self):
        builder = ArgumentBuilder()
        builder.goal("The system is safe")  # unsupported, unmarked
        with pytest.raises(BuildError):
            builder.build()

    def test_build_without_check(self):
        builder = ArgumentBuilder()
        builder.goal("The system is safe")
        argument = builder.build(check=False)
        assert len(argument) == 1

    def test_build_error_lists_violations(self):
        builder = ArgumentBuilder()
        builder.goal("The system is safe")
        with pytest.raises(BuildError) as info:
            builder.build()
        assert info.value.violations

    def test_away_goal(self):
        builder = ArgumentBuilder()
        top = builder.goal("The system is safe")
        builder.away_goal(
            "The power supply is safe", module="power", under=top
        )
        argument = builder.build()
        away = argument.node("AG1")
        assert away.module == "power"

    def test_full_construction(self, hazard_argument):
        # The conftest fixture exercises every builder method.
        assert repro.check(hazard_argument).well_formed
        assert len(hazard_argument.solutions) == 4

    def test_extra_support_link(self):
        builder = ArgumentBuilder()
        top = builder.goal("The system is safe")
        strategy = builder.strategy("Argument over modes", under=top)
        shared = builder.goal("The monitor detects faults", under=strategy)
        builder.solution("Monitor test report", under=shared)
        second = builder.strategy("Argument over the monitor", under=top)
        builder.support(second, shared)
        argument = builder.build()
        assert len(argument.parents(shared)) == 2
