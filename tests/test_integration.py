"""Integration tests: cross-module flows mirroring the paper's narrative."""

from __future__ import annotations

import random

import pytest

import repro
from repro.core import ArgumentBuilder, AssuranceCase, SafetyCriterion
from repro.core.evidence import EvidenceItem, EvidenceKind
from repro.core.hicases import auto_fold_to_depth
from repro.core.impact import evidence_impact
from repro.core.patterns import Binding, hazard_avoidance_pattern
from repro.fallacies.formal_detector import Verdict, detect
from repro.fallacies.injector import seed_greenwell_argument
from repro.fallacies.taxonomy import GREENWELL_FINDINGS
from repro.formalise.proof_to_argument import (
    abstract_argument,
    proof_to_argument,
)
from repro.formalise.security import haley_example
from repro.formalise.translator import formalise_argument
from repro.logic.bbn import BayesNet, noisy_or_cpt
from repro.logic.natural_deduction import haley_outer_proof
from repro.notation.cae import cae_to_gsn, gsn_to_cae
from repro.notation.gsn_text import parse, serialise
from repro.notation.prose import render_prose


class TestPatternToCaseToFormalisationFlow:
    """Pattern -> argument -> case -> Rushby formalisation -> probing."""

    def test_end_to_end(self):
        pattern = hazard_avoidance_pattern()
        argument = pattern.instantiate(Binding.of(
            system="ACME light-rail brake",
            hazards=["overrun", "fire", "door-trap"],
            residual_risk=12,
        ))
        assert repro.check(argument).well_formed

        case = AssuranceCase(
            "acme-brake", argument,
            SafetyCriterion("Risk within budget", "risk_fraction", 0.12),
        )
        for index in range(1, 4):
            case.add_evidence(
                EvidenceItem(
                    f"ev{index}", EvidenceKind.FAULT_TREE_ANALYSIS,
                    f"analysis {index}",
                ),
                cited_by=f"Sn_hazard_{index}",
            )
        assert case.integrity_report().ok

        formalisation = formalise_argument(argument)
        formalisation.assent_all()
        assert formalisation.check()
        # Every hazard's mitigation evidence is load-bearing.
        assert formalisation.load_bearing_evidence() == [
            "Sn_hazard_1", "Sn_hazard_2", "Sn_hazard_3"
        ]
        # Withdrawing any one breaks the top-level proof.
        assert not formalisation.what_if_without("Sn_hazard_2")

    def test_impact_matches_probe(self):
        pattern = hazard_avoidance_pattern()
        argument = pattern.instantiate(Binding.of(
            system="ACME", hazards=["overrun", "fire"], residual_risk=9
        ))
        case = AssuranceCase("impact", argument)
        case.add_evidence(
            EvidenceItem("ev1", EvidenceKind.TESTING, "t"),
            cited_by="Sn_hazard_1",
        )
        report = evidence_impact(case, "ev1")
        assert report.root_reached
        formalisation = formalise_argument(argument)
        formalisation.assent_all()
        # Graph tracing and proof probing agree here: the evidence is
        # load-bearing and its claims reach the root.
        assert not formalisation.what_if_without("Sn_hazard_1")


class TestNotationPipeline:
    """The same argument through every concrete syntax."""

    def test_all_renderings_consistent(self, hazard_argument):
        text_form = serialise(hazard_argument)
        assert parse(text_form) == hazard_argument
        cae = gsn_to_cae(hazard_argument)
        assert cae_to_gsn(cae) == hazard_argument
        prose = render_prose(hazard_argument)
        for goal in hazard_argument.goals:
            # Every claim surfaces in the prose rendering.
            fragment = goal.text.rstrip(".")[:30]
            assert fragment.split()[2] in prose

    def test_views_shrink_monotonically(self, hazard_argument):
        full = len(hazard_argument)
        view2 = auto_fold_to_depth(hazard_argument, 2)
        assert view2.visible_size() <= full


class TestGreenwellPipeline:
    """Seed the published fallacy distribution, then measure detection."""

    def _base(self) -> "ArgumentBuilder":
        builder = ArgumentBuilder("greenwell-base")
        top = builder.goal("The system is acceptably safe")
        strategy = builder.strategy(
            "Argument over identified hazards", under=top
        )
        for index in range(12):
            goal = builder.goal(
                f"Hazard H{index} is acceptably managed", under=strategy
            )
            builder.solution(f"Mitigation analysis {index}", under=goal)
        return builder.build()

    def test_formal_checker_finds_nothing_to_reject(self):
        # 45 injected informal fallacies; the structural checker (minus
        # the text-shape heuristic) accepts the argument, and the
        # formalised rendering still proves its root: formal machinery
        # is blind to all of it (§V.B).
        rng = random.Random(20150601)
        mutated, records = seed_greenwell_argument(self._base(), rng)
        assert len(records) == 45

        from repro.core.wellformed import GSN_STANDARD_RULES, RuleSet

        structural = RuleSet(
            "structural-only",
            tuple(
                rule for rule in GSN_STANDARD_RULES.rules
                if rule.name != "goal-not-proposition"
            ),
        )
        assert repro.check(mutated, structural).well_formed

        formalisation = formalise_argument(mutated)
        formalisation.assent_all()
        assert formalisation.check()

    def test_distribution_preserved(self):
        rng = random.Random(77)
        _, records = seed_greenwell_argument(self._base(), rng)
        counts: dict = {}
        for record in records:
            counts[record.fallacy] = counts.get(record.fallacy, 0) + 1
        assert counts == dict(GREENWELL_FINDINGS)


class TestHaleyFullFramework:
    """Outer proof + inner Toulmin + generated GSN, end to end."""

    def test_proof_to_argument_to_abstraction(self):
        example = haley_example()
        assert example.check().proof_checks
        generated = proof_to_argument(example.outer, "HR system")
        abstracted = abstract_argument(generated)
        assert len(abstracted) <= len(generated)
        # The conclusion goal survives abstraction.
        assert any(
            "(D -> H)" in node.text for node in abstracted.nodes
        )

    def test_outer_argument_formal_validation(self):
        example = haley_example()
        from repro.fallacies.formal_detector import FormalArgument

        formal = FormalArgument(
            tuple(p for p in example.outer.premises),
            example.outer.conclusion,
        )
        assert detect(formal).verdict is Verdict.VALID


class TestBbnRedHerring:
    """§V.B: an asserted rule launders an irrelevant premise into
    mechanically-assessed confidence."""

    def test_confidence_inflation(self):
        # Base net: claim supported by one relevant evidence source.
        honest = BayesNet()
        honest.add_prior("fta_good", 0.8)
        honest.add(noisy_or_cpt(
            "claim", ("fta_good",), (0.85,), leak=0.02
        ))
        base_confidence = honest.query("claim", {"fta_good": True})

        # Same net plus a red-herring premise wired in by an asserted
        # rule ('the lab was refurbished').
        inflated = BayesNet()
        inflated.add_prior("fta_good", 0.8)
        inflated.add_prior("lab_refurbished", 0.95)
        inflated.add(noisy_or_cpt(
            "claim", ("fta_good", "lab_refurbished"), (0.85, 0.4),
            leak=0.02,
        ))
        inflated_confidence = inflated.query(
            "claim", {"fta_good": True, "lab_refurbished": True}
        )
        assert inflated_confidence > base_confidence


class TestSurveyToExperimentHandoff:
    """The survey's findings gate which experiments matter."""

    def test_experiment_targets_derive_from_survey(self):
        from repro.survey import (
            papers_formalising_pattern_structure,
            papers_informal_first,
        )

        # §VI.B exists because three papers formalise informally-built
        # arguments; §VI.D because three formalise pattern structure.
        assert len(papers_informal_first()) == 3
        assert len(papers_formalising_pattern_structure()) == 3

    def test_full_survey_and_one_experiment(self):
        from repro.experiments import (
            InstantiationStudyConfig,
            run_instantiation_study,
        )
        from repro.survey import run_survey

        outcome = run_survey()
        assert outcome.matches_published_table()
        result = run_instantiation_study(
            InstantiationStudyConfig(subjects_per_group=4, tasks=2)
        )
        assert result.tool_rejected_every_typing_error
