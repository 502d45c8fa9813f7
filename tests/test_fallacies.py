"""Tests for the repro.fallacies package — the paper's §IV-V machinery."""

from __future__ import annotations

import random

import pytest

import repro
from repro.core.builder import ArgumentBuilder
from repro.core.case import AssuranceCase
from repro.core.evidence import EvidenceItem, EvidenceKind
from repro.fallacies.formal_detector import (
    AnalysisResult,
    FormalArgument,
    Verdict,
    detect,
    detect_conversion,
    detect_syllogism,
)
from repro.fallacies.informal import (
    desert_bank_equivocation,
    hasty_generalisation_heuristic,
    homonym_heuristic,
    ignorance_heuristic,
    wrong_reasons_check,
)
from repro.fallacies.injector import (
    inject_formal,
    inject_informal,
    make_formal_argument,
    seed_greenwell_argument,
)
from repro.fallacies.taxonomy import (
    CATALOGUE,
    FallacyCategory,
    FormalFallacy,
    GREENWELL_FINDINGS,
    InformalFallacy,
    describe,
    greenwell_total,
)
from repro.logic.propositional import parse
from repro.logic.syllogism import (
    CategoricalProposition,
    PropositionForm,
    socrates_syllogism,
)


class TestTaxonomy:
    def test_eight_formal_fallacies(self):
        assert len(FormalFallacy) == 8

    def test_greenwell_distribution_matches_paper(self):
        # §V.B items (a)-(g).
        assert GREENWELL_FINDINGS[
            InformalFallacy.DRAWING_WRONG_CONCLUSION] == 3
        assert GREENWELL_FINDINGS[
            InformalFallacy.FALLACIOUS_USE_OF_LANGUAGE] == 10
        assert GREENWELL_FINDINGS[
            InformalFallacy.FALLACY_OF_COMPOSITION] == 2
        assert GREENWELL_FINDINGS[
            InformalFallacy.HASTY_INDUCTIVE_GENERALISATION] == 4
        assert GREENWELL_FINDINGS[
            InformalFallacy.OMISSION_OF_KEY_EVIDENCE] == 5
        assert GREENWELL_FINDINGS[InformalFallacy.RED_HERRING] == 5
        assert GREENWELL_FINDINGS[
            InformalFallacy.USING_WRONG_REASONS] == 16
        assert greenwell_total() == 45

    def test_no_observed_kind_is_machine_detectable(self):
        # The paper's central point: 'none of seven kinds of fallacies
        # found is strictly formal'.
        for kind in GREENWELL_FINDINGS:
            assert not CATALOGUE[kind].machine_detectable

    def test_every_formal_fallacy_is_machine_detectable(self):
        for kind in FormalFallacy:
            info = describe(kind)
            assert info.category is FallacyCategory.FORMAL
            assert info.machine_detectable

    def test_catalogue_covers_both_enums(self):
        for kind in list(FormalFallacy) + list(InformalFallacy):
            assert kind in CATALOGUE


class TestFormalDetector:
    def test_valid_argument(self):
        argument = FormalArgument(
            (parse("p -> q"), parse("p")), parse("q")
        )
        result = detect(argument)
        assert result.verdict is Verdict.VALID
        assert not result.findings

    def test_begging_the_question(self):
        argument = FormalArgument(
            (parse("c"), parse("p")), parse("c")
        )
        result = detect(argument)
        assert FormalFallacy.BEGGING_THE_QUESTION in result.fallacies

    def test_begging_detected_up_to_equivalence(self):
        argument = FormalArgument(
            (parse("~~c"),), parse("c")
        )
        result = detect(argument)
        assert FormalFallacy.BEGGING_THE_QUESTION in result.fallacies

    def test_incompatible_premises(self):
        argument = FormalArgument(
            (parse("p"), parse("~p"), parse("q")), parse("r")
        )
        result = detect(argument)
        assert FormalFallacy.INCOMPATIBLE_PREMISES in result.fallacies

    def test_premise_conclusion_contradiction(self):
        argument = FormalArgument((parse("p"),), parse("~p"))
        result = detect(argument)
        assert FormalFallacy.PREMISE_CONCLUSION_CONTRADICTION in \
            result.fallacies

    def test_denying_the_antecedent(self):
        argument = FormalArgument(
            (parse("p -> q"), parse("~p")), parse("~q")
        )
        result = detect(argument)
        assert result.verdict is Verdict.FALLACIOUS
        assert FormalFallacy.DENYING_THE_ANTECEDENT in result.fallacies

    def test_affirming_the_consequent(self):
        argument = FormalArgument(
            (parse("p -> q"), parse("q")), parse("p")
        )
        result = detect(argument)
        assert FormalFallacy.AFFIRMING_THE_CONSEQUENT in result.fallacies

    def test_plain_non_sequitur(self):
        argument = FormalArgument((parse("p"),), parse("q"))
        result = detect(argument)
        assert result.verdict is Verdict.NON_SEQUITUR
        assert not result.findings

    def test_valid_modus_tollens_not_flagged(self):
        # Similar surface shape to denying the antecedent, but valid.
        argument = FormalArgument(
            (parse("p -> q"), parse("~q")), parse("~p")
        )
        result = detect(argument)
        assert result.verdict is Verdict.VALID

    def test_wrong_reasons_asserted_rule_passes(self):
        # §V.B: 'code_reviewed & unit_tests_passed => meets_deadlines'
        # can simply be asserted; the checker then finds the argument
        # VALID.  Formal validation cannot see that the rule is wrong.
        argument = FormalArgument(
            (
                parse("code_reviewed"),
                parse("unit_tests_passed"),
                parse("code_reviewed & unit_tests_passed -> "
                      "meets_deadlines"),
            ),
            parse("meets_deadlines"),
        )
        assert detect(argument).verdict is Verdict.VALID

    def test_syllogism_detection(self):
        assert detect_syllogism(socrates_syllogism()).verdict is \
            Verdict.VALID
        from repro.logic.syllogism import Syllogism

        undistributed = Syllogism(
            CategoricalProposition(PropositionForm.A, "dogs", "mammals"),
            CategoricalProposition(PropositionForm.A, "cats", "mammals"),
            CategoricalProposition(PropositionForm.A, "cats", "dogs"),
        )
        result = detect_syllogism(undistributed)
        assert FormalFallacy.UNDISTRIBUTED_MIDDLE in result.fallacies

    def test_false_conversion(self):
        premise = CategoricalProposition(PropositionForm.A, "s", "p")
        from repro.logic.syllogism import converse

        result = detect_conversion(premise, converse(premise))
        assert FormalFallacy.FALSE_CONVERSION in result.fallacies
        valid_premise = CategoricalProposition(
            PropositionForm.E, "s", "p"
        )
        assert detect_conversion(
            valid_premise, converse(valid_premise)
        ).verdict is Verdict.VALID


class TestInjector:
    def test_every_propositional_injection_detected(self, rng):
        for fallacy in (
            FormalFallacy.BEGGING_THE_QUESTION,
            FormalFallacy.INCOMPATIBLE_PREMISES,
            FormalFallacy.PREMISE_CONCLUSION_CONTRADICTION,
            FormalFallacy.DENYING_THE_ANTECEDENT,
            FormalFallacy.AFFIRMING_THE_CONSEQUENT,
        ):
            for _ in range(5):
                seeded = inject_formal(rng, fallacy)
                result = detect(seeded.argument)
                assert fallacy in result.fallacies, fallacy

    def test_clean_arguments_pass(self, rng):
        for _ in range(10):
            argument = make_formal_argument(rng, valid=True,
                                            size=rng.randrange(2, 6))
            assert detect(argument).verdict is Verdict.VALID

    def test_syllogistic_injection_rejected(self, rng):
        with pytest.raises(ValueError):
            inject_formal(rng, FormalFallacy.UNDISTRIBUTED_MIDDLE)

    def test_informal_injection_records_location(self, rng,
                                                  hazard_argument):
        mutated, record = inject_informal(
            hazard_argument, InformalFallacy.RED_HERRING, rng
        )
        assert record.fallacy is InformalFallacy.RED_HERRING
        assert record.location in mutated
        # The original is untouched.
        assert record.location not in hazard_argument

    def test_informal_injections_evade_formal_checks(self, rng,
                                                     hazard_argument):
        # Injected informal fallacies leave the argument syntactically
        # well-formed — nothing for a formal checker to find (§IV.C).
        for fallacy in (
            InformalFallacy.RED_HERRING,
            InformalFallacy.USING_WRONG_REASONS,
            InformalFallacy.FALLACY_OF_COMPOSITION,
            InformalFallacy.ARGUING_FROM_IGNORANCE,
        ):
            mutated, _ = inject_informal(hazard_argument, fallacy, rng)
            assert repro.check(mutated).well_formed, fallacy

    def test_greenwell_seeding_counts(self, rng):
        builder = ArgumentBuilder("base")
        top = builder.goal("The system is acceptably safe")
        strategy = builder.strategy("Argument over hazards", under=top)
        for index in range(10):
            goal = builder.goal(
                f"Hazard H{index} is acceptably managed", under=strategy
            )
            builder.solution(f"Analysis record AR-{index}", under=goal)
        base = builder.build()
        mutated, records = seed_greenwell_argument(base, rng)
        assert len(records) == 45
        by_kind: dict[InformalFallacy, int] = {}
        for record in records:
            by_kind[record.fallacy] = by_kind.get(record.fallacy, 0) + 1
        assert by_kind == dict(GREENWELL_FINDINGS)

    def test_greenwell_seeding_deterministic(self):
        builder = ArgumentBuilder("base")
        top = builder.goal("The system is acceptably safe")
        strategy = builder.strategy("Argument over hazards", under=top)
        for index in range(10):
            goal = builder.goal(
                f"Hazard H{index} is acceptably managed", under=strategy
            )
            builder.solution(f"Analysis record AR-{index}", under=goal)
        base = builder.build()
        _, records_a = seed_greenwell_argument(base, random.Random(3))
        _, records_b = seed_greenwell_argument(base, random.Random(3))
        assert [str(r) for r in records_a] == [str(r) for r in records_b]


class TestDesertBank:
    def test_formally_derivable_but_false(self):
        witness = desert_bank_equivocation()
        assert witness.formally_derivable
        assert not witness.real_world_true
        assert not witness.is_sound

    def test_explanation_names_both_senses(self):
        text = desert_bank_equivocation().explain()
        assert "financial institution" in text
        assert "river" in text


class TestHeuristics:
    def test_homonym_heuristic_false_positive(self):
        # Consistent reuse of 'bus' (data bus in both nodes) is flagged
        # anyway — senses are invisible to the machine.
        builder = ArgumentBuilder("fp")
        top = builder.goal("The data bus is acceptably reliable")
        strategy = builder.strategy("Argument over bus fault modes",
                                    under=top)
        goal = builder.goal("The bus parity check detects corruption",
                            under=strategy)
        builder.solution("Parity injection test report", under=goal)
        flags = homonym_heuristic(builder.build())
        assert flags  # false positives, by construction

    def test_homonym_heuristic_false_negative(self):
        # An equivocation on a term absent from the lexicon is missed.
        builder = ArgumentBuilder("fn")
        top = builder.goal(
            "Every critical operation is covered by a second check"
        )
        strategy = builder.strategy(
            "Argument over the independent check", under=top
        )
        goal = builder.goal(
            "A second check arrives with each payment instruction",
            under=strategy,
        )  # 'check' as bank draft vs verification: not in lexicon
        builder.solution("Payment workflow audit", under=goal)
        flags = homonym_heuristic(builder.build())
        assert flags == []

    def test_hasty_generalisation_heuristic(self, rng, hazard_argument):
        mutated, record = inject_informal(
            hazard_argument,
            InformalFallacy.HASTY_INDUCTIVE_GENERALISATION, rng,
        )
        flags = hasty_generalisation_heuristic(mutated)
        assert any(f.node_id == record.location for f in flags)

    def test_ignorance_heuristic_flags_sound_arguments_too(self):
        # §IV.B's householder: sound, but flagged.
        builder = ArgumentBuilder("garage")
        top = builder.goal("There is no car in the garage")
        strategy = builder.strategy(
            "Argument from direct inspection", under=top
        )
        goal = builder.goal(
            "No car was observed after opening the garage and looking "
            "inside", under=strategy,
        )
        builder.solution("Inspection note", under=goal)
        flags = ignorance_heuristic(builder.build())
        assert flags

    def test_wrong_reasons_check_with_ontology(self, hazard_argument):
        case = AssuranceCase("wr", hazard_argument)
        case.add_evidence(
            EvidenceItem("unit_tests", EvidenceKind.TESTING,
                         "unit test results"),
            cited_by="Sn1",
        )
        flags = wrong_reasons_check(case, {"G2": "timing"})
        assert flags
        assert flags[0].fallacy is InformalFallacy.USING_WRONG_REASONS

    def test_wrong_reasons_needs_the_ontology(self, hazard_argument):
        # Without a topic judgment there is nothing to check — the
        # 'mechanical' check is cached human knowledge.
        case = AssuranceCase("wr", hazard_argument)
        case.add_evidence(
            EvidenceItem("unit_tests", EvidenceKind.TESTING,
                         "unit test results"),
            cited_by="Sn1",
        )
        assert wrong_reasons_check(case, {}) == []
