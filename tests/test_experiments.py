"""Tests for the repro.experiments package (§VI studies)."""

from __future__ import annotations

import random

import pytest

from repro.experiments.audience_study import (
    AudienceStudyConfig,
    run_audience_study,
    specimen_argument,
)
from repro.experiments.effort_study import (
    EffortStudyConfig,
    run_effort_study,
)
from repro.experiments.instantiation_study import (
    InstantiationStudyConfig,
    run_instantiation_study,
)
from repro.experiments.review_study import (
    ReviewStudyConfig,
    build_materials,
    run_review_study,
)
from repro.experiments.stats import (
    bootstrap_ci,
    cliffs_delta,
    cohens_d,
    cohens_kappa,
    mann_whitney,
    mean_pairwise_agreement,
    summarise,
)
from repro.experiments.subjects import (
    Background,
    comprehension_probability,
    informal_detection_probability,
    manual_formal_detection_probability,
    reading_minutes,
    sample_pool,
    sample_subject,
)
from repro.experiments.sufficiency_study import (
    SufficiencyStudyConfig,
    build_case,
    run_sufficiency_study,
)
from repro.fallacies.taxonomy import FormalFallacy, InformalFallacy

_SMALL_A = ReviewStudyConfig(subjects=8, arguments=2, formal_steps=4)
_SMALL_B = EffortStudyConfig(subjects_per_group=5, tasks=3)
_SMALL_C = AudienceStudyConfig(subjects_per_background=5)
_SMALL_D = InstantiationStudyConfig(subjects_per_group=6, tasks=3)
_SMALL_E = SufficiencyStudyConfig(assessors_per_group=5)


class TestStats:
    def test_summary_fields(self):
        summary = summarise([1.0, 2.0, 3.0, 4.0], seed=1)
        assert summary.n == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_summary_rejects_empty(self):
        with pytest.raises(ValueError):
            summarise([])

    def test_bootstrap_deterministic(self):
        values = [1.0, 5.0, 2.0, 8.0, 3.0]
        assert bootstrap_ci(values, seed=3) == bootstrap_ci(values, seed=3)

    def test_mann_whitney_separated_samples(self):
        left = [1.0, 2.0, 3.0, 2.5, 1.5]
        right = [10.0, 12.0, 11.0, 13.0, 10.5]
        _, p_value = mann_whitney(left, right)
        assert p_value < 0.05

    def test_cohens_d_sign(self):
        assert cohens_d([5.0, 6.0, 7.0], [1.0, 2.0, 3.0]) > 0
        assert cohens_d([1.0, 2.0, 3.0], [5.0, 6.0, 7.0]) < 0

    def test_cliffs_delta_bounds(self):
        delta = cliffs_delta([5, 6], [1, 2])
        assert delta == 1.0
        assert cliffs_delta([1, 2], [5, 6]) == -1.0
        assert -1 <= cliffs_delta([1, 5], [2, 4]) <= 1

    def test_cohens_kappa_perfect_agreement(self):
        assert cohens_kappa(["a", "b", "a"], ["a", "b", "a"]) == \
            pytest.approx(1.0)

    def test_cohens_kappa_chance_level(self):
        # Independent coin-flip raters: kappa near zero.
        rng = random.Random(5)
        a = [rng.random() < 0.5 for _ in range(2000)]
        b = [rng.random() < 0.5 for _ in range(2000)]
        assert abs(cohens_kappa(a, b)) < 0.1

    def test_pairwise_agreement(self):
        judgments = [[1, 2, 3], [1, 2, 3], [1, 2, 4]]
        agreement = mean_pairwise_agreement(judgments)
        assert agreement == pytest.approx((1 + 2 / 3 + 2 / 3) / 3)

    def test_pairwise_agreement_needs_two(self):
        with pytest.raises(ValueError):
            mean_pairwise_agreement([[1, 2]])


class TestSubjects:
    def test_profiles_bounded(self, rng):
        for background in Background:
            subject = sample_subject(rng, background)
            assert 0 <= subject.logic_skill <= 1
            assert 0 <= subject.domain_knowledge <= 1
            assert subject.reading_wpm >= 50

    def test_pool_cycles_backgrounds(self, rng):
        pool = sample_pool(rng, 12)
        backgrounds = {s.background for s in pool}
        assert backgrounds == set(Background)

    def test_logic_skill_drives_formal_detection(self, rng):
        strong = sample_subject(rng, Background.SOFTWARE_ENGINEER)
        weak = sample_subject(rng, Background.MANAGER)
        fallacy = FormalFallacy.DENYING_THE_ANTECEDENT
        # Compare population means via many draws.
        strong_p = sum(
            manual_formal_detection_probability(
                sample_subject(rng, Background.SOFTWARE_ENGINEER),
                fallacy, 12,
            )
            for _ in range(50)
        )
        weak_p = sum(
            manual_formal_detection_probability(
                sample_subject(rng, Background.MANAGER), fallacy, 12
            )
            for _ in range(50)
        )
        assert strong_p > weak_p

    def test_size_decays_detection(self, rng):
        subject = sample_subject(rng, Background.SAFETY_ENGINEER)
        small = manual_formal_detection_probability(
            subject, FormalFallacy.BEGGING_THE_QUESTION, 5
        )
        large = manual_formal_detection_probability(
            subject, FormalFallacy.BEGGING_THE_QUESTION, 100
        )
        assert large < small

    def test_informal_detection_rides_on_domain_knowledge(self, rng):
        expert = sample_subject(rng, Background.SAFETY_ENGINEER)
        novice = sample_subject(rng, Background.MANAGER)
        kind = InformalFallacy.OMISSION_OF_KEY_EVIDENCE
        expert_total = sum(
            informal_detection_probability(
                sample_subject(rng, Background.SAFETY_ENGINEER), kind, 12
            )
            for _ in range(50)
        )
        novice_total = sum(
            informal_detection_probability(
                sample_subject(rng, Background.MANAGER), kind, 12
            )
            for _ in range(50)
        )
        assert expert_total > novice_total

    def test_formal_reading_slower_for_everyone(self, rng):
        for background in Background:
            subject = sample_subject(rng, background)
            assert reading_minutes(subject, 500, formal=True) > \
                reading_minutes(subject, 500, formal=False)

    def test_comprehension_gated_by_logic_for_formal(self, rng):
        engineer = sample_subject(rng, Background.SOFTWARE_ENGINEER)
        manager = sample_subject(rng, Background.MANAGER)
        assert comprehension_probability(engineer, formal=True) > \
            comprehension_probability(manager, formal=True)


class TestExperimentA:
    def test_deterministic(self):
        first = run_review_study(_SMALL_A)
        second = run_review_study(_SMALL_A)
        assert first.rows() == second.rows()

    def test_tool_finds_all_and_only_injected(self):
        result = run_review_study(_SMALL_A)
        assert result.tool_detected_all_injected
        assert result.tool_false_positives == 0

    def test_tool_eliminates_formal_misses(self):
        # More trials than the smoke config so manual misses are near-
        # certain to appear (per-instance detection tops out below 0.9).
        result = run_review_study(
            ReviewStudyConfig(subjects=16, arguments=4, formal_steps=6)
        )
        assert result.manual_plus_tool.formal_miss_rate == 0.0
        assert result.manual_both.formal_miss_rate > 0.0

    def test_tool_cannot_touch_informal_misses(self):
        # §IV.C: the tool is blind to informal fallacies; both groups
        # miss them at comparable (non-zero) rates.
        result = run_review_study(_SMALL_A)
        assert result.manual_both.informal_miss_rate > 0.0
        assert result.manual_plus_tool.informal_miss_rate > 0.0

    def test_tool_saves_time(self):
        result = run_review_study(_SMALL_A)
        assert result.manual_plus_tool.time.mean < \
            result.manual_both.time.mean

    def test_materials_ground_truth(self):
        rng = random.Random(5)
        packs = build_materials(_SMALL_A, rng)
        assert len(packs) == _SMALL_A.arguments
        for pack in packs:
            assert pack.injected_informal == \
                _SMALL_A.informal_per_argument
            assert len(pack.formal_steps) == _SMALL_A.formal_steps

    def test_render(self):
        text = run_review_study(_SMALL_A).render()
        assert "manual_both" in text and "manual_plus_tool" in text


class TestExperimentB:
    def test_deterministic(self):
        assert run_effort_study(_SMALL_B).rows() == \
            run_effort_study(_SMALL_B).rows()

    def test_expertise_gap(self):
        result = run_effort_study(_SMALL_B)
        assert result.expertise_gap_final_task > 1.5

    def test_learning_effect_present(self):
        result = run_effort_study(_SMALL_B)
        assert result.learning_ratio_trained > 1.0
        assert result.learning_ratio_untrained > 1.0

    def test_formalisation_costs_nontrivial_fraction(self):
        result = run_effort_study(_SMALL_B)
        overheads = [c.overhead_ratio for c in result.cells]
        assert max(overheads) > 0.5  # a real cost, as §VI.B supposes

    def test_cells_cover_groups_and_tasks(self):
        result = run_effort_study(_SMALL_B)
        groups = {c.group for c in result.cells}
        tasks = {c.task_index for c in result.cells}
        assert groups == {"trained", "untrained"}
        assert tasks == set(range(_SMALL_B.tasks))


class TestExperimentC:
    def test_deterministic(self):
        assert run_audience_study(_SMALL_C).rows() == \
            run_audience_study(_SMALL_C).rows()

    def test_specimen_is_well_formed(self):
        import repro

        assert repro.check(specimen_argument()).well_formed

    def test_everyone_slows_down(self):
        result = run_audience_study(_SMALL_C)
        for background in Background:
            assert result.slowdown(background) > 1.0

    def test_non_logicians_hit_hardest(self):
        result = run_audience_study(_SMALL_C)
        assert result.slowdown(Background.MANAGER) > \
            result.slowdown(Background.SOFTWARE_ENGINEER)
        assert result.comprehension_drop(Background.OPERATOR) > \
            result.comprehension_drop(Background.SOFTWARE_ENGINEER)

    def test_questionnaire_records_training(self):
        result = run_audience_study(_SMALL_C)
        assert any(r.formal_methods_training for r in result.records)
        assert any(
            not r.formal_methods_training for r in result.records
        )

    def test_cells_complete(self):
        result = run_audience_study(_SMALL_C)
        assert len(result.cells) == len(Background) * 2


class TestExperimentD:
    def test_deterministic(self):
        assert run_instantiation_study(_SMALL_D).rows() == \
            run_instantiation_study(_SMALL_D).rows()

    def test_tool_blocks_every_typing_error(self):
        result = run_instantiation_study(_SMALL_D)
        assert result.tool_rejected_every_typing_error
        assert result.tool.defects.omissions == 0
        assert result.tool.defects.type_errors == 0
        assert result.tool.defects.incompatible == 0

    def test_informal_condition_leaves_defects(self):
        result = run_instantiation_study(
            InstantiationStudyConfig(subjects_per_group=12, tasks=6)
        )
        assert result.informal.defects.total > 0

    def test_semantic_misuse_survives_both(self):
        result = run_instantiation_study(
            InstantiationStudyConfig(subjects_per_group=14, tasks=8)
        )
        assert result.tool.defects.semantic > 0
        assert result.informal.defects.semantic > 0

    def test_time_measured_for_both(self):
        result = run_instantiation_study(_SMALL_D)
        assert result.informal.minutes.mean > 0
        assert result.tool.minutes.mean > 0


class TestExperimentE:
    def test_deterministic(self):
        assert run_sufficiency_study(_SMALL_E).rows() == \
            run_sufficiency_study(_SMALL_E).rows()

    def test_ground_truth_varies(self):
        result = run_sufficiency_study(_SMALL_E)
        assert len(set(result.ground_truth)) > 1

    def test_graph_tracing_more_accurate_and_agreeing(self):
        result = run_sufficiency_study(_SMALL_E)
        assert result.graph.exact_accuracy > result.proof.exact_accuracy
        assert result.graph.agreement > result.proof.agreement

    def test_case_builder_integrity(self):
        case = build_case(seed=3)
        assert case.integrity_report().ok

    def test_render(self):
        text = run_sufficiency_study(_SMALL_E).render()
        assert "graph_tracing" in text and "proof_probing" in text
