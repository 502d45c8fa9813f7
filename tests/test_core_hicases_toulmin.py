"""Tests for repro.core.hicases and repro.core.toulmin."""

from __future__ import annotations

import pytest

import repro
from repro.core.hicases import FoldError, HiView, auto_fold_to_depth
from repro.core.toulmin import (
    Rebuttal,
    Statement,
    ToulminArgument,
    haley_inner_argument,
    render_toulmin,
    toulmin_to_gsn,
)


class TestHiView:
    def test_initial_view_shows_everything(self, hazard_argument):
        view = HiView(hazard_argument)
        assert view.visible_size() == len(hazard_argument)

    def test_fold_hides_subtree(self, hazard_argument):
        view = HiView(hazard_argument)
        view.fold("S1")
        hidden = view.hidden_nodes()
        assert "G2" in hidden and "Sn1" in hidden
        assert "G1" not in hidden and "S1" not in hidden

    def test_folded_node_marked_undeveloped_in_view(self, hazard_argument):
        view = HiView(hazard_argument)
        view.fold("S1")
        visible = view.visible_argument()
        assert visible.node("S1").undeveloped

    def test_unfold_restores(self, hazard_argument):
        view = HiView(hazard_argument)
        view.fold("S1")
        view.unfold("S1")
        assert view.visible_size() == len(hazard_argument)

    def test_toggle(self, hazard_argument):
        view = HiView(hazard_argument)
        assert view.toggle("S1") is True
        assert view.toggle("S1") is False

    def test_cannot_fold_solution(self, hazard_argument):
        view = HiView(hazard_argument)
        with pytest.raises(FoldError):
            view.fold("Sn1")

    def test_cannot_fold_leaf_goal(self):
        from repro.core.builder import ArgumentBuilder

        builder = ArgumentBuilder()
        builder.goal("The system is safe", undeveloped=True)
        view = HiView(builder.build())
        assert not view.can_fold("G1")

    def test_context_on_folded_node_stays(self, hazard_argument):
        view = HiView(hazard_argument)
        view.fold("G2")
        visible = view.visible_argument()
        # The fold hides Sn1 but G2 itself and sibling context remain.
        assert "G2" in visible
        assert "Sn1" not in visible

    def test_view_argument_still_well_formed(self, hazard_argument):
        view = HiView(hazard_argument)
        view.fold("S1")
        assert repro.check(view.visible_argument()).well_formed

    def test_auto_fold_depth(self, hazard_argument):
        view = auto_fold_to_depth(hazard_argument, 2)
        # Depth 2 folds the strategy, hiding all hazard goals.
        assert view.visible_size() < len(hazard_argument)
        assert "G2" in view.hidden_nodes()

    def test_auto_fold_invalid_depth(self, hazard_argument):
        with pytest.raises(FoldError):
            auto_fold_to_depth(hazard_argument, 0)


class TestToulmin:
    def test_haley_inner_argument_structure(self):
        # §III.K: grounds G2, nested warrant (G3 warranted by G4, thus
        # C1), claim P2, rebuttal R1.
        argument = haley_inner_argument()
        assert argument.claim.label == "P2"
        assert argument.grounds[0].label == "G2"
        nested = argument.warrants[0]
        assert isinstance(nested, ToulminArgument)
        assert nested.claim.label == "C1"
        assert argument.rebuttals[0].statement.label == "R1"
        assert argument.depth() == 2

    def test_render_matches_haley_layout(self):
        text = render_toulmin(haley_inner_argument())
        assert 'given grounds G2: "Valid credentials are given only to '\
            'HR members"' in text
        assert "warranted by (" in text
        assert 'thus claim C1: "Credential administration is correct"'\
            in text
        assert 'rebutted by R1: "HR member is dishonest"' in text

    def test_all_statements(self):
        statements = haley_inner_argument().all_statements()
        labels = [s.label for s in statements]
        assert set(labels) == {"G2", "G3", "G4", "C1", "R1", "P2"}

    def test_qualifier_rendering(self):
        argument = ToulminArgument(
            claim=Statement("C", "the device is safe"),
            grounds=(Statement("G", "tests passed"),),
            qualifier="presumably",
        )
        assert "thus, presumably, claim" in render_toulmin(argument)

    def test_to_gsn_conversion(self):
        gsn = toulmin_to_gsn(haley_inner_argument())
        # Claim and nested claim become goals; rebuttal becomes context.
        texts = [n.text for n in gsn.nodes]
        assert any("HR credentials provided" in t for t in texts)
        assert any("Rebuttal condition" in t for t in texts)
        assert gsn.roots()

    def test_to_gsn_depth_tracks_nesting(self):
        gsn = toulmin_to_gsn(haley_inner_argument())
        assert gsn.depth() >= 4
