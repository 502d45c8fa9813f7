"""Tests for repro.core.nodes and repro.core.argument."""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.argument import Argument, ArgumentError, LinkKind
from repro.core.nodes import (
    _COPULA_OR_VERB,
    Node,
    NodeType,
    looks_propositional,
)


class TestNode:
    def test_requires_identifier(self):
        with pytest.raises(ValueError):
            Node("", NodeType.GOAL, "some text")

    def test_requires_text(self):
        with pytest.raises(ValueError):
            Node("G1", NodeType.GOAL, "   ")

    def test_away_goal_requires_module(self):
        with pytest.raises(ValueError):
            Node("AG1", NodeType.AWAY_GOAL, "Power is safe")
        node = Node(
            "AG1", NodeType.AWAY_GOAL, "Power is safe", module="power"
        )
        assert node.module == "power"

    def test_only_goals_and_strategies_undeveloped(self):
        Node("G1", NodeType.GOAL, "Claim text is here", undeveloped=True)
        Node("S1", NodeType.STRATEGY, "Argument text", undeveloped=True)
        with pytest.raises(ValueError):
            Node("Sn1", NodeType.SOLUTION, "Evidence", undeveloped=True)

    def test_letter_codes_match_denney_pai(self):
        # §III.I: {s, g, e, a, j, c}.
        assert NodeType.STRATEGY.letter == "s"
        assert NodeType.GOAL.letter == "g"
        assert NodeType.SOLUTION.letter == "e"
        assert NodeType.ASSUMPTION.letter == "a"
        assert NodeType.JUSTIFICATION.letter == "j"
        assert NodeType.CONTEXT.letter == "c"

    def test_metadata_merge(self):
        node = Node("G1", NodeType.GOAL, "The system is safe")
        annotated = node.with_metadata({"hazard": ("H1", "remote")})
        assert annotated.metadata_dict() == {"hazard": ("H1", "remote")}
        again = annotated.with_metadata({"reviewed": (True,)})
        assert set(again.metadata_dict()) == {"hazard", "reviewed"}


class TestLooksPropositional:
    def test_accepts_claims(self):
        assert looks_propositional("The system is acceptably safe")
        assert looks_propositional(
            "The thrust reversers are inhibited when the aircraft is "
            "not on the ground"
        )
        assert looks_propositional("Hazard H1 is acceptably managed")

    def test_rejects_the_denney_goal_style(self):
        # §III.E: 'Formal proof that Quat4::quat(NED, Body) holds for
        # Fc.cpp ... is not a proposition as GSN requires'.
        assert not looks_propositional(
            "Formal proof that Quat4::quat(NED, Body) holds for Fc.cpp"
        )

    def test_rejects_noun_phrases(self):
        assert not looks_propositional("Testing of module Y")
        assert not looks_propositional("Argument over all hazards")
        assert not looks_propositional("Evidence from the field")

    def test_rejects_questions_and_empty(self):
        assert not looks_propositional("Is the system safe?")
        assert not looks_propositional("")
        assert not looks_propositional("   ")

    def test_cannot_judge_meaning(self):
        # A shallow check accepts well-formed nonsense — the informal
        # gap the paper's §IV.C describes.
        assert looks_propositional(
            "The colourless green ideas are acceptably safe"
        )


class TestArgumentConstruction:
    def test_duplicate_identifier_rejected(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        with pytest.raises(ArgumentError):
            argument.add_node(Node("G1", NodeType.GOAL, "Another claim is made"))

    def test_link_requires_known_nodes(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        with pytest.raises(ArgumentError):
            argument.supported_by("G1", "missing")
        with pytest.raises(ArgumentError):
            argument.supported_by("missing", "G1")

    def test_self_link_rejected(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        with pytest.raises(ArgumentError):
            argument.supported_by("G1", "G1")

    def test_duplicate_link_rejected(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        argument.add_node(Node("G2", NodeType.GOAL, "A part is safe"))
        argument.supported_by("G1", "G2")
        with pytest.raises(ArgumentError):
            argument.supported_by("G1", "G2")

    def test_remove_node_removes_links(self, simple_argument):
        simple_argument.remove_node("S1")
        assert "S1" not in simple_argument
        assert all(
            link.source != "S1" and link.target != "S1"
            for link in simple_argument.links
        )

    def test_replace_node(self, simple_argument):
        node = simple_argument.node("G1")
        simple_argument.replace_node(node.with_text(
            "The system is tolerably safe"
        ))
        assert "tolerably" in simple_argument.node("G1").text


class TestArgumentStructure:
    def test_roots(self, hazard_argument):
        roots = hazard_argument.roots()
        assert [r.identifier for r in roots] == ["G1"]

    def test_supporters_and_context(self, hazard_argument):
        assert [
            n.identifier for n in hazard_argument.supporters("G1")
        ] == ["S1"]
        assert [
            n.identifier for n in hazard_argument.context_of("G1")
        ] == ["C1"]

    def test_walk_visits_reachable(self, hazard_argument):
        visited = [n.identifier for n in hazard_argument.walk("G1")]
        assert visited[0] == "G1"
        assert "Sn3" in visited

    def test_subtree(self, hazard_argument):
        fragment = hazard_argument.subtree("G2")
        assert "G2" in fragment
        assert "Sn1" in fragment
        assert "G1" not in fragment

    def test_paths_to_root(self, hazard_argument):
        paths = hazard_argument.paths_to_root("Sn1")
        assert paths == [["Sn1", "G2", "S1", "G1"]]

    def test_depth(self, hazard_argument):
        assert hazard_argument.depth() == 4

    def test_find_cycle_none(self, hazard_argument):
        assert hazard_argument.find_cycle() is None

    def test_find_cycle_detects(self):
        argument = Argument()
        for name in ("G1", "G2", "G3"):
            argument.add_node(Node(name, NodeType.GOAL, f"Claim {name} is true"))
        argument.supported_by("G1", "G2")
        argument.supported_by("G2", "G3")
        argument.supported_by("G3", "G1")
        cycle = argument.find_cycle()
        assert cycle is not None
        assert len(set(cycle)) >= 3

    def test_statistics(self, hazard_argument):
        stats = hazard_argument.statistics()
        assert stats["goal_count"] == 5
        assert stats["solution_count"] == 4
        assert stats["node_count"] == len(hazard_argument)
        assert stats["depth"] == 4

    def test_copy_is_equal_but_distinct(self, hazard_argument):
        duplicate = hazard_argument.copy()
        assert duplicate == hazard_argument
        duplicate.remove_node("Sn1")
        assert duplicate != hazard_argument

    def test_leaves(self, simple_argument):
        # G2 is supported by a solution, so the only claim-like leaf-
        # check looks at nodes without SupportedBy children.
        leaf_ids = {n.identifier for n in simple_argument.leaves()}
        assert leaf_ids == set()  # every goal/strategy has support

    def test_unsupported_goal_is_leaf(self):
        argument = Argument()
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        assert [n.identifier for n in argument.leaves()] == ["G1"]


# The verb pattern as one flat alternation, as it was before its
# alternatives were grouped by first letter: the differential oracle.
_FLAT_COPULA_OR_VERB = re.compile(
    r"\b(is|are|was|were|has|have|holds?|meets?|satisf\w+|compl\w+|"
    r"operates?|ensures?|prevents?|mitigat\w+|maintain\w+|achiev\w+|"
    r"will|shall|does|do|can(?:not)?|inhibit\w*|remain\w*|exceed\w*|"
    r"tolerat\w+|detect\w+|manag\w+|support\w+|provid\w+|block\w*|"
    r"annunciat\w+|recover\w*|respond\w*|protect\w*|isolat\w+|"
    r"disabl\w+|enabl\w+|warn\w*|notif\w+|cover\w*|guarantee\w*|"
    r"avoid\w*|reduc\w+|control\w*|handl\w+|record\w*|establish\w+|"
    r"terminat\w+|trip\w*|trigger\w*|keep\w*|stop\w*|limit\w*|"
    r"bound\w*|lead\w*|deliver\w*|perform\w*|execut\w+|conform\w*|"
    r"fail\w*|switch\w+|raise\w*|alert\w*|arriv\w+|occur\w*|"
    r"includ\w+|contain\w*|appl\w+|receiv\w+|transmit\w*|grant\w*|"
    r"clos\w+|open\w*|shut\w*|engag\w+|disengag\w+|activat\w+|"
    r"deactivat\w+|start\w*|respond\w*|return\w*|enter\w*|reach\w*|"
    r"operat\w+|function\w*|behav\w+|act\w*|work\w*|run\w*)\b",
    re.IGNORECASE,
)

# Every stem of the pattern, bare; suffixes and case are drawn apart.
_STEMS = (
    "is are was were has have hold meet satisf compl operate ensure "
    "prevent mitigat maintain achiev will shall does do can cannot "
    "inhibit remain exceed tolerat detect manag support provid block "
    "annunciat recover respond protect isolat disabl enabl warn notif "
    "cover guarantee avoid reduc control handl record establish terminat "
    "trip trigger keep stop limit bound lead deliver perform execut "
    "conform fail switch raise alert arriv occur includ contain appl "
    "receiv transmit grant clos open shut engag disengag activat "
    "deactivat start return enter reach operat function behav act work "
    "run"
).split()
# Letters that IGNORECASE folds onto an ASCII letter of the pattern:
# long s, the Kelvin sign and dotless i (dotted capital I is drawn as
# a suffix and in the free text).
_FOLDS = {"s": "\u017f", "k": "\u212a", "i": "\u0131"}


@st.composite
def _word(draw) -> str:
    stem = "".join(
        draw(st.sampled_from([ch, ch.upper(), _FOLDS.get(ch, ch)]))
        for ch in draw(st.sampled_from(_STEMS))
    )
    prefix = draw(st.sampled_from(["", "", "un", "x", "_", "9"]))
    suffix = draw(st.sampled_from(
        ["", "", "s", "es", "ed", "ing", "d", "_", "1", "\u0130", "\u0131"]
    ))
    return prefix + stem + suffix


_FREE_TEXT = st.text(
    alphabet="abcdeiklnorstwyz\u017f\u212a\u0131\u0130", max_size=8
)
_SEPARATORS = st.sampled_from([" ", "  ", "-", ".", ",", "'", "(", ""])
_TEXTS = st.lists(
    st.tuples(st.one_of(_word(), _FREE_TEXT), _SEPARATORS), max_size=6
).map(lambda parts: "".join(word + sep for word, sep in parts))


@settings(max_examples=500, deadline=None)
@given(_TEXTS)
@example("The system \u017fhall stop")
@example("\u212aeeps the brake closed")
@example("it \u0131s \u0130S")
@example("operates operate operating operat")
@example("can cannot cant")
def test_grouped_verb_pattern_matches_the_flat_one(text) -> None:
    assert bool(_COPULA_OR_VERB.search(text)) == \
        bool(_FLAT_COPULA_OR_VERB.search(text)), text


def test_grouped_verb_pattern_matches_the_flat_one_on_every_stem() -> None:
    # Each stem bare and suffixed, in each case variant, alone and
    # glued to a prefix: the cases a random draw reaches too rarely.
    for stem in _STEMS:
        for variant in (
            stem, stem.upper(), "".join(_FOLDS.get(ch, ch) for ch in stem),
        ):
            for suffix in ("", "s", "e", "es", "ing", "_", "\u0130"):
                for prefix in ("", "x", "The plant "):
                    text = prefix + variant + suffix
                    assert bool(_COPULA_OR_VERB.search(text)) == \
                        bool(_FLAT_COPULA_OR_VERB.search(text)), text

