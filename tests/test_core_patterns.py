"""Tests for repro.core.patterns (Matsuno & Taguchi mechanism)."""

from __future__ import annotations

import pytest

import repro
from repro.core.argument import LinkKind
from repro.core.nodes import NodeType
from repro.core.patterns import (
    BaseSort,
    Binding,
    InstantiationError,
    ListSort,
    Parameter,
    Pattern,
    PatternElement,
    PatternLink,
    RangeSort,
    SetSort,
    hazard_avoidance_pattern,
)


class TestSorts:
    def test_base_sorts(self):
        assert BaseSort.INT.accepts(3)
        assert not BaseSort.INT.accepts(3.5)
        assert not BaseSort.INT.accepts(True)  # bools are not Ints
        assert BaseSort.STRING.accepts("x")
        assert BaseSort.FLOAT.accepts(2)
        assert BaseSort.BOOL.accepts(False)

    def test_set_sort(self):
        sort = SetSort("element", frozenset({"aileron", "elevator"}))
        assert sort.accepts("aileron")
        assert not sort.accepts("rudder")
        assert not sort.accepts(3)

    def test_range_sort_percent(self):
        # Matsuno's CPU-utilisation 0-100 example (§III.L).
        percent = RangeSort("Percent", 0, 100)
        assert percent.accepts(0)
        assert percent.accepts(100)
        assert percent.accepts(42.5)
        assert not percent.accepts(250)
        assert not percent.accepts(-1)
        assert not percent.accepts(True)

    def test_integral_range(self):
        sort = RangeSort("Count", 0, 10, integral=True)
        assert sort.accepts(5)
        assert not sort.accepts(5.5)

    def test_list_sort(self):
        sort = ListSort(BaseSort.STRING)
        assert sort.accepts(["a", "b"])
        assert not sort.accepts(["a", 3])
        assert not sort.accepts("a")


class TestBindingAnnotation:
    def test_matsuno_render(self):
        # '[2/x, /y, "hello"/z] represents that x and z are instantiated
        # with 2 and "hello", respectively, whereas y is not' (§III.L).
        parameters = [
            Parameter("x", BaseSort.INT),
            Parameter("y", BaseSort.INT),
            Parameter("z", BaseSort.STRING),
        ]
        binding = Binding.of(x=2, z="hello")
        assert binding.render(parameters) == '[2/x, /y, "hello"/z]'

    def test_bound_names(self):
        assert Binding.of(a=1, b=2).bound_names() == {"a", "b"}


@pytest.fixture
def pattern() -> Pattern:
    return hazard_avoidance_pattern()


class TestValidation:
    def test_builtin_pattern_is_structurally_sound(self, pattern):
        assert pattern.validate() == []

    def test_undeclared_placeholder_detected(self):
        broken = Pattern(
            name="broken",
            parameters=[Parameter("x", BaseSort.STRING)],
            elements=[PatternElement(
                "G1", NodeType.GOAL, "{x} and {ghost} are safe"
            )],
        )
        problems = broken.validate()
        assert any("ghost" in p for p in problems)

    def test_multiplicity_requires_list_sort(self):
        broken = Pattern(
            name="broken",
            parameters=[Parameter("items", BaseSort.STRING)],
            elements=[
                PatternElement("G1", NodeType.GOAL, "The top claim holds"),
                PatternElement("G2", NodeType.GOAL, "{item} is handled"),
            ],
            links=[PatternLink(
                "G1", "G2", LinkKind.SUPPORTED_BY,
                expand_over="items", loop_var="item",
            )],
        )
        problems = broken.validate()
        assert any("List" in p for p in problems)


class TestTypeChecking:
    def test_well_typed_binding(self, pattern):
        binding = Binding.of(
            system="ACME brake", hazards=["overrun"], residual_risk=10
        )
        assert pattern.type_check(binding) == []

    def test_wrong_type_rejected(self, pattern):
        binding = Binding.of(
            system=42, hazards=["overrun"], residual_risk=10
        )
        problems = pattern.type_check(binding)
        assert any("system" in p for p in problems)

    def test_range_violation_rejected(self, pattern):
        binding = Binding.of(
            system="ACME", hazards=["overrun"], residual_risk=250
        )
        problems = pattern.type_check(binding)
        assert any("residual_risk" in p for p in problems)

    def test_undeclared_parameter_rejected(self, pattern):
        binding = Binding.of(
            system="ACME", hazards=["overrun"], residual_risk=10,
            bogus=1,
        )
        problems = pattern.type_check(binding)
        assert any("bogus" in p for p in problems)

    def test_unbound_listed(self, pattern):
        binding = Binding.of(system="ACME")
        assert set(pattern.unbound(binding)) == {
            "hazards", "residual_risk"
        }


class TestInstantiation:
    def test_full_instantiation_well_formed(self, pattern):
        argument = pattern.instantiate(Binding.of(
            system="ACME brake",
            hazards=["overrun", "fire", "derail"],
            residual_risk=15,
        ))
        assert repro.check(argument).well_formed
        # One goal + solution per hazard, plus top, strategy, context, J.
        assert len(argument) == 4 + 2 * 3

    def test_multiplicity_suffixes(self, pattern):
        argument = pattern.instantiate(Binding.of(
            system="ACME", hazards=["overrun", "fire"], residual_risk=5
        ))
        assert "G_hazard_1" in argument
        assert "G_hazard_2" in argument
        assert "Sn_hazard_2" in argument

    def test_loop_variable_substitution(self, pattern):
        argument = pattern.instantiate(Binding.of(
            system="ACME", hazards=["overrun"], residual_risk=5
        ))
        assert "overrun" in argument.node("G_hazard_1").text

    def test_partial_binding_raises_with_annotation(self, pattern):
        with pytest.raises(InstantiationError) as info:
            pattern.instantiate(Binding.of(system="ACME"))
        assert "/hazards" in str(info.value)

    def test_type_error_raises(self, pattern):
        with pytest.raises(InstantiationError):
            pattern.instantiate(Binding.of(
                system="ACME", hazards=["overrun"], residual_risk=250
            ))

    def test_empty_hazard_list_rejected(self, pattern):
        with pytest.raises(InstantiationError, match="non-empty"):
            pattern.instantiate(Binding.of(
                system="ACME", hazards=[], residual_risk=5
            ))

    def test_semantic_misuse_passes_type_checking(self, pattern):
        # Matsuno's 'Railway hazards' for 'System X' (§III.L): the type
        # checker accepts it because it is a String — the limit of what
        # formalisation can catch.
        argument = pattern.instantiate(Binding.of(
            system="Railway hazards",
            hazards=["overrun"],
            residual_risk=5,
        ))
        assert "Railway hazards is acceptably safe" in \
            argument.node("G_top").text
