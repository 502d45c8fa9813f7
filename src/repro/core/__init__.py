"""The assurance-case model: arguments, evidence, cases, patterns, views.

This package implements the argumentation substrate every surveyed
proposal builds on — GSN structures per the Community Standard [30], the
Toulmin model [33], evidence registries per Def Stan 00-56 [1] — plus the
formal-syntax technologies the survey characterises: well-formedness rule
sets (§III.I), typed parameterised patterns (§III.L), metadata annotation
and querying (§III.H), and hierarchical views (§III.I).
"""

from .analysis import (
    IncrementalChecker,
    RuleContext,
    Scope,
    ScopedRule,
    global_rule,
    per_link,
    per_node,
    run_rules,
)
from .argument import Argument, ArgumentError, Link, LinkKind, MutationDelta
from .builder import ArgumentBuilder, BuildError
from .case import (
    AssuranceCase,
    LifecycleEvent,
    LifecycleEventKind,
    SafetyCriterion,
)
from .confidence import (
    claim_confidence,
    confidence_network,
    confidence_report,
)
from .diff import ArgumentDiff, diff_arguments, render_diff
from .evidence import EvidenceItem, EvidenceKind, EvidenceRegistry
from .modules import (
    ModuleRegistry,
    check_away_references,
    composition_order,
    system_argument,
)
from .nodes import Node, NodeType, looks_propositional
from .patterns import (
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
from .wellformed import (
    DENNEY_PAI_RULES,
    GSN_STANDARD_RULES,
    RuleSet,
    Violation,
)

__all__ = [
    "IncrementalChecker",
    "RuleContext",
    "Scope",
    "ScopedRule",
    "global_rule",
    "per_link",
    "per_node",
    "run_rules",
    "Argument",
    "ArgumentError",
    "Link",
    "LinkKind",
    "MutationDelta",
    "ArgumentBuilder",
    "BuildError",
    "AssuranceCase",
    "LifecycleEvent",
    "LifecycleEventKind",
    "SafetyCriterion",
    "claim_confidence",
    "confidence_network",
    "confidence_report",
    "ArgumentDiff",
    "diff_arguments",
    "render_diff",
    "ModuleRegistry",
    "check_away_references",
    "composition_order",
    "system_argument",
    "EvidenceItem",
    "EvidenceKind",
    "EvidenceRegistry",
    "Node",
    "NodeType",
    "looks_propositional",
    "BaseSort",
    "Binding",
    "InstantiationError",
    "ListSort",
    "Parameter",
    "Pattern",
    "PatternElement",
    "PatternLink",
    "RangeSort",
    "SetSort",
    "hazard_avoidance_pattern",
    "DENNEY_PAI_RULES",
    "GSN_STANDARD_RULES",
    "RuleSet",
    "Violation",
]
