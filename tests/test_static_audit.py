"""The rule-scope auditor, proven against a gallery of unsound rules.

Two halves of the acceptance criterion:

* every **shipped** rule set audits clean — the engine's own rules keep
  the locality contract that makes the four execution modes agree;
* every **deliberately unsound** gallery rule below is flagged with the
  correct finding kind *and* a source location pointing into this file.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis_static import (
    KIND_HYDRATION,
    KIND_MUTATION,
    KIND_NONDETERMINISM,
    KIND_UNDECLARED,
    SEVERITY_ERROR,
    audit_rule,
    audit_streaming_scan,
    errors_only,
)
from repro.analysis_static.gate import (
    SHIPPED_FINDINGS,
    SHIPPED_RULE_SETS,
    STREAMING_SCANS,
    AuditGateError,
    assert_shipped_clean,
)
from repro.core.analysis import (
    Violation,
    ensure_argument,
    global_rule,
    per_link,
    per_node,
)
from repro.core.wellformed import (
    DENNEY_PAI_RULES,
    GSN_STANDARD_RULES,
    RuleSet,
    _rule_single_root,
)
from repro.fallacies.informal import PER_NODE_HEURISTICS

pytestmark = pytest.mark.static


# -- the gallery: one deliberately unsound rule per finding kind ------------
#
# Module-level functions so ``inspect.getsource`` sees real file lines;
# the location assertions below anchor on each function's first line.


def _gallery_undeclared(node, ctx) -> "list[Violation]":
    # A NODE-scope rule may ask only ctx.cites_support; node_type is a
    # LINK-scope service.
    if ctx.node_type(node.identifier) is None:
        return [Violation("g-undeclared", node.identifier, "bad")]
    return []


def _gallery_hydrating(node, ctx) -> "list[Violation]":
    argument = ensure_argument(node)  # the hydration escape hatch
    return [] if argument else []


def _gallery_mutating(node, ctx) -> "list[Violation]":
    ctx.scratch = {}
    node.metadata.update({"audited": True})
    return []


def _gallery_random(node, ctx) -> "list[Violation]":
    if random.random() < 0.5:
        return [Violation("g-random", node.identifier, "flaky")]
    return []


def _gallery_set_iteration(ctx) -> "list[Violation]":
    out: "list[Violation]" = []
    pending = {root for root in ctx.roots()}
    for identifier in pending:  # hash order feeds violation order
        out.append(Violation("g-set-iter", identifier, "unordered"))
    return out


def _nondet_helper(context) -> float:
    import time

    return time.time()


def _gallery_helper_nondet(ctx) -> "list[Violation]":
    _nondet_helper(ctx)  # nondeterminism one call level down
    return []


def _gallery_link_overreach(link, ctx) -> "list[Violation]":
    # LINK scope declares name/node_type; cites_support is NODE-scope.
    if ctx.cites_support(link.source):
        return [Violation("g-link-overreach", link.source, "bad")]
    return []


GALLERY = [
    # (rule, expected kind, the function carrying the defect)
    (
        per_node("g-undeclared", "reads node_type", _gallery_undeclared),
        KIND_UNDECLARED,
        _gallery_undeclared,
    ),
    (
        per_node("g-hydrating", "hydrates", _gallery_hydrating),
        KIND_HYDRATION,
        _gallery_hydrating,
    ),
    (
        per_node("g-mutating", "mutates", _gallery_mutating),
        KIND_MUTATION,
        _gallery_mutating,
    ),
    (
        per_node("g-random", "rolls dice", _gallery_random),
        KIND_NONDETERMINISM,
        _gallery_random,
    ),
    (
        global_rule("g-set-iter", "set order", _gallery_set_iteration),
        KIND_NONDETERMINISM,
        _gallery_set_iteration,
    ),
    (
        global_rule("g-helper", "nondet helper", _gallery_helper_nondet),
        KIND_NONDETERMINISM,
        _nondet_helper,
    ),
    (
        per_link("g-link-overreach", "overreaches", _gallery_link_overreach),
        KIND_UNDECLARED,
        _gallery_link_overreach,
    ),
]


@pytest.mark.parametrize(
    "rule, kind, defective_fn",
    GALLERY,
    ids=[rule.name for rule, _, _ in GALLERY],
)
def test_gallery_rule_flagged_with_kind_and_location(
    rule, kind, defective_fn
) -> None:
    findings = audit_rule(rule)
    matching = [f for f in findings if f.kind == kind]
    assert matching, (
        f"{rule.name} should earn a {kind} finding, got "
        f"{[str(f) for f in findings]}"
    )
    finding = matching[0]
    assert finding.rule.startswith(rule.name)
    _assert_error_inside(finding, defective_fn)


def _assert_error_inside(finding, defective_fn) -> None:
    """The finding is an error located in *defective_fn*'s lines."""
    assert finding.severity == SEVERITY_ERROR
    assert finding.path == __file__
    first = defective_fn.__code__.co_firstlineno
    body_lines = [
        line for _, _, line in defective_fn.__code__.co_lines()
        if line is not None
    ]
    last = max(body_lines + [first])
    assert first <= finding.line <= last, (
        f"finding at line {finding.line}, function spans "
        f"{first}..{last}"
    )
    assert finding.location == f"{__file__}:{finding.line}"


def test_mutation_gallery_flags_both_ctx_and_subject() -> None:
    rule = per_node("g-mutating", "mutates", _gallery_mutating)
    kinds = [
        f.message for f in audit_rule(rule) if f.kind == KIND_MUTATION
    ]
    assert any("ctx" in message for message in kinds)
    assert any("subject" in message for message in kinds)


def test_closure_based_rule_is_audited_through_the_cell() -> None:
    threshold = 0.5

    def flaky(node, ctx) -> "list[Violation]":
        if random.random() < threshold:
            return [Violation("g-closure", node.identifier, "flaky")]
        return []

    findings = audit_rule(per_node("g-closure", "closure", flaky))
    assert any(f.kind == KIND_NONDETERMINISM for f in findings)


def _gallery_global_argument(ctx) -> "list[Violation]":
    argument = ctx.argument()  # not on any scope's surface
    return [] if argument else []


def test_global_rule_calling_ctx_argument_is_undeclared_error() -> None:
    rule = global_rule("g-argument", "asks for the argument",
                       _gallery_global_argument)
    findings = audit_rule(rule)
    undeclared = [f for f in findings if f.kind == KIND_UNDECLARED]
    assert undeclared, [str(f) for f in findings]
    assert errors_only(undeclared) == undeclared
    assert "ctx.argument" in undeclared[0].message


# -- delta hooks: audited under the GLOBAL contract as ``rule#delta`` -------


def _gallery_delta_sidecar(ctx, records, previous) -> "list[Violation] | None":
    # ``types`` is a store sidecar internal, on no scope's surface: a
    # live context has no such attribute.
    if any(op == "add_node" for op, _ in records) and ctx.types:
        return None
    return list(previous)


def _gallery_delta_hydrating(
    ctx, records, previous
) -> "list[Violation] | None":
    argument = ensure_argument(ctx)  # the hydration escape hatch
    return None if argument else list(previous)


DELTA_GALLERY = [
    (_gallery_delta_sidecar, KIND_UNDECLARED),
    (_gallery_delta_hydrating, KIND_HYDRATION),
]


@pytest.mark.parametrize(
    "hook, kind", DELTA_GALLERY,
    ids=[hook.__name__ for hook, _ in DELTA_GALLERY],
)
def test_delta_hook_defect_reported_under_rule_delta(hook, kind) -> None:
    # The full rule is sound; only the hook carries the defect.
    rule = global_rule(
        "g-delta", "sound rule, unsound hook", _rule_single_root,
        delta_fn=hook,
    )
    findings = audit_rule(rule)
    assert {f.rule for f in findings} == {"g-delta#delta"}, (
        [str(f) for f in findings]
    )
    matching = [f for f in findings if f.kind == kind]
    assert matching, [str(f) for f in findings]
    _assert_error_inside(matching[0], hook)


@pytest.mark.parametrize("name", ["single-root", "acyclic"])
def test_shipped_delta_hooks_audit_clean(name) -> None:
    (rule,) = [r for r in GSN_STANDARD_RULES.rules if r.name == name]
    assert rule.delta_fn is not None  # so the audit covers a hook
    assert audit_rule(rule) == []


def test_streaming_scan_flagging_ensure_argument() -> None:
    from repro.fallacies.informal import hasty_generalisation_heuristic

    findings = audit_streaming_scan(hasty_generalisation_heuristic)
    assert any(f.kind == KIND_HYDRATION for f in findings), (
        "the documented hydrating heuristic must be flagged when held "
        "to the streaming contract"
    )


# -- the shipped sets must be clean ------------------------------------------


@pytest.mark.parametrize(
    "rule_set", SHIPPED_RULE_SETS, ids=[rs.name for rs in SHIPPED_RULE_SETS]
)
def test_shipped_rule_set_audits_clean(rule_set: RuleSet) -> None:
    assert rule_set.audit() == []


@pytest.mark.parametrize(
    "scan", STREAMING_SCANS, ids=[s.__name__ for s in STREAMING_SCANS]
)
def test_shipped_streaming_scan_audits_clean(scan) -> None:
    assert audit_streaming_scan(scan) == []


def test_gate_import_found_nothing_and_passes() -> None:
    assert SHIPPED_FINDINGS == []
    assert_shipped_clean()  # must not raise


def test_gate_raises_listing_every_error() -> None:
    rule = per_node("g-hydrating", "hydrates", _gallery_hydrating)
    with pytest.raises(AuditGateError, match="g-hydrating") as excinfo:
        assert_shipped_clean(audit_rule(rule))
    assert "hydration-forcing" in str(excinfo.value)


def test_gate_tracks_all_shipped_rule_sets() -> None:
    assert GSN_STANDARD_RULES in SHIPPED_RULE_SETS
    assert DENNEY_PAI_RULES in SHIPPED_RULE_SETS
    assert STREAMING_SCANS == PER_NODE_HEURISTICS
