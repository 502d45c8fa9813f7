"""The audit gate: every shipped rule passes the auditor, at import.

Importing this module runs the rule-scope auditor over everything the
repo ships — ``GSN_STANDARD_RULES``, ``DENNEY_PAI_RULES``, the claim
language's shipped rule sets (the obligation-discharge rule and the
compiled claims kernel, whose rules are ``functools.partial``
instantiations of the :mod:`repro.claims.templates` bodies — the
auditor unwraps and audits the templates themselves), and the
stream-safe fallacy per-node heuristics — and records the findings in
:data:`SHIPPED_FINDINGS`.  :func:`assert_shipped_clean` turns any
finding into an :class:`AuditGateError` listing every violation with
its source location; the CI ``static-analysis`` job and the
``static``-marked tests both call it, so a rule that breaks the
authoring contract cannot merge.  The gate fails on **errors** only:
an ``unreadable-source`` warning means the auditor could not see a
callable's source, not that the rule breaks the contract.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Tuple

from ..claims.exemplar import GSN_OBLIGATION_RULES, KERNEL_CLAIMS_RULES
from ..core.wellformed import DENNEY_PAI_RULES, GSN_STANDARD_RULES
from ..fallacies.informal import PER_NODE_HEURISTICS
from .auditor import (
    AuditFinding,
    audit_rule_set,
    audit_streaming_scan,
    errors_only,
)

__all__ = [
    "AuditGateError",
    "SHIPPED_RULE_SETS",
    "STREAMING_SCANS",
    "SHIPPED_FINDINGS",
    "assert_shipped_clean",
]


class AuditGateError(AssertionError):
    """A shipped rule violates the statically enforced contract."""


#: Every rule set the engine ships; new sets must be registered here to
#: come under the gate.
SHIPPED_RULE_SETS: "Tuple[Any, ...]" = (
    GSN_STANDARD_RULES,
    DENNEY_PAI_RULES,
    GSN_OBLIGATION_RULES,
    KERNEL_CLAIMS_RULES,
)

#: Stream-safe per-node scans shipped outside the rule engine proper.
STREAMING_SCANS: "Tuple[Callable[..., Any], ...]" = PER_NODE_HEURISTICS


def _audit_everything() -> "list[AuditFinding]":
    findings: "list[AuditFinding]" = []
    for rule_set in SHIPPED_RULE_SETS:
        findings.extend(audit_rule_set(rule_set))
    for scan in STREAMING_SCANS:
        findings.extend(audit_streaming_scan(scan))
    return findings


#: Computed once, at import of the gate.
SHIPPED_FINDINGS: "list[AuditFinding]" = _audit_everything()


def assert_shipped_clean(
    findings: "Iterable[AuditFinding] | None" = None,
) -> None:
    """Raise :class:`AuditGateError` if any shipped rule errs.

    Warnings (unreadable-source notices) do not fail the gate; errors
    always do.
    """
    pool = SHIPPED_FINDINGS if findings is None else list(findings)
    errors = errors_only(pool)
    if errors:
        listing = "\n".join(f"  {finding}" for finding in errors)
        raise AuditGateError(
            f"{len(errors)} shipped rule(s) violate the rule-authoring "
            f"contract:\n{listing}"
        )
