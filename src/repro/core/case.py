"""The assurance case: argument + evidence + lifecycle record.

Def Stan 00-56 requires contractors to 'develop, maintain, and refine the
Safety Case through the life of the contract', to incorporate 'relevant
data from the use of the system', and to record 'key decisions made by the
safety committee' (§II.A).  :class:`AssuranceCase` therefore binds together:

* the structured argument (:class:`~repro.core.argument.Argument`),
* the evidence registry (:class:`~repro.core.evidence.EvidenceRegistry`),
* solution-to-evidence citations,
* an append-only lifecycle log of decisions, changes, and in-service
  findings, and
* the operational definition of 'adequately safe' that §II.A lists first
  among the things an argument must communicate.

``integrity_report`` performs the bookkeeping checks that are mechanical
by nature: every solution cites registered evidence, every registered item
is cited somewhere, the argument is well-formed.  Whether the cited
evidence actually *supports* the claims is an informal judgment — see
:mod:`repro.experiments.sufficiency_study`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .argument import Argument
from .evidence import EvidenceItem, EvidenceRegistry
from .nodes import NodeType
from .wellformed import GSN_STANDARD_RULES, RuleSet, Violation

__all__ = [
    "LifecycleEventKind",
    "LifecycleEvent",
    "SafetyCriterion",
    "AssuranceCase",
    "IntegrityReport",
]


class LifecycleEventKind(enum.Enum):
    """The recordable happenings over a case's life."""

    CREATED = "created"
    DECISION = "decision"
    SYSTEM_CHANGE = "system_change"
    OPERATIONAL_CHANGE = "operational_change"
    FIELD_FINDING = "field_finding"
    EVIDENCE_ADDED = "evidence_added"
    EVIDENCE_WITHDRAWN = "evidence_withdrawn"
    REVIEW = "review"


@dataclass(frozen=True)
class LifecycleEvent:
    """One entry in the case's append-only history."""

    sequence: int
    kind: LifecycleEventKind
    description: str
    affected_nodes: tuple[str, ...] = ()

    def __str__(self) -> str:
        nodes = f" [{', '.join(self.affected_nodes)}]" \
            if self.affected_nodes else ""
        return f"#{self.sequence} {self.kind.value}: {self.description}{nodes}"


@dataclass(frozen=True)
class SafetyCriterion:
    """The system-specific operational definition of 'adequately safe'.

    §II.A: a safety argument must communicate 'the system-specific
    operational definition of adequately safe (or unacceptable risk)'.
    """

    statement: str
    risk_metric: str
    threshold: float

    def __str__(self) -> str:
        return f"{self.statement} ({self.risk_metric} <= {self.threshold})"


@dataclass(frozen=True)
class IntegrityReport:
    """Mechanical bookkeeping findings for a case."""

    violations: tuple[Violation, ...]
    uncited_evidence: tuple[str, ...]
    dangling_citations: tuple[str, ...]
    unsupported_solutions: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not (
            self.violations
            or self.uncited_evidence
            or self.dangling_citations
            or self.unsupported_solutions
        )

    def summary(self) -> str:
        if self.ok:
            return "case integrity: OK"
        parts = []
        if self.violations:
            parts.append(f"{len(self.violations)} syntax violation(s)")
        if self.uncited_evidence:
            parts.append(f"{len(self.uncited_evidence)} uncited item(s)")
        if self.dangling_citations:
            parts.append(
                f"{len(self.dangling_citations)} dangling citation(s)"
            )
        if self.unsupported_solutions:
            parts.append(
                f"{len(self.unsupported_solutions)} solution(s) "
                "without citations"
            )
        return "case integrity: " + "; ".join(parts)


class AssuranceCase:
    """A complete assurance case for one system."""

    def __init__(
        self,
        name: str,
        argument: Argument,
        criterion: SafetyCriterion | None = None,
    ) -> None:
        self.name = name
        self.argument = argument
        self.criterion = criterion
        self.evidence = EvidenceRegistry()
        self._citations: dict[str, list[str]] = {}  # solution id -> evidence
        self._log: list[LifecycleEvent] = []
        self._record(LifecycleEventKind.CREATED, f"case {name!r} created")

    # -- evidence ---------------------------------------------------------

    def add_evidence(
        self, item: EvidenceItem, cited_by: str | None = None
    ) -> EvidenceItem:
        """Register evidence, optionally citing it from a solution node."""
        self.evidence.add(item)
        self._record(
            LifecycleEventKind.EVIDENCE_ADDED,
            f"evidence {item.identifier!r} added",
        )
        if cited_by is not None:
            self.cite(cited_by, item.identifier)
        return item

    def cite(self, solution_id: str, evidence_id: str) -> None:
        """Record that a solution node cites an evidence item."""
        node = self.argument.node(solution_id)
        if node.node_type is not NodeType.SOLUTION:
            raise ValueError(
                f"{solution_id!r} is a {node.node_type.value}, not a solution"
            )
        self.evidence.get(evidence_id)
        self._citations.setdefault(solution_id, []).append(evidence_id)

    def citations(self, solution_id: str) -> list[EvidenceItem]:
        """Evidence items cited by one solution."""
        return [
            self.evidence.get(e)
            for e in self._citations.get(solution_id, [])
        ]

    def citing_solutions(self, evidence_id: str) -> list[str]:
        """Solution identifiers citing one evidence item."""
        return [
            solution
            for solution, cited in self._citations.items()
            if evidence_id in cited
        ]

    def withdraw_evidence(self, evidence_id: str, reason: str) -> list[str]:
        """Mark evidence withdrawn; returns the affected solution nodes.

        The item stays registered (the history must remain auditable) but
        all citations of it are removed, leaving the affected solutions
        unsupported — the situation 'relevant data from the use of the
        system' refuting the safety rationale produces.
        """
        self.evidence.get(evidence_id)
        affected = self.citing_solutions(evidence_id)
        for solution in affected:
            self._citations[solution] = [
                e for e in self._citations[solution] if e != evidence_id
            ]
        self._record(
            LifecycleEventKind.EVIDENCE_WITHDRAWN,
            f"evidence {evidence_id!r} withdrawn: {reason}",
            tuple(affected),
        )
        return affected

    # -- lifecycle ---------------------------------------------------------

    def record_decision(
        self, description: str, affected: Iterable[str] = ()
    ) -> LifecycleEvent:
        """Record a safety-committee decision (§II.A requirement)."""
        return self._record(
            LifecycleEventKind.DECISION, description, tuple(affected)
        )

    def record_change(
        self,
        description: str,
        operational: bool = False,
        affected: Iterable[str] = (),
    ) -> LifecycleEvent:
        """Record a system or operational change."""
        kind = (
            LifecycleEventKind.OPERATIONAL_CHANGE
            if operational
            else LifecycleEventKind.SYSTEM_CHANGE
        )
        return self._record(kind, description, tuple(affected))

    def record_field_finding(
        self, description: str, affected: Iterable[str] = ()
    ) -> LifecycleEvent:
        """Record in-service data relevant to the safety rationale."""
        return self._record(
            LifecycleEventKind.FIELD_FINDING, description, tuple(affected)
        )

    def _record(
        self,
        kind: LifecycleEventKind,
        description: str,
        affected: tuple[str, ...] = (),
    ) -> LifecycleEvent:
        event = LifecycleEvent(len(self._log) + 1, kind, description, affected)
        self._log.append(event)
        return event

    @property
    def history(self) -> list[LifecycleEvent]:
        """The append-only lifecycle log."""
        return list(self._log)

    def decisions(self) -> list[LifecycleEvent]:
        """Only the recorded key decisions."""
        return [
            e for e in self._log if e.kind is LifecycleEventKind.DECISION
        ]

    # -- persistence --------------------------------------------------------

    def save(
        self,
        directory,
        *,
        shard_count: int | None = None,
        compression: str | None = None,
        search_index: bool = False,
    ):
        """Write this case to a sharded store directory.

        The argument shards exactly as :meth:`Argument.save
        <repro.core.argument.Argument.save>` lays it out; evidence and
        citations stream to their own checksummed shards
        (``compression="gzip"`` gzips them all, transparent on read).
        The lifecycle log is not persisted — history belongs to the live
        case, and a loaded case starts a fresh log (matching
        :func:`repro.notation.json_io.case_from_json`).
        """
        from ..store import save_case  # local: store imports this module

        return save_case(
            self, directory, shard_count=shard_count,
            compression=compression, search_index=search_index,
        )

    @classmethod
    def load(cls, directory) -> "AssuranceCase":
        """Fully hydrate a case saved with :meth:`save`.

        Called on a subclass, returns an instance of that subclass.
        """
        from ..store import load_case  # local: store imports this module

        return load_case(directory, into=cls)

    # -- integrity ---------------------------------------------------------

    def integrity_report(
        self, rules: RuleSet = GSN_STANDARD_RULES
    ) -> IntegrityReport:
        """Run every mechanical bookkeeping check."""
        # Imported here: repro.checking imports this package.
        from ..checking import check

        violations = check(self.argument, rules).violations
        cited = {
            evidence_id
            for citations in self._citations.values()
            for evidence_id in citations
        }
        uncited = tuple(sorted(
            item.identifier
            for item in self.evidence
            if item.identifier not in cited
        ))
        dangling = tuple(sorted(
            solution
            for solution in self._citations
            if solution not in self.argument
        ))
        unsupported = tuple(sorted(
            node.identifier
            for node in self.argument.nodes_of_type(NodeType.SOLUTION)
            if not self._citations.get(node.identifier)
        ))
        return IntegrityReport(violations, uncited, dangling, unsupported)
