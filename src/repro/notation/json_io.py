"""JSON de/serialisation for arguments and assurance cases.

A stable interchange form for tooling: nodes, links, metadata, evidence,
citations, and the lifecycle log all round-trip.  The schema is plain and
versioned so downstream tools can consume it without this library.

The per-record payload helpers (:func:`node_payload`,
:func:`node_from_payload`, :func:`evidence_payload`,
:func:`evidence_from_payload`) are public: the persistent sharded store
(:mod:`repro.store`) streams exactly these payloads, so the document form
and the sharded form stay one schema, and one decoder
(:func:`repro.store.format.node_from_record`) rebuilds nodes from both.

Malformed documents are rejected up front with a clear :class:`ValueError`
— duplicate node identifiers and links whose endpoints name no node in
the document fail *before* any graph is built, instead of surfacing as
confusing downstream errors mid-construction.
"""

from __future__ import annotations

import json
from typing import Any

from ..core.argument import Argument, LinkKind
from ..core.case import AssuranceCase, SafetyCriterion
from ..core.evidence import EvidenceItem, EvidenceKind
from ..core.nodes import Node

__all__ = [
    "argument_to_json",
    "argument_from_json",
    "case_to_json",
    "case_from_json",
    "node_payload",
    "node_from_payload",
    "evidence_payload",
    "evidence_from_payload",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1


def node_payload(node: Node) -> dict[str, Any]:
    """The JSON-ready payload of one node (shared with :mod:`repro.store`)."""
    payload: dict[str, Any] = {
        "id": node.identifier,
        "type": node.node_type.value,
        "text": node.text,
    }
    if node.undeveloped:
        payload["undeveloped"] = True
    if node.module:
        payload["module"] = node.module
    if node.metadata:
        payload["metadata"] = {
            name: list(params) for name, params in node.metadata
        }
    return payload


def node_from_payload(payload: dict[str, Any]) -> Node:
    """Rebuild a node from its payload (extra keys are ignored).

    The store's record decoder, :func:`repro.store.format.
    node_from_record`: documents and shards share one decode step.
    """
    # Deferred: repro.store imports this module.
    from ..store.format import node_from_record

    return node_from_record(payload)


def argument_to_json(argument: Argument, indent: int | None = 2) -> str:
    """Serialise an argument to a JSON document."""
    payload = {
        "schema": SCHEMA_VERSION,
        "name": argument.name,
        "nodes": [node_payload(node) for node in argument.nodes],
        "links": [
            {
                "source": link.source,
                "target": link.target,
                "kind": link.kind.value,
            }
            for link in argument.links
        ],
    }
    return json.dumps(payload, indent=indent)


def _argument_from_payload(payload: dict[str, Any]) -> Argument:
    """Validate and build the argument described by a parsed document.

    Checks the schema version (also for argument documents nested in a
    case).  Duplicate node identifiers and dangling link endpoints are
    rejected here, with messages naming the offending record — the
    structural errors a hand-edited or tool-merged document most often
    contains.
    """
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {payload.get('schema')!r}"
        )
    nodes: list[Node] = []
    seen: set[str] = set()
    for node_doc in payload["nodes"]:
        node = node_from_payload(node_doc)
        if node.identifier in seen:
            raise ValueError(
                "invalid argument document: duplicate node id "
                f"{node.identifier!r}"
            )
        seen.add(node.identifier)
        nodes.append(node)
    links: list[tuple[str, str, LinkKind]] = []
    for link_doc in payload["links"]:
        source, target = link_doc["source"], link_doc["target"]
        for role, endpoint in (("source", source), ("target", target)):
            if endpoint not in seen:
                raise ValueError(
                    f"invalid argument document: link {source!r} -> "
                    f"{target!r} has a dangling {role} ({endpoint!r} "
                    "names no node in the document)"
                )
        links.append((source, target, LinkKind(link_doc["kind"])))
    argument = Argument(name=payload["name"])
    with argument.batch():
        argument.add_nodes(nodes)
        argument.add_links(links)
    return argument


def argument_from_json(document: str) -> Argument:
    """Parse an argument from its JSON form."""
    return _argument_from_payload(json.loads(document))


def evidence_payload(item: EvidenceItem) -> dict[str, Any]:
    """The JSON-ready payload of one evidence item."""
    return {
        "id": item.identifier,
        "kind": item.kind.value,
        "description": item.description,
        "coverage": item.coverage,
        "age_days": item.age_days,
        "trusted_tool": item.trusted_tool,
        "topic": item.topic,
    }


def evidence_from_payload(payload: dict[str, Any]) -> EvidenceItem:
    """Rebuild an evidence item from its payload."""
    return EvidenceItem(
        identifier=payload["id"],
        kind=EvidenceKind(payload["kind"]),
        description=payload["description"],
        coverage=payload.get("coverage", 1.0),
        age_days=payload.get("age_days", 0),
        trusted_tool=payload.get("trusted_tool", True),
        topic=payload.get("topic", "functional"),
    )


def case_to_json(case: AssuranceCase, indent: int | None = 2) -> str:
    """Serialise a whole assurance case (argument + evidence + citations)."""
    payload = {
        "schema": SCHEMA_VERSION,
        "name": case.name,
        "criterion": (
            {
                "statement": case.criterion.statement,
                "risk_metric": case.criterion.risk_metric,
                "threshold": case.criterion.threshold,
            }
            if case.criterion
            else None
        ),
        "argument": json.loads(argument_to_json(case.argument, indent=None)),
        "evidence": [evidence_payload(item) for item in case.evidence],
        "citations": {
            node.identifier: [
                item.identifier for item in case.citations(node.identifier)
            ]
            for node in case.argument.nodes
            if case.citations(node.identifier)
        },
    }
    return json.dumps(payload, indent=indent)


def case_from_json(document: str) -> AssuranceCase:
    """Parse an assurance case from its JSON form.

    The lifecycle log is intentionally not round-tripped: history belongs
    to the live case that produced it; a loaded case starts a fresh log
    with its own CREATED event.  The argument document is validated as in
    :func:`argument_from_json`; citations naming unknown solutions or
    evidence are likewise rejected with a clear :class:`ValueError`.
    """
    payload = json.loads(document)
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {payload.get('schema')!r}"
        )
    argument = _argument_from_payload(payload["argument"])
    criterion = None
    if payload.get("criterion"):
        criterion = SafetyCriterion(
            statement=payload["criterion"]["statement"],
            risk_metric=payload["criterion"]["risk_metric"],
            threshold=payload["criterion"]["threshold"],
        )
    case = AssuranceCase(payload["name"], argument, criterion)
    for item_payload in payload.get("evidence", []):
        case.evidence.add(evidence_from_payload(item_payload))
    for solution, cited in payload.get("citations", {}).items():
        if solution not in argument:
            raise ValueError(
                "invalid case document: citation references unknown "
                f"solution node {solution!r}"
            )
        for evidence_id in cited:
            if evidence_id not in case.evidence:
                raise ValueError(
                    f"invalid case document: citation on {solution!r} "
                    f"references unknown evidence {evidence_id!r}"
                )
            case.cite(solution, evidence_id)
    return case
