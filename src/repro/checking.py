"""The unified checking facade: one entry point over every engine.

``repro.check(subject, rules=..., mode=...)``
    *subject* is a live :class:`~repro.core.argument.Argument` or a
    stored handle (anything satisfying
    :func:`~repro.core.analysis.is_stored_argument`).  ``mode`` is any
    of :data:`~repro.core.analysis.CHECK_MODES`: ``"auto"`` (default),
    ``"serial"``, ``"streaming"``, ``"parallel"``, or
    ``"incremental"`` — the last keeps a delta-log checker alive per
    (subject, rules) behind the scenes, so repeated incremental checks
    of the same subject re-run only what changed (including re-proving
    only the formal obligations an edit touched; see
    :mod:`repro.claims.obligations`).

The result is a typed :class:`CheckReport`: the violations (in the
engine's canonical order), the **mode actually used**
(:func:`~repro.core.analysis.resolve_mode` maps ``auto`` and degraded
``parallel`` onto a concrete engine), and the obligation outcomes —
discharged and failed — when the subject or a
:class:`~repro.claims.compiler.CompiledClaims` carries bindings.  The
report is list-like over its violations.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence

from .claims.compiler import CompiledClaims
from .claims.obligations import (
    CACHE,
    ObligationSyntaxError,
    obligation_specs,
    parse_obligation,
)
from .core.analysis import (
    CHECK_MODES,
    IncrementalChecker,
    ScopedRule,
    Violation,
    resolve_mode,
    run_rules,
)
from .core.argument import Argument
from .core.wellformed import GSN_STANDARD_RULES, RuleSet

__all__ = [
    "CHECK_MODES",
    "CheckReport",
    "ObligationOutcome",
    "check",
]


@dataclass(frozen=True)
class ObligationOutcome:
    """One formal obligation's fate during a check."""

    evidence: str
    spec: str
    discharged: bool
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    """A typed checking result: violations + obligations + mode used.

    List-like over its violations (``len``, iteration, indexing,
    truthiness); ``well_formed`` and the obligation partitions carry
    the richer story.
    """

    subject: str
    mode: str
    violations: "tuple[Violation, ...]"
    obligations: "tuple[ObligationOutcome, ...]" = ()

    @property
    def well_formed(self) -> bool:
        """True when the check found no violations at all."""
        return not self.violations

    @property
    def discharged(self) -> "tuple[ObligationOutcome, ...]":
        return tuple(o for o in self.obligations if o.discharged)

    @property
    def failed(self) -> "tuple[ObligationOutcome, ...]":
        return tuple(o for o in self.obligations if not o.discharged)

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self) -> "Iterator[Violation]":
        return iter(self.violations)

    def __getitem__(self, index: int) -> Violation:
        return self.violations[index]

    def __contains__(self, item: object) -> bool:
        return item in self.violations


# -- incremental checker registry --------------------------------------------
#
# ``mode="incremental"`` needs a long-lived IncrementalChecker per
# (subject, rules) pair: the checker owns the delta-log cursor, so a
# fresh one per call would be a full recompute every time.  Arguments
# are deliberately unhashable (mutable identity), so the registry keys
# by id().  Each checker holds its subject strongly — that is what
# keeps the id valid while the entry exists — so the registry is a
# bounded LRU rather than weakref-evicted: beyond
# :data:`_MAX_INCREMENTAL_SUBJECTS` distinct subjects, the least
# recently checked one is dropped (its next incremental check simply
# pays one fresh full check again).

_MAX_INCREMENTAL_SUBJECTS = 8

_CHECKERS: "OrderedDict[int, list[tuple[tuple[ScopedRule, ...], IncrementalChecker]]]" = OrderedDict()


def _incremental_checker(
    subject: Any, scoped: "tuple[ScopedRule, ...]"
) -> IncrementalChecker:
    key = id(subject)
    entries = _CHECKERS.get(key)
    if entries is None:
        entries = []
        _CHECKERS[key] = entries
    _CHECKERS.move_to_end(key)
    while len(_CHECKERS) > _MAX_INCREMENTAL_SUBJECTS:
        _CHECKERS.popitem(last=False)
    for cached_rules, checker in entries:
        if cached_rules == scoped:
            return checker
    checker = IncrementalChecker(subject, scoped)
    entries.append((scoped, checker))
    return checker


# -- obligation outcomes ------------------------------------------------------


def _iter_bindings(
    subject: Any, claims: Optional[CompiledClaims]
) -> "Iterable[tuple[str, str]]":
    """(evidence id, spec) pairs to report outcomes for."""
    if claims is not None:
        for identifier, specs in claims.bindings.items():
            for spec in specs:
                yield identifier, spec
        return
    if isinstance(subject, Argument):
        for node in subject.nodes:
            for spec in obligation_specs(node):
                yield node.identifier, spec
    # Stored subjects without a compiled module are not scanned here:
    # enumerating their bindings would stream every shard a second
    # time.  Their failed obligations still appear as violations.


def _outcomes(
    subject: Any, claims: Optional[CompiledClaims]
) -> "tuple[ObligationOutcome, ...]":
    out: "list[ObligationOutcome]" = []
    for identifier, spec in _iter_bindings(subject, claims):
        try:
            obligation = parse_obligation(spec)
        except ObligationSyntaxError as exc:
            out.append(ObligationOutcome(
                identifier, spec, False, f"malformed obligation: {exc}",
            ))
            continue
        detail = CACHE.result(identifier, obligation)
        out.append(ObligationOutcome(
            identifier, obligation.spec, detail is None, detail or "",
        ))
    return tuple(out)


# -- the facade ---------------------------------------------------------------


def check(
    subject: Any,
    rules: "RuleSet | CompiledClaims | Sequence[ScopedRule]" = GSN_STANDARD_RULES,
    *,
    mode: str = "auto",
    workers: Optional[int] = None,
    claims: Optional[CompiledClaims] = None,
) -> CheckReport:
    """Check *subject* against *rules* and report the result.

    *subject* — a live :class:`~repro.core.argument.Argument` or a
    stored handle.  *rules* — a :class:`~repro.core.wellformed
    .RuleSet`, a :class:`~repro.claims.compiler.CompiledClaims` rule
    set, or a plain sequence of scoped rules.  *claims* — optionally
    the compiled claim module whose evidence bindings should be
    reported as typed obligation outcomes (live arguments report
    their metadata-bound obligations automatically).

    ``mode="incremental"`` reuses a cached delta-log checker per
    (subject, rules): the first call pays a full check, later calls
    re-run only the rules the intervening mutations touched.
    """
    used = resolve_mode(subject, mode, workers)
    if isinstance(rules, CompiledClaims):
        if claims is None:
            claims = rules
        rules = rules.rule_set
    scoped = tuple(rules.rules) if isinstance(rules, RuleSet) \
        else tuple(rules)
    if used == "incremental":
        violations = tuple(_incremental_checker(subject, scoped).check())
    else:
        violations = tuple(
            run_rules(subject, scoped, mode=used, workers=workers)
        )
    name = getattr(subject, "name", None)
    return CheckReport(
        subject=str(name) if name is not None else type(subject).__name__,
        mode=used,
        violations=violations,
        obligations=_outcomes(subject, claims),
    )
