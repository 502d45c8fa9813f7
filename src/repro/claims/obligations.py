"""Formal evidence obligations: claims bound to machine-checked proofs.

This is the half of the claim language that answers the paper's central
question (do formal assurance arguments pay their way?) with a
measurable workload: an evidence node stops being a prose citation and
starts carrying **obligations** — small formal problems that must be
discharged by :mod:`repro.logic` every time the argument is checked.

An obligation is a one-line spec, ``<kind>: <body>``:

``sat: <propositional formula>``
    the formula must be satisfiable (a consistency witness exists);
``valid: <propositional formula>``
    the formula must be a tautology;
``entails: p1 ; p2 |- conclusion``
    the ``;``-separated propositional premises must entail the
    conclusion;
``fol: sort S = a, b ; pred P(S) ; axiom forall x:S. P(x) |- P(a)``
    a multi-sorted finite-domain FOL entailment — ``sort`` declares a
    sort with its (non-empty) constant domain, ``pred`` a typed
    predicate, ``axiom`` a premise; the formula after ``|-`` must
    follow (decided by grounding + SAT, :func:`repro.logic.fol
    .fol_entails`);
``ltl: G (brake -> F stop) @ brake ; brake stop ; stop``
    the LTL formula before ``@`` must hold of the finite trace after
    it (``;``-separated states, whitespace-separated atoms, ``.`` for
    an empty state).

The propositional kinds, and ``fol`` once grounded, are decided by
:func:`repro.logic.entailment.is_satisfiable` (``valid`` and
``entails`` by refuting the negation): a formula over at most
:data:`~repro.logic.entailment.TABLE_MAX_ATOMS` atoms by one
bit-parallel truth-table evaluation, a larger one by DPLL on
definitional clauses that grow linearly with the formula.

Obligations ride on :attr:`repro.core.nodes.Node.metadata` under
:data:`OBLIGATION_KEY`, so they persist through every store format,
journal deltas, and the parallel executor's flat columns for free.
:data:`OBLIGATION_RULE` is an ordinary audited per-node scoped rule —
the engine discharges obligations identically in all four execution
modes, and the incremental checker re-proves only the nodes an edit
touched.

Results are cached in-process per ``(evidence id, obligation
fingerprint)`` — fingerprints are content hashes, so *editing* an
obligation re-proves it while re-checking an untouched one is a cache
hit.  The cache keeps two counters (proofs run, cache hits) that the
regression tests and :mod:`benchmarks.bench_claims` use to assert the
selective-re-proof contract.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core.analysis import RuleContext, ScopedRule, Violation, per_node
from ..core.nodes import Node
from ..logic import fol
from ..logic.entailment import entails, is_satisfiable, is_valid
from ..logic.ltl import LtlFormula, Trace, holds, parse_ltl
from ..logic.propositional import Formula, _Climber, parse as parse_prop
from ..logic.terms import Atom, Const, Var

__all__ = [
    "OBLIGATION_KEY",
    "OBLIGATION_RULE",
    "OBLIGATION_RULE_NAME",
    "OBLIGATION_KINDS",
    "Obligation",
    "ObligationSyntaxError",
    "parse_obligation",
    "validate_obligation",
    "discharge",
    "obligation_counters",
    "reset_obligation_cache",
    "obligation_specs",
]

#: Metadata attribute under which a node carries its obligation specs.
OBLIGATION_KEY = "obligation"

#: Name of the shipped per-node discharge rule (stable in violations).
OBLIGATION_RULE_NAME = "evidence-obligation"


class ObligationSyntaxError(ValueError):
    """An obligation spec that cannot be parsed."""


@dataclass(frozen=True)
class Obligation:
    """One parsed obligation: a kind plus its whitespace-normal body."""

    kind: str
    body: str

    @property
    def spec(self) -> str:
        """The canonical one-line rendering, ``kind: body``."""
        return f"{self.kind}: {self.body}"

    @property
    def fingerprint(self) -> str:
        """Content hash of the canonical spec.

        sha256, not :func:`hash` — stable across processes, so the
        parallel executor's workers and a restarted session agree on
        cache keys.
        """
        digest = hashlib.sha256(self.spec.encode("utf-8")).hexdigest()
        return digest[:16]


def parse_obligation(spec: str) -> Obligation:
    """Parse ``<kind>: <body>`` into an :class:`Obligation`.

    Only the kind is validated here; body syntax is checked by
    :func:`validate_obligation` (compile time) or surfaces as a
    deterministic discharge failure (check time).
    """
    head, sep, tail = spec.partition(":")
    kind = head.strip().lower()
    body = " ".join(tail.split())
    if not sep or kind not in OBLIGATION_KINDS:
        kinds = ", ".join(OBLIGATION_KINDS)
        raise ObligationSyntaxError(
            f"expected '<kind>: <body>' with kind in {{{kinds}}}, "
            f"got {spec!r}"
        )
    if not body:
        raise ObligationSyntaxError(f"obligation {spec!r} has no body")
    return Obligation(kind, body)


# -- the FOL surface syntax ---------------------------------------------------
#
# repro.logic.fol exposes constructors only; the claim language needs a
# concrete syntax.  Grammar (';'-separated declarations, then '|-'):
#
#   spec    := decl (';' decl)* '|-' formula
#   decl    := 'sort' NAME '=' NAME (',' NAME)*
#            | 'pred' NAME ['(' NAME (',' NAME)* ')']
#            | 'axiom' formula
#   formula := unary (BINOP formula)*
#   unary   := ('~'|'!')* (quant | '(' formula ')' | atom)
#   quant   := ('forall'|'exists') NAME ':' NAME '.' formula
#   atom    := NAME ['(' NAME (',' NAME)* ')']
#
# BINOP and its precedence come from _FolParser.binary, read by the
# shared climber (repro.logic.propositional): '->' loosest and
# right-associative, then '|', then '&', both left-associative.  A
# quantifier's body is a whole formula, so it extends as far right as
# it can.  Quantified variables are the only Vars; every other NAME in
# term position is a constant.  Sort checking (including "every sort
# has a non-empty domain") happens after parsing, so errors carry the
# signature's own diagnostics.

_FOL_TOKEN_RE = re.compile(r"\s*(\|-|->|[A-Za-z_][A-Za-z0-9_]*|[(),;:=.&|~!])")

_FOL_RESERVED = frozenset({"sort", "pred", "axiom", "forall", "exists"})


def _tokenize_fol(text: str) -> "list[str]":
    tokens: "list[str]" = []
    pos = 0
    while pos < len(text):
        match = _FOL_TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ObligationSyntaxError(
                    f"unexpected character {text[pos:].strip()[0]!r} "
                    f"in FOL spec"
                )
            break
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _FolParser(_Climber):
    """Declarations by hand; formulas by the shared precedence climber."""

    binary = {
        "->": (1, True, fol.FolImplies),
        "|": (2, False, fol.FolOr),
        "&": (3, False, fol.FolAnd),
    }
    prefix = {"~": fol.FolNot, "!": fol.FolNot}
    error = ObligationSyntaxError
    end = "unexpected end of FOL spec"
    unclosed = "expected ')' in FOL spec, got {!r}"
    trailing = "trailing input in FOL spec at {!r}"

    def __init__(self, text: str) -> None:
        super().__init__(_tokenize_fol(text))
        self.signature = fol.Signature()
        self.sorts: "dict[str, fol.Sort]" = {}
        self.axioms: "list[fol.FolFormula]" = []
        #: The quantified variables in scope where the climber is.
        self.bound: "dict[str, fol.Sort]" = {}

    def expect(self, token: str) -> None:
        got = self.take()
        if got != token:
            raise ObligationSyntaxError(
                f"expected {token!r} in FOL spec, got {got!r}"
            )

    def name(self, token: Optional[str] = None) -> str:
        if token is None:
            token = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            raise ObligationSyntaxError(
                f"expected a name in FOL spec, got {token!r}"
            )
        return token

    def sort_named(self, name: str) -> fol.Sort:
        try:
            return self.sorts[name]
        except KeyError:
            raise ObligationSyntaxError(
                f"sort {name!r} used before declaration"
            ) from None

    # -- declarations --------------------------------------------------

    def parse_spec(
        self,
    ) -> "tuple[fol.Signature, list[fol.FolFormula], fol.FolFormula]":
        while True:
            self.parse_decl()
            token = self.take()
            if token == ";":
                continue
            if token == "|-":
                break
            raise ObligationSyntaxError(
                f"expected ';' or '|-' after declaration, got {token!r}"
            )
        return self.signature, self.axioms, self.whole()

    def parse_decl(self) -> None:
        keyword = self.take()
        if keyword == "sort":
            name = self.name()
            self.expect("=")
            sort = self.signature.declare_sort(name)
            self.sorts[name] = sort
            self.signature.declare_constant(self.name(), sort)
            while self.peek() == ",":
                self.take()
                self.signature.declare_constant(self.name(), sort)
        elif keyword == "pred":
            name = self.name()
            arg_sorts: "list[fol.Sort]" = []
            if self.peek() == "(":
                self.take()
                arg_sorts.append(self.sort_named(self.name()))
                while self.peek() == ",":
                    self.take()
                    arg_sorts.append(self.sort_named(self.name()))
                self.expect(")")
            self.signature.declare_predicate(name, *arg_sorts)
        elif keyword == "axiom":
            self.axioms.append(self.formula())
        else:
            raise ObligationSyntaxError(
                f"expected 'sort', 'pred', or 'axiom', got {keyword!r}"
            )

    # -- formula primaries ---------------------------------------------

    def primary(self, token: str) -> fol.FolFormula:
        if token in ("forall", "exists"):
            var_name = self.name()
            self.expect(":")
            sort = self.sort_named(self.name())
            self.expect(".")
            outer = self.bound
            self.bound = {**outer, var_name: sort}
            body = self.formula()
            self.bound = outer
            ctor = fol.ForAll if token == "forall" else fol.Exists
            return ctor(Var(var_name), sort, body)
        name = self.name(token)
        if name in _FOL_RESERVED:
            raise ObligationSyntaxError(
                f"reserved word {name!r} cannot start a formula here"
            )
        args: "list[fol.Term]" = []
        if self.peek() == "(":
            self.take()
            args.append(self.term())
            while self.peek() == ",":
                self.take()
                args.append(self.term())
            self.expect(")")
        return fol.FolAtom(Atom(name, tuple(args)))

    def term(self) -> "fol.Term":
        name = self.name()
        if name in self.bound:
            return Var(name)
        return Const(name)


def _parse_fol_body(
    body: str,
) -> "tuple[fol.Signature, list[fol.FolFormula], fol.FolFormula]":
    signature, axioms, conclusion = _FolParser(body).parse_spec()
    for formula in [*axioms, conclusion]:
        fol.sort_check(signature, formula)
    return signature, axioms, conclusion


# -- the other kinds ----------------------------------------------------------


def _parse_entails_body(body: str) -> "tuple[list[Formula], Formula]":
    left, sep, right = body.partition("|-")
    if not sep or "|-" in right:
        raise ObligationSyntaxError(
            "an entails obligation needs exactly one '|-'"
        )
    premise_texts = [p.strip() for p in left.split(";") if p.strip()]
    premises = [parse_prop(text) for text in premise_texts]
    conclusion = parse_prop(right)
    return premises, conclusion


def _parse_ltl_body(body: str) -> "tuple[LtlFormula, Trace]":
    formula_text, sep, trace_text = body.partition("@")
    if not sep or not trace_text.strip():
        raise ObligationSyntaxError(
            "an ltl obligation needs '<formula> @ <trace>'"
        )
    formula = parse_ltl(formula_text)
    states: "list[frozenset[str]]" = []
    for state_text in trace_text.split(";"):
        atoms = [
            atom for atom in state_text.replace(",", " ").split()
            if atom not in (".", "-")
        ]
        states.append(frozenset(atoms))
    return formula, states


#: Each kind's (parse the body, decide the parsed body, failure detail).
_KINDS: dict[
    str, tuple[Callable[[str], Any], Callable[[Any], bool], str]
] = {
    "sat": (parse_prop, is_satisfiable, "formula is unsatisfiable"),
    "valid": (parse_prop, is_valid, "formula is not valid"),
    "entails": (
        _parse_entails_body, lambda parsed: entails(*parsed),
        "premises do not entail the conclusion",
    ),
    "fol": (
        _parse_fol_body, lambda parsed: fol.fol_entails(*parsed),
        "axioms do not entail the conclusion",
    ),
    "ltl": (
        _parse_ltl_body, lambda parsed: holds(*parsed),
        "trace does not satisfy the formula",
    ),
}

#: Recognised obligation kinds, in documentation order.
OBLIGATION_KINDS = tuple(_KINDS)


def validate_obligation(obligation: Obligation) -> None:
    """Raise :class:`ObligationSyntaxError` if the body does not parse.

    The claim compiler calls this so authoring mistakes fail at
    compile time; at check time the same conditions surface as
    deterministic discharge failures instead (a rule must never
    raise).
    """
    if obligation.kind not in _KINDS:
        return
    try:
        _KINDS[obligation.kind][0](obligation.body)
    except ObligationSyntaxError:
        raise
    except (ValueError, TypeError, RecursionError) as exc:
        raise ObligationSyntaxError(str(exc)) from exc


def discharge(obligation: Obligation) -> Optional[str]:
    """Run the bound proof; ``None`` on success, a failure detail else.

    Total and deterministic: malformed bodies come back as a
    ``malformed obligation`` detail rather than an exception, so a
    broken spec is a violation, not a crashed check.  A ``fol`` spec
    that grounds past :data:`repro.logic.fol.GROUND_BUDGET` fails with
    a detail naming its size and the budget.
    """
    try:
        return _prove(obligation)
    except fol.GroundBudgetError as exc:
        return str(exc)
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        return f"malformed obligation: {exc}"


def _prove(obligation: Obligation) -> Optional[str]:
    if obligation.kind not in _KINDS:
        return f"unknown obligation kind {obligation.kind!r}"
    parse, decide, failure = _KINDS[obligation.kind]
    return None if decide(parse(obligation.body)) else failure


# -- the result cache ---------------------------------------------------------


class ObligationCache:
    """Per-process discharge results keyed by (evidence, fingerprint).

    The fingerprint is a content hash, so an *edited* obligation misses
    the cache (and re-proves) while an untouched one hits.  Counters
    instrument the selective-re-proof contract: ``proofs_run`` is the
    number of actual prover invocations, ``hits`` the number of
    results served from cache.  Thread-safe; parallel worker processes
    each hold their own (initially empty) cache, which affects only
    performance — discharge is a pure function of the spec, so every
    mode reports identical violations.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._results: "dict[tuple[str, str], Optional[str]]" = {}
        self._proofs_run = 0
        self._hits = 0

    def result(self, evidence_id: str, obligation: Obligation) -> Optional[str]:
        """Cached failure detail (or ``None``) for one obligation."""
        key = (evidence_id, obligation.fingerprint)
        with self._lock:
            if key in self._results:
                self._hits += 1
                return self._results[key]
            self._proofs_run += 1
        detail = discharge(obligation)
        with self._lock:
            self._results[key] = detail
        return detail

    def counters(self) -> "tuple[int, int]":
        """``(proofs_run, hits)`` so far."""
        with self._lock:
            return self._proofs_run, self._hits

    def reset(self) -> None:
        with self._lock:
            self._results.clear()
            self._proofs_run = 0
            self._hits = 0


CACHE = ObligationCache()


def obligation_counters() -> "tuple[int, int]":
    """``(proofs_run, cache_hits)`` for this process's cache."""
    return CACHE.counters()


def reset_obligation_cache() -> None:
    """Forget all cached discharge results and zero the counters."""
    CACHE.reset()


# -- the scoped rule ----------------------------------------------------------


def obligation_specs(node: Node) -> "tuple[str, ...]":
    """The obligation spec strings a node carries (possibly empty)."""
    return _obligation_specs(node)


def _obligation_specs(node: Node) -> "tuple[str, ...]":
    values: "tuple[object, ...]" = ()
    for key, entry in node.metadata:
        if key == OBLIGATION_KEY:
            values = tuple(entry)
    return tuple(str(spec) for spec in values)


def _obligation_violations(
    identifier: str, specs: "tuple[str, ...]"
) -> "list[Violation]":
    out: "list[Violation]" = []
    for spec in specs:
        try:
            obligation = parse_obligation(spec)
        except ObligationSyntaxError as exc:
            out.append(Violation(
                OBLIGATION_RULE_NAME, identifier,
                f"{spec}: malformed obligation: {exc}",
            ))
            continue
        detail = CACHE.result(identifier, obligation)
        if detail is not None:
            out.append(Violation(
                OBLIGATION_RULE_NAME, identifier,
                f"{obligation.spec}: {detail}",
            ))
    return out


def _rule_obligations(node: Node, ctx: RuleContext) -> "list[Violation]":
    """Every obligation bound to this node must discharge."""
    specs = _obligation_specs(node)
    if not specs:
        return []
    return _obligation_violations(node.identifier, specs)


#: The shipped discharge rule: per-node scope, so streaming never
#: hydrates, parallel workers prove their own shards, and the
#: incremental checker re-proves exactly the nodes an edit touched.
OBLIGATION_RULE: ScopedRule = per_node(
    OBLIGATION_RULE_NAME,
    "formal obligations bound to a node must discharge via repro.logic "
    "(SAT / propositional entailment / finite-domain FOL / LTL)",
    _rule_obligations,
)
