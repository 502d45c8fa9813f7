"""Multi-sorted first-order logic over finite domains.

Sokolsky, Lee & Heimdahl report 'exploring the use of multi-sorted
first-order logic for ... formalization [of safety arguments]' for medical
devices (§III.N).  This module realises that exploration: sorted
signatures, quantified formulas, sort checking, grounding over finite
domains, and model evaluation.  Because domains are finite, validity and
entailment are decidable here by grounding into propositional logic and
reusing the SAT layer — exactly the 'mechanical calculation' route Rushby
advocates.

The sort checker is also what gives Matsuno-style typed pattern parameters
their teeth: instantiating a placeholder of sort ``Hazard`` with a
``System`` constant is a sort error, caught mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

from . import propositional as prop
from .terms import Atom, Const, Func, Substitution, Term, Var

__all__ = [
    "Sort",
    "Signature",
    "SortError",
    "FolFormula",
    "FolAtom",
    "FolNot",
    "FolAnd",
    "FolOr",
    "FolImplies",
    "ForAll",
    "Exists",
    "Interpretation",
    "GROUND_BUDGET",
    "GroundBudgetError",
    "ground",
    "evaluate_fol",
    "fol_valid",
    "fol_entails",
]


@dataclass(frozen=True, slots=True)
class Sort:
    """A named sort (type) of individuals, e.g. ``Hazard`` or ``Component``."""

    name: str

    def __str__(self) -> str:
        return self.name


class SortError(TypeError):
    """Raised when a term or formula violates the signature's sorts."""


@dataclass
class Signature:
    """A multi-sorted signature: sorts, typed constants, typed predicates.

    ``constants`` maps constant name -> sort; ``predicates`` maps predicate
    name -> argument sort tuple; ``functions`` maps function name ->
    (argument sorts, result sort).
    """

    sorts: set[Sort] = field(default_factory=set)
    constants: dict[str, Sort] = field(default_factory=dict)
    predicates: dict[str, tuple[Sort, ...]] = field(default_factory=dict)
    functions: dict[str, tuple[tuple[Sort, ...], Sort]] = field(
        default_factory=dict
    )

    def declare_sort(self, name: str) -> Sort:
        """Add (or fetch) a sort by name."""
        sort = Sort(name)
        self.sorts.add(sort)
        return sort

    def declare_constant(self, name: str, sort: Sort) -> Const:
        """Add a typed constant."""
        self._require_sort(sort)
        existing = self.constants.get(name)
        if existing is not None and existing != sort:
            raise SortError(
                f"constant {name!r} already declared with sort {existing}"
            )
        self.constants[name] = sort
        return Const(name)

    def declare_predicate(self, name: str, *arg_sorts: Sort) -> str:
        """Add a typed predicate symbol."""
        for sort in arg_sorts:
            self._require_sort(sort)
        existing = self.predicates.get(name)
        if existing is not None and existing != tuple(arg_sorts):
            raise SortError(
                f"predicate {name!r} already declared with sorts {existing}"
            )
        self.predicates[name] = tuple(arg_sorts)
        return name

    def declare_function(
        self, name: str, arg_sorts: Sequence[Sort], result: Sort
    ) -> str:
        """Add a typed function symbol."""
        for sort in tuple(arg_sorts) + (result,):
            self._require_sort(sort)
        self.functions[name] = (tuple(arg_sorts), result)
        return name

    def _require_sort(self, sort: Sort) -> None:
        if sort not in self.sorts:
            raise SortError(f"sort {sort} not declared")

    def sort_of_term(
        self, term: Term, var_sorts: Mapping[Var, Sort]
    ) -> Sort:
        """Infer the sort of a term, raising :class:`SortError` on misuse."""
        if isinstance(term, Var):
            try:
                return var_sorts[term]
            except KeyError:
                raise SortError(f"unbound variable {term}") from None
        if isinstance(term, Const):
            try:
                return self.constants[term.name]
            except KeyError:
                raise SortError(f"undeclared constant {term.name!r}") from None
        arg_sorts, result = self.functions.get(term.functor, (None, None))
        if result is None:
            raise SortError(f"undeclared function {term.functor!r}")
        if len(arg_sorts) != len(term.args):
            raise SortError(
                f"function {term.functor!r} arity mismatch"
            )
        for arg, wanted in zip(term.args, arg_sorts):
            actual = self.sort_of_term(arg, var_sorts)
            if actual != wanted:
                raise SortError(
                    f"argument {arg} of {term.functor!r} has sort "
                    f"{actual}, expected {wanted}"
                )
        return result

    def check_atom(self, atom: Atom, var_sorts: Mapping[Var, Sort]) -> None:
        """Sort-check one atomic formula."""
        wanted = self.predicates.get(atom.predicate)
        if wanted is None:
            raise SortError(f"undeclared predicate {atom.predicate!r}")
        if len(wanted) != len(atom.args):
            raise SortError(f"predicate {atom.predicate!r} arity mismatch")
        for arg, want in zip(atom.args, wanted):
            actual = self.sort_of_term(arg, var_sorts)
            if actual != want:
                raise SortError(
                    f"argument {arg} of {atom.predicate!r} has sort "
                    f"{actual}, expected {want}"
                )

    def constants_of_sort(self, sort: Sort) -> list[Const]:
        """All declared constants of the given sort, name-ordered."""
        return [
            Const(name)
            for name, declared in sorted(self.constants.items())
            if declared == sort
        ]


@dataclass(frozen=True, slots=True)
class FolAtom:
    """Atomic FOL formula wrapping a term-level atom."""

    atom: Atom

    def __str__(self) -> str:
        return str(self.atom)


@dataclass(frozen=True, slots=True)
class FolNot:
    operand: "FolFormula"

    def __str__(self) -> str:
        return f"~({self.operand})"


@dataclass(frozen=True, slots=True)
class FolAnd:
    left: "FolFormula"
    right: "FolFormula"

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True, slots=True)
class FolOr:
    left: "FolFormula"
    right: "FolFormula"

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True, slots=True)
class FolImplies:
    antecedent: "FolFormula"
    consequent: "FolFormula"

    def __str__(self) -> str:
        return f"({self.antecedent} -> {self.consequent})"


@dataclass(frozen=True, slots=True)
class ForAll:
    """Universal quantification over a sorted variable."""

    variable: Var
    sort: Sort
    body: "FolFormula"

    def __str__(self) -> str:
        # Bracketed like the connectives: the body extends as far right
        # as it can, so an unbracketed quantifier would swallow whatever
        # follows it in an enclosing connective.
        return f"(forall {self.variable}:{self.sort}. {self.body})"


@dataclass(frozen=True, slots=True)
class Exists:
    """Existential quantification over a sorted variable."""

    variable: Var
    sort: Sort
    body: "FolFormula"

    def __str__(self) -> str:
        return f"(exists {self.variable}:{self.sort}. {self.body})"


FolFormula = Union[FolAtom, FolNot, FolAnd, FolOr, FolImplies, ForAll, Exists]


def _operands(formula: FolFormula) -> "tuple[FolFormula, ...]":
    """The direct subformulas, left to right."""
    if isinstance(formula, FolAtom):
        return ()
    if isinstance(formula, FolNot):
        return (formula.operand,)
    if isinstance(formula, (FolAnd, FolOr)):
        return (formula.left, formula.right)
    if isinstance(formula, FolImplies):
        return (formula.antecedent, formula.consequent)
    if isinstance(formula, (ForAll, Exists)):
        return (formula.body,)
    raise TypeError(f"not a FOL formula: {formula!r}")


def sort_check(
    signature: Signature,
    formula: FolFormula,
    var_sorts: Mapping[Var, Sort] | None = None,
) -> None:
    """Check a formula against the signature; raise SortError on misuse."""
    stack = [(formula, dict(var_sorts or {}))]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, FolAtom):
            signature.check_atom(node.atom, bound)
        elif isinstance(node, (ForAll, Exists)):
            stack.append((node.body, {**bound, node.variable: node.sort}))
        else:
            stack.extend((child, bound) for child in reversed(_operands(node)))


#: The most propositional nodes :func:`ground` builds for one formula.
#: Grounding multiplies a quantifier's body by its domain, so a short
#: formula can ground to tens of thousands of nodes that the SAT layer
#: then cannot decide in useful time.  The budget is a count, never a
#: time, so the verdict is the same on every host, mode and worker.
#: The hardest family measured, a valid ``forall x. forall y. R(x, y) |
#: ~R(x, y)``, is decided in about 0.3 s at 1,500 nodes and in 0.5-0.8 s
#: at 2,000 on a 2-CPU x86-64 host; DPLL time grows faster than the size.
GROUND_BUDGET = 1500


class GroundBudgetError(ValueError):
    """Raised when grounding a formula would exceed :data:`GROUND_BUDGET`."""


def _ground_size(signature: Signature, formula: FolFormula) -> int:
    """How many propositional nodes :func:`ground` builds for the formula.

    Every node is built once per binding of the quantifiers above it,
    the product of their domain sizes; a quantifier adds the
    ``domain - 1`` connectives that join its instances.
    """
    size = 0
    stack = [(formula, 1)]
    while stack:
        node, copies = stack.pop()
        if isinstance(node, (ForAll, Exists)):
            domain = len(signature.constants_of_sort(node.sort))
            size += copies * max(domain - 1, 0)
            stack.append((node.body, copies * domain))
        else:
            size += copies
            stack.extend((child, copies) for child in _operands(node))
    return size


#: How :func:`ground` joins a node's grounded parts, by node class.
_JOIN = {
    FolNot: prop.Not,
    FolAnd: prop.And,
    FolOr: prop.Or,
    FolImplies: prop.Implies,
    ForAll: lambda *parts: prop.conjoin(parts),
    Exists: lambda *parts: prop.disjoin(parts),
}


def ground(signature: Signature, formula: FolFormula) -> prop.Formula:
    """Ground a sorted FOL formula into propositional logic.

    Quantifiers expand over the declared constants of their sort, in
    name order, into right-nested conjunctions (``forall``) and
    disjunctions (``exists``); ground atoms become propositional atoms
    named by their rendered text.  Raises :class:`SortError` if a
    quantified sort has no constants (the empty domain would make
    ``forall`` vacuously true and ``exists`` false, which is almost
    always an encoding mistake in assurance models) or an atom keeps a
    free variable.  Raises :class:`GroundBudgetError`, before building
    anything, if the result would have more than :data:`GROUND_BUDGET`
    nodes.
    """
    size = _ground_size(signature, formula)
    if size > GROUND_BUDGET:
        raise GroundBudgetError(
            f"grounding needs {size} propositional nodes, over the budget "
            f"of {GROUND_BUDGET}"
        )
    # Entries are (node, bindings of the variables in scope) to ground,
    # or (part count, join) to replace the last parts grounded by one.
    work: list = [(formula, {})]
    done: list[prop.Formula] = []
    while work:
        node, env = work.pop()
        if isinstance(node, int):
            parts = done[-node:]
            del done[-node:]
            done.append(env(*parts))
        elif isinstance(node, FolAtom):
            atom = Atom(
                node.atom.predicate,
                tuple(_resolve(arg, env) for arg in node.atom.args),
            )
            if not atom.is_ground():
                raise SortError(f"free variable in atom {atom}")
            done.append(prop.Atom(_mangle(atom)))
        else:
            if isinstance(node, (ForAll, Exists)):
                domain = signature.constants_of_sort(node.sort)
                if not domain:
                    raise SortError(
                        f"sort {node.sort} has no constants to ground over"
                    )
                parts = [
                    (node.body, {**env, node.variable: value})
                    for value in domain
                ]
            else:
                parts = [(child, env) for child in _operands(node)]
            work.append((len(parts), _JOIN[type(node)]))
            work.extend(reversed(parts))
    return done[0]


def _resolve(term: Term, env: Mapping[Var, Const]) -> Term:
    """The term with each variable bound in ``env`` replaced."""
    if isinstance(term, Func):
        return Substitution(env).apply(term)
    return env.get(term, term)


def _mangle(atom: Atom) -> str:
    if not atom.args:
        return atom.predicate
    args = "_".join(str(a) for a in atom.args)
    return f"{atom.predicate}__{args}"


Interpretation = Mapping[str, bool]
"""Ground-atom truth assignment keyed by mangled atom name."""


def evaluate_fol(
    signature: Signature,
    formula: FolFormula,
    interpretation: Interpretation,
) -> bool:
    """Evaluate a closed formula in a finite interpretation.

    Atoms missing from the interpretation default to False (closed-world),
    matching how assurance models treat unasserted facts.
    """
    grounded = ground(signature, formula)
    valuation = {
        atom: interpretation.get(atom.name, False)
        for atom in prop.atoms_of(grounded)
    }
    return prop.evaluate(grounded, valuation)


def fol_valid(signature: Signature, formula: FolFormula) -> bool:
    """Finite-domain validity via grounding + SAT."""
    from .entailment import is_valid

    return is_valid(ground(signature, formula))


def fol_entails(
    signature: Signature,
    premises: Iterable[FolFormula],
    conclusion: FolFormula,
) -> bool:
    """Finite-domain entailment via grounding + SAT."""
    from .entailment import entails

    grounded = [ground(signature, p) for p in premises]
    return entails(grounded, ground(signature, conclusion))
