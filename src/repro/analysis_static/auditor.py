"""Rule-scope auditor: static proof that scoped rules keep their promise.

Every scoped rule declares, by its scope, which slice of the
:class:`~repro.core.analysis.RuleContext` it may read (the table lives
in :data:`repro.core.analysis.SCOPE_SURFACE`).  The four execution
modes — serial, streaming, parallel, incremental — are equivalent
*only* while rules honour that declaration: an undeclared context read
silently changes what a chunked or incremental run observes, a
mutation corrupts shared state under the parallel executor, and a
nondeterminism source breaks byte-stable violation output.

This module walks each rule callable's AST (``inspect.getsource`` +
``ast.parse``), resolving closure cells and helper calls **one level
deep**, and emits structured :class:`AuditFinding`\\ s:

``undeclared-context-access``
    reading a context attribute outside the scope's declared surface;
``hydration-forcing``
    calling ``ensure_argument()`` or the subject's ``load``/``argument``
    escape hatches, which hydrate a stored case;
``mutation``
    assigning to / deleting from the context or subject, or calling a
    mutator method (``add``, ``append``, ``add_node`` …) on them;
``nondeterminism``
    ``random``/``time``/``secrets``/``uuid`` use, ``datetime.now``,
    bare ``id()``, or iteration over a set feeding rule output;
``unreadable-source``
    the callable's source could not be retrieved (C extension,
    interactive definition) — the auditor cannot vouch for it.

Findings carry severity, rule name, and a real ``path:line`` source
location (line numbers are rebased onto the defining file).
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from ..core.analysis import SCOPE_SURFACE, Scope

__all__ = [
    "AuditFinding",
    "audit_rule",
    "audit_rules",
    "audit_rule_set",
    "audit_callable",
    "audit_streaming_scan",
    "errors_only",
    "KIND_UNDECLARED",
    "KIND_HYDRATION",
    "KIND_MUTATION",
    "KIND_NONDETERMINISM",
    "KIND_UNREADABLE",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
]

KIND_UNDECLARED = "undeclared-context-access"
KIND_HYDRATION = "hydration-forcing"
KIND_MUTATION = "mutation"
KIND_NONDETERMINISM = "nondeterminism"
KIND_UNREADABLE = "unreadable-source"

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

# Modules whose mere use inside a rule makes violation output depend on
# wall-clock, process identity, or RNG state.
_NONDET_MODULES = frozenset({"random", "time", "secrets", "uuid"})
_NONDET_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

# Method names that mutate their receiver.  Covers the builtin
# container mutators plus the Argument/analysis-context write API.
_MUTATOR_METHODS = frozenset({
    "add", "append", "extend", "insert", "remove", "discard", "pop",
    "popitem", "clear", "update", "setdefault", "sort", "reverse",
    "add_node", "add_nodes", "add_link", "add_links", "remove_node",
    "remove_link", "replace_node", "note_node", "note_link",
    "apply_op", "reset", "finalise", "batch",
})

# Subject attributes whose access forces hydration of the full
# argument rather than streaming over shards.
_SUBJECT_HYDRATORS = frozenset({"load", "argument", "ensure_argument"})

# Helper callables that are part of the documented stream-safe API;
# the auditor trusts them by name and does not descend into them.
_TRUSTED_HELPERS = frozenset({
    "iter_subject_nodes", "iter_subject_links", "looks_propositional",
    "len", "isinstance", "getattr_static", "sorted", "list", "tuple",
    "str", "repr", "format", "min", "max", "any", "all", "sum",
    "enumerate", "zip", "map", "filter", "frozenset",
})


@dataclass(frozen=True)
class AuditFinding:
    """One statically detected contract violation in a rule callable."""

    rule: str
    kind: str
    severity: str
    message: str
    path: str
    line: int

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def __str__(self) -> str:
        return (
            f"{self.location}: [{self.severity}] {self.rule}: "
            f"{self.kind}: {self.message}"
        )


def errors_only(findings: Iterable[AuditFinding]) -> "list[AuditFinding]":
    """Filter *findings* down to hard errors (drop warnings)."""
    return [f for f in findings if f.severity == SEVERITY_ERROR]


# -- source retrieval ---------------------------------------------------------


def _unwrap_callable(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Follow ``functools.partial`` wrappers down to the real function.

    The claim-language compiler parameterises module-level rule
    templates with ``functools.partial`` (the bound arguments are the
    compiled declaration's constants).  ``inspect.signature`` already
    reports only the *remaining* parameters of a partial, so role
    inference needs no adjustment — but ``inspect.getsource`` refuses
    partials outright, which would demote every compiled rule to an
    unreadable-source warning.  Unwrapping restores full audit
    coverage of the template body.
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    return fn


def _load_function_tree(
    fn: Callable[..., Any],
) -> "tuple[Optional[ast.AST], str, Optional[str]]":
    """Parse *fn*'s source; returns (tree, path, error).

    Line numbers in the returned tree are rebased so they refer to the
    defining file, not to the dedented snippet.
    """
    try:
        source = inspect.getsource(fn)
        path = inspect.getsourcefile(fn) or "<unknown>"
    except (OSError, TypeError) as exc:
        return None, "<unknown>", str(exc)
    try:
        tree = ast.parse(textwrap.dedent(source))
    except SyntaxError:
        # A decorated or clause-embedded lambda can produce a snippet
        # that does not parse standalone; wrap defensively.
        try:
            tree = ast.parse("if True:\n" + textwrap.indent(source, "    "))
        except SyntaxError as exc:
            return None, path, f"unparsable source: {exc}"
    # Locate the actual function node inside whatever statement
    # inspect handed us (decorators, assignments around lambdas, ...).
    target: Optional[ast.AST] = None
    code = getattr(fn, "__code__", None)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if code is None or node.name == fn.__name__:
                target = node
                break
        elif isinstance(node, ast.Lambda) and code is not None:
            target = node
            break
    if target is None:
        return None, path, "no function definition found in source"
    if code is not None:
        ast.increment_lineno(target, code.co_firstlineno - target.lineno)
    return target, path, None


def _positional_params(fn_node: ast.AST) -> "list[str]":
    args = getattr(fn_node, "args", None)
    if args is None:
        return []
    return [a.arg for a in list(args.posonlyargs) + list(args.args)]


# -- the AST visitor ----------------------------------------------------------


class _RuleVisitor(ast.NodeVisitor):
    """Checks one callable's body against the rule-authoring contract.

    ``roles`` maps local names to either ``"ctx"`` or ``"subject"`` —
    the two privileged objects a rule receives.  Everything the
    contract restricts is phrased as "what may you do with these".
    """

    def __init__(
        self,
        auditor: "_Auditor",
        rule_name: str,
        path: str,
        roles: "dict[str, str]",
        allowed_context: "frozenset[str]",
        fn: Callable[..., Any],
        depth: int,
    ) -> None:
        self.auditor = auditor
        self.rule_name = rule_name
        self.path = path
        self.roles = dict(roles)
        self.allowed_context = allowed_context
        self.fn = fn
        self.depth = depth
        # Local names known to hold sets (for the iteration-order check).
        self.set_locals: "set[str]" = set()
        # Function-local imports: alias -> module name.  Closure cells
        # and globals cover module-level imports; these cover
        # ``import time`` inside the rule body itself.
        self.module_aliases: "dict[str, str]" = {}
        # Names bound by ``from random import random`` and friends.
        self.nondet_names: "set[str]" = set()
        # (line, role-name) pairs already flagged as mutation, so the
        # same expression is not double-reported as undeclared access.
        self._mutation_sites: "set[tuple[int, str]]" = set()

    # -- finding emission ---------------------------------------------

    def _emit(self, kind: str, severity: str, message: str,
              node: ast.AST) -> None:
        self.auditor.findings.append(AuditFinding(
            rule=self.rule_name,
            kind=kind,
            severity=severity,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 0),
        ))

    # -- role plumbing --------------------------------------------------

    def _role_of(self, node: ast.AST) -> Optional[str]:
        """Role name if *node* is (rooted at) a privileged object."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            return self.roles.get(node.id)
        return None

    def _root_name(self, node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    # -- mutation --------------------------------------------------------

    def _check_mutation_target(self, target: ast.AST) -> None:
        # Rebinding a bare local (``x = ...``) is fine; writing *into*
        # a privileged object (``ctx.x = ...``, ``subject.meta[k] = v``)
        # is not.
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_mutation_target(elt)
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        role = self._role_of(target)
        if role is not None:
            self._emit(
                KIND_MUTATION, SEVERITY_ERROR,
                f"assignment into the {role} object", target,
            )
            root = self._root_name(target)
            if root is not None:
                self._mutation_sites.add(
                    (getattr(target, "lineno", 0), root)
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_mutation_target(target)
        self._track_set_binding(node.targets, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_mutation_target(node.target)
        if node.value is not None:
            self._track_set_binding([node.target], node.value)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            role = self._role_of(target)
            if role is not None:
                self._emit(
                    KIND_MUTATION, SEVERITY_ERROR,
                    f"delete on the {role} object", target,
                )
        self.generic_visit(node)

    # -- imports ----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            self.module_aliases[bound] = alias.name.split(".")[0]
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").split(".")[0]
        if module in _NONDET_MODULES:
            for alias in node.names:
                self.nondet_names.add(alias.asname or alias.name)
        elif module == "datetime":
            for alias in node.names:
                if alias.name in _NONDET_DATETIME_ATTRS:
                    self.nondet_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _module_of(self, name: str) -> Optional[str]:
        """The module a local name refers to, if determinable."""
        if name in self.module_aliases:
            return self.module_aliases[name]
        resolved = self._resolve_name(name)
        if inspect.ismodule(resolved):
            return getattr(resolved, "__name__", None)
        return None

    # -- attribute access -----------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        base = node.value
        if isinstance(base, ast.Name):
            role = self.roles.get(base.id)
            if role == "ctx":
                self._check_ctx_attribute(node, base.id)
            elif role == "subject":
                self._check_subject_attribute(node, base.id)
            else:
                self._check_module_attribute(node, base.id)
        elif isinstance(base, ast.Attribute):
            # e.g. datetime.datetime.now
            self._check_dotted_nondet(node)
        self.generic_visit(node)

    def _check_ctx_attribute(self, node: ast.Attribute, name: str) -> None:
        attr = node.attr
        if attr in self.allowed_context:
            return
        if (getattr(node, "lineno", 0), name) in self._mutation_sites:
            return  # already reported as mutation at this site
        allowed = ", ".join(sorted(self.allowed_context))
        self._emit(
            KIND_UNDECLARED, SEVERITY_ERROR,
            f"ctx.{attr} is outside this scope's declared surface "
            f"({{{allowed}}})", node,
        )

    def _check_subject_attribute(self, node: ast.Attribute,
                                 name: str) -> None:
        if node.attr in _SUBJECT_HYDRATORS:
            self._emit(
                KIND_HYDRATION, SEVERITY_ERROR,
                f"subject.{node.attr} forces hydration of the full "
                f"argument", node,
            )
        # Plain data reads on the subject (node.text, link.kind, ...)
        # are the whole point of per-node/per-link rules — allowed.

    def _check_module_attribute(self, node: ast.Attribute,
                                name: str) -> None:
        module_name = self._module_of(name)
        if module_name in _NONDET_MODULES:
            self._emit(
                KIND_NONDETERMINISM, SEVERITY_ERROR,
                f"{module_name}.{node.attr} makes violation output "
                f"depend on {module_name} state", node,
            )
        elif module_name == "datetime" and \
                node.attr in _NONDET_DATETIME_ATTRS:
            self._emit(
                KIND_NONDETERMINISM, SEVERITY_ERROR,
                f"datetime.{node.attr} reads the wall clock", node,
            )

    def _check_dotted_nondet(self, node: ast.Attribute) -> None:
        parts: "list[str]" = [node.attr]
        cur: ast.AST = node.value
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            parts.append(cur.id)
        dotted = ".".join(reversed(parts))
        module_name = self._module_of(parts[-1])
        if module_name in _NONDET_MODULES:
            self._emit(
                KIND_NONDETERMINISM, SEVERITY_ERROR,
                f"{dotted} makes violation output depend on "
                f"{module_name} state", node,
            )
        elif module_name == "datetime" and \
                node.attr in _NONDET_DATETIME_ATTRS:
            self._emit(
                KIND_NONDETERMINISM, SEVERITY_ERROR,
                f"{dotted} reads the wall clock", node,
            )

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "id" and func.id not in self.roles:
                self._emit(
                    KIND_NONDETERMINISM, SEVERITY_ERROR,
                    "id() values vary between runs and processes",
                    node,
                )
            elif func.id == "ensure_argument":
                self._emit(
                    KIND_HYDRATION, SEVERITY_ERROR,
                    "ensure_argument() hydrates the full argument",
                    node,
                )
            elif func.id in self.nondet_names:
                self._emit(
                    KIND_NONDETERMINISM, SEVERITY_ERROR,
                    f"{func.id}() was imported from a nondeterminism "
                    f"source", node,
                )
            elif func.id not in _TRUSTED_HELPERS:
                self._maybe_descend_helper(node, func.id)
        elif isinstance(func, ast.Attribute):
            role = self._role_of(func.value)
            if role is not None and func.attr in _MUTATOR_METHODS:
                self._emit(
                    KIND_MUTATION, SEVERITY_ERROR,
                    f".{func.attr}() mutates the {role} object",
                    func,
                )
                root = self._root_name(func.value)
                if root is not None:
                    self._mutation_sites.add(
                        (getattr(func, "lineno", 0), root)
                    )
        self.generic_visit(node)

    def _maybe_descend_helper(self, node: ast.Call, name: str) -> None:
        """Audit a helper call one level deep, mapping roles through."""
        if self.depth >= 1:
            return
        helper = self._resolve_name(name)
        if helper is None or not inspect.isfunction(helper):
            return
        # Map call-site roles onto the helper's positional params.
        try:
            params = [
                p.name for p in
                inspect.signature(helper).parameters.values()
                if p.kind in (p.POSITIONAL_ONLY,
                              p.POSITIONAL_OR_KEYWORD)
            ]
        except (TypeError, ValueError):
            return
        helper_roles: "dict[str, str]" = {}
        for i, arg in enumerate(node.args):
            if i >= len(params):
                break
            if isinstance(arg, ast.Name) and arg.id in self.roles:
                helper_roles[params[i]] = self.roles[arg.id]
        for kw in node.keywords:
            if kw.arg is not None and isinstance(kw.value, ast.Name) \
                    and kw.value.id in self.roles:
                helper_roles[kw.arg] = self.roles[kw.value.id]
        self.auditor.audit_callable_body(
            helper,
            rule_name=self.rule_name,
            roles=helper_roles,
            allowed_context=self.allowed_context,
            depth=self.depth + 1,
        )

    # -- nondeterministic iteration ---------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in ("set",):
            return True
        if isinstance(node, ast.Name) and node.id in self.set_locals:
            return True
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return self._is_set_expr(node.left) or \
                self._is_set_expr(node.right)
        return False

    def _track_set_binding(self, targets: Sequence[ast.AST],
                           value: ast.AST) -> None:
        if not self._is_set_expr(value):
            # frozenset() is order-stable to iterate *within one
            # process* but still hash-ordered; treat it the same.
            if not (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "frozenset"):
                return
        for target in targets:
            if isinstance(target, ast.Name):
                self.set_locals.add(target.id)

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._emit(
                KIND_NONDETERMINISM, SEVERITY_ERROR,
                "iterating a set in a rule body feeds hash order "
                "into violation output; sort it first", node.iter,
            )
        self.generic_visit(node)

    def _check_comprehensions(self, node: ast.AST) -> None:
        for comp in getattr(node, "generators", []):
            if self._is_set_expr(comp.iter):
                self._emit(
                    KIND_NONDETERMINISM, SEVERITY_ERROR,
                    "comprehension over a set feeds hash order into "
                    "violation output; sort it first", comp.iter,
                )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehensions(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehensions(node)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehensions(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehensions(node)
        self.generic_visit(node)

    # -- name resolution ---------------------------------------------------

    def _resolve_name(self, name: str) -> Any:
        """Resolve *name* via the callable's closure, then globals."""
        code = getattr(self.fn, "__code__", None)
        closure = getattr(self.fn, "__closure__", None)
        if code is not None and closure:
            freevars = code.co_freevars
            if name in freevars:
                cell = closure[freevars.index(name)]
                try:
                    return cell.cell_contents
                except ValueError:
                    return None
        return getattr(self.fn, "__globals__", {}).get(name)


# -- the auditor driver -------------------------------------------------------


class _Auditor:
    """Accumulates findings across a rule and its one-deep helpers."""

    def __init__(self) -> None:
        self.findings: "list[AuditFinding]" = []
        self._seen: "set[tuple[int, str, frozenset]]" = set()

    def audit_callable_body(
        self,
        fn: Callable[..., Any],
        *,
        rule_name: str,
        roles: "dict[str, str]",
        allowed_context: "frozenset[str]",
        depth: int,
    ) -> None:
        fn = _unwrap_callable(fn)
        key = (id(fn), rule_name, frozenset(roles.items()))
        if key in self._seen:
            return
        self._seen.add(key)
        tree, path, error = _load_function_tree(fn)
        if tree is None:
            self.findings.append(AuditFinding(
                rule=rule_name,
                kind=KIND_UNREADABLE,
                severity=SEVERITY_WARNING,
                message=f"cannot audit: {error}",
                path=path,
                line=0,
            ))
            return
        visitor = _RuleVisitor(
            self, rule_name, path, roles, allowed_context, fn, depth,
        )
        for stmt in getattr(tree, "body", []) if not isinstance(
                tree, ast.Lambda) else [tree.body]:
            visitor.visit(stmt)


def audit_callable(
    fn: Callable[..., Any],
    *,
    rule_name: str,
    scope: Scope,
    roles: "dict[str, str]",
) -> "list[AuditFinding]":
    """Audit one callable against the contract for *scope*."""
    auditor = _Auditor()
    auditor.audit_callable_body(
        fn,
        rule_name=rule_name,
        roles=roles,
        allowed_context=SCOPE_SURFACE[scope],
        depth=0,
    )
    return auditor.findings


def _rule_roles(fn: Callable[..., Any], scope: Scope) -> "dict[str, str]":
    """Infer ctx/subject role names from a rule fn's signature.

    Per-node and per-link rules take ``(subject, ctx)``; global rules
    take ``(ctx,)``.  Falls back gracefully when the signature is
    unreadable — the source audit will then flag it as unreadable too.
    """
    try:
        params = [
            p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
    except (TypeError, ValueError):
        return {}
    roles: "dict[str, str]" = {}
    if scope is Scope.GLOBAL:
        if params:
            roles[params[0]] = "ctx"
    else:
        if params:
            roles[params[0]] = "subject"
        if len(params) > 1:
            roles[params[1]] = "ctx"
    return roles


def audit_rule(rule: Any) -> "list[AuditFinding]":
    """Audit one :class:`~repro.core.analysis.ScopedRule`."""
    findings = audit_callable(
        rule.fn,
        rule_name=rule.name,
        scope=rule.scope,
        roles=_rule_roles(rule.fn, rule.scope),
    )
    delta_fn = getattr(rule, "delta_fn", None)
    if delta_fn is not None:
        # Delta functions see the same global surface plus the delta
        # payload; audit them under the GLOBAL contract.
        try:
            params = [
                p.name for p in
                inspect.signature(delta_fn).parameters.values()
                if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            ]
        except (TypeError, ValueError):
            params = []
        roles = {params[0]: "ctx"} if params else {}
        findings.extend(audit_callable(
            delta_fn,
            rule_name=f"{rule.name}#delta",
            scope=Scope.GLOBAL,
            roles=roles,
        ))
    return findings


def audit_rules(rules: Iterable[Any]) -> "list[AuditFinding]":
    """Audit every rule in *rules*, concatenating findings."""
    findings: "list[AuditFinding]" = []
    for rule in rules:
        findings.extend(audit_rule(rule))
    return findings


def audit_rule_set(rule_set: Any) -> "list[AuditFinding]":
    """Audit a :class:`~repro.core.wellformed.RuleSet` (duck-typed)."""
    return audit_rules(getattr(rule_set, "rules", rule_set))


def audit_streaming_scan(fn: Callable[..., Any]) -> "list[AuditFinding]":
    """Audit a streaming heuristic scan (e.g. a fallacy per-node pass).

    A scan takes the storage-duck subject as its first parameter and
    must stay on the stream-safe API (``iter_subject_nodes`` /
    ``iter_subject_links``); any hydration escape hatch is an error.
    """
    try:
        params = [
            p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
    except (TypeError, ValueError):
        params = []
    roles = {params[0]: "subject"} if params else {}
    auditor = _Auditor()
    auditor.audit_callable_body(
        fn,
        rule_name=getattr(fn, "__name__", repr(fn)),
        roles=roles,
        allowed_context=frozenset(),
        depth=0,
    )
    return auditor.findings
