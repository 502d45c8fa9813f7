"""The declarative claim language and the unified checking facade.

Pins the PR 10 contracts end to end: the module parser's surface
syntax and diagnostics; obligation parsing, fingerprinting, and total
deterministic discharge for all five kinds; compilation onto the
scoped rule engine (audited, picklable, registered in the import-time
gate); engine equivalence — a claim module's violations, obligation
failures included, are identical under serial, streaming, parallel,
and incremental execution; the selective re-proof contract (editing one
claim's evidence re-runs exactly one proof, counters asserted); and the
``repro.check`` facade's typed ``CheckReport``.
"""

from __future__ import annotations

import json
import queue
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

import pytest

import repro
from repro.checking import (
    CHECK_MODES,
    CheckReport,
    _CHECKERS,
    _MAX_INCREMENTAL_SUBJECTS,
)
from repro.claims import (
    EXEMPLAR_SOURCE,
    GSN_OBLIGATION_RULES,
    KERNEL_CLAIMS_RULES,
    OBLIGATION_KEY,
    OBLIGATION_RULE_NAME,
    ClaimCompileError,
    ClaimModule,
    ClaimSyntaxError,
    CompiledClaims,
    Obligation,
    ObligationSyntaxError,
    compile_module,
    discharge,
    exemplar_argument,
    exemplar_claims,
    exemplar_module,
    obligation_counters,
    obligation_specs,
    parse_module,
    parse_obligation,
    validate_obligation,
)
from repro.claims.lang import ForbidLink, RequireMention
from repro.core.analysis import IncrementalChecker
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.service import ServiceClient
from repro.store import StoredArgument

pytestmark = [pytest.mark.claims]


def unique_atom(prefix: str = "p") -> str:
    """A process-unique atom name: no cross-test obligation cache hits."""
    return f"{prefix}_{uuid.uuid4().hex[:10]}"


# -- surface syntax -----------------------------------------------------------


class TestParser:
    def test_exemplar_roundtrip(self):
        module = parse_module(EXEMPLAR_SOURCE)
        assert module.name == "braking-kernel"
        assert [c.identifier for c in module.claims] == ["G1", "G2", "G3"]
        assert module.claim("G1").supported
        assert module.claim("G3").undeveloped
        assert len(module.rules) == 6
        assert {e.identifier for e in module.evidence} == \
            {"Sn1", "Sn2", "Sn3"}
        # every obligation kind appears once in the kernel
        assert sorted(e.kind for e in module.evidence) == \
            sorted(["sat", "valid", "entails", "fol", "ltl"])

    def test_classmethod_parse_is_parse_module(self):
        assert ClaimModule.parse(EXEMPLAR_SOURCE) == \
            parse_module(EXEMPLAR_SOURCE)

    def test_comments_and_blank_lines_ignored(self):
        module = parse_module(
            "# leading comment\n\nmodule m\n"
            'claim G1 "The pump is safe"  # trailing comment\n'
        )
        assert module.claim("G1").text == "The pump is safe"

    def test_quoted_strings_keep_spaces(self):
        module = parse_module(
            'module m\nrule r require mention goal "relief valve"\n'
        )
        rule = module.rules[0]
        assert isinstance(rule, RequireMention)
        assert rule.needle == "relief valve"

    def test_forbid_link_arrow_form(self):
        module = parse_module(
            "module m\n"
            "rule leaf forbid link supported_by solution -> goal\n"
        )
        rule = module.rules[0]
        assert isinstance(rule, ForbidLink)
        assert rule.kind is LinkKind.SUPPORTED_BY
        assert rule.source_type is NodeType.SOLUTION
        assert rule.target_type is NodeType.GOAL

    def test_multiple_evidence_lines_per_identifier(self):
        module = parse_module(
            "module m\n"
            'evidence Sn1 sat "a"\nevidence Sn1 valid "a -> a"\n'
        )
        assert [e.spec for e in module.evidence] == \
            ["sat: a", "valid: a -> a"]

    @pytest.mark.parametrize("source, fragment, line", [
        ('claim G1 "text"', "module <name>' line must come first", 1),
        ("module a\nmodule b", "duplicate 'module'", 2),
        ("module m\nclaim G1", "usage: claim", 2),
        ('module m\nclaim G1 "t"\nclaim G1 "t"', "duplicate claim", 3),
        ('module m\nclaim G1 "t" floating', "unknown claim flag", 2),
        ("module m\nrule r require acyclic\nrule r require acyclic",
         "duplicate rule", 3),
        ("module m\nrule r wish acyclic", "'require' or 'forbid'", 2),
        ("module m\nrule r require supported widget",
         "unknown node type", 2),
        ("module m\nrule r forbid link held_by solution -> goal",
         "unknown link kind", 2),
        ('module m\nevidence Sn1 hope "a"', "unknown evidence kind", 2),
        ('module m\nclaim G1 "unterminated', "quotation", 2),
        ("module m\nfrobnicate everything", "expected 'module'", 2),
    ])
    def test_diagnostics_carry_line_numbers(self, source, fragment, line):
        with pytest.raises(ClaimSyntaxError) as err:
            parse_module(source)
        assert fragment in str(err.value)
        assert err.value.line == line


# -- obligations --------------------------------------------------------------


class TestObligations:
    def test_parse_normalises_kind_and_whitespace(self):
        obligation = parse_obligation("  SAT:   a &\t b  ")
        assert obligation == Obligation("sat", "a & b")
        assert obligation.spec == "sat: a & b"

    def test_parse_rejects_unknown_kind_and_empty_body(self):
        with pytest.raises(ObligationSyntaxError):
            parse_obligation("hope: a")
        with pytest.raises(ObligationSyntaxError):
            parse_obligation("sat:")
        with pytest.raises(ObligationSyntaxError):
            parse_obligation("no separator")

    def test_fingerprint_is_content_hash(self):
        one = parse_obligation("sat: a & b")
        same = parse_obligation("sat:    a  &  b")
        other = parse_obligation("sat: a & c")
        assert one.fingerprint == same.fingerprint
        assert one.fingerprint != other.fingerprint
        assert len(one.fingerprint) == 16

    @pytest.mark.parametrize("spec", [
        "sat: a & (a -> b)",
        "valid: a -> a",
        "entails: a -> b ; a |- b",
        "fol: sort S = x, y ; pred P(S) ; "
        "axiom forall v:S. P(v) |- P(x)",
        "ltl: G (a -> F b) @ a ; b ; .",
    ])
    def test_every_kind_discharges(self, spec):
        assert discharge(parse_obligation(spec)) is None

    @pytest.mark.parametrize("spec, fragment", [
        ("sat: a & ~a", "unsatisfiable"),
        ("valid: a -> b", "not valid"),
        ("entails: a |- b", "do not entail"),
        ("fol: sort S = x, y ; pred P(S) ; axiom P(x) |- P(y)",
         "axioms do not entail"),
        ("ltl: G a @ a ; .", "does not satisfy"),
    ])
    def test_every_kind_fails_deterministically(self, spec, fragment):
        first = discharge(parse_obligation(spec))
        assert first is not None and fragment in first
        assert discharge(parse_obligation(spec)) == first

    @pytest.mark.parametrize("spec", [
        "sat: a &",                        # propositional syntax error
        "entails: a -> b",                 # no turnstile
        "entails: a |- b |- c",            # two turnstiles
        "fol: pred P(S) |- P(x)",          # sort used before declaration
        "fol: sort S = x ; pred P(S) |- P(x) extra",
        "ltl: G a",                        # no trace
        "ltl: G a @",                      # empty trace
    ])
    def test_malformed_bodies_fail_totally(self, spec):
        detail = discharge(parse_obligation(spec))
        assert detail is not None and "malformed obligation" in detail
        with pytest.raises(ObligationSyntaxError):
            validate_obligation(parse_obligation(spec))

    def test_metadata_round_trip(self):
        node = Node("Sn1", NodeType.SOLUTION, "report").with_metadata(
            {OBLIGATION_KEY: ("sat: a", "valid: a -> a")}
        )
        assert obligation_specs(node) == ("sat: a", "valid: a -> a")
        assert obligation_specs(
            Node("Sn2", NodeType.SOLUTION, "bare")
        ) == ()


# -- compilation --------------------------------------------------------------


class TestCompiler:
    def test_exemplar_compiles_audited(self):
        claims = compile_module(exemplar_module(), audit=True)
        assert claims.name == "braking-kernel"
        assert [rule.name for rule in claims.rule_set.rules] == [
            "claims-present", "claim-text", "claim-supported",
            "claim-undeveloped", "evidence-present",
            "goals-cite-support", "no-undev-strategy",
            "evidence-is-leaf", "names-the-system", "no-cycles",
            "one-root", OBLIGATION_RULE_NAME,
        ]
        assert claims.bindings["Sn1"] == (
            "sat: wheel_sensor & (wheel_sensor -> brake_cmd)",
            "valid: brake_cmd -> brake_cmd",
        )
        assert len(claims.obligations()) == 5

    def test_bad_evidence_body_fails_at_compile_time(self):
        module = parse_module(
            'module m\nevidence Sn1 sat "a &"\n'
        )
        with pytest.raises(ClaimCompileError) as err:
            compile_module(module)
        assert "Sn1" in str(err.value) and "line 2" in str(err.value)

    def test_apply_stamps_and_skips_missing(self):
        claims = exemplar_claims()
        argument = exemplar_argument(apply_bindings=False)
        argument.remove_node("Sn3")
        assert claims.apply(argument) == 2
        assert obligation_specs(argument.node("Sn1")) == \
            claims.bindings["Sn1"]
        report = repro.check(argument, claims.rule_set, mode="serial")
        assert [(v.rule, v.subject) for v in report] == \
            [("evidence-present", "Sn3")]

    def test_exemplar_argument_is_clean(self):
        report = repro.check(exemplar_argument(), exemplar_claims())
        assert report.well_formed
        assert len(report.discharged) == 5 and not report.failed


@pytest.mark.static
class TestGateRegistration:
    def test_claim_rule_sets_are_gated(self):
        from repro.analysis_static import gate

        assert GSN_OBLIGATION_RULES in gate.SHIPPED_RULE_SETS
        assert KERNEL_CLAIMS_RULES in gate.SHIPPED_RULE_SETS
        gate.assert_shipped_clean()

    def test_partial_wrapped_templates_audit_clean(self):
        from repro.analysis_static.auditor import audit_rule_set

        findings = audit_rule_set(KERNEL_CLAIMS_RULES)
        assert findings == [], [str(f) for f in findings]


# -- engine equivalence -------------------------------------------------------


def broken_kernel() -> "tuple[Argument, CompiledClaims]":
    """The exemplar with two deliberately failing obligations on Sn1."""
    argument = exemplar_argument()
    node = argument.node("Sn1")
    argument.replace_node(node.with_metadata({
        OBLIGATION_KEY: ("sat: a & ~a", "valid: p -> q"),
    }))
    return argument, exemplar_claims()


class TestModeEquivalence:
    def test_all_engines_agree_including_obligations(self, tmp_path):
        argument, claims = broken_kernel()
        rules = claims.rule_set
        serial = repro.check(argument, rules, mode="serial")
        assert [v.rule for v in serial] == [OBLIGATION_RULE_NAME] * 2
        assert serial.mode == "serial" and not serial.well_formed

        incremental = repro.check(argument, rules, mode="incremental")

        store_dir = tmp_path / "kernel.store"
        argument.save(store_dir)
        stored = StoredArgument(store_dir)
        streaming = repro.check(stored, rules, mode="streaming")
        assert not stored.hydrated
        parallel = repro.check(
            StoredArgument(store_dir), rules, mode="parallel", workers=2
        )
        stored_incremental = repro.check(
            StoredArgument(store_dir), rules, mode="incremental"
        )

        expected = tuple(serial)
        for report in (incremental, streaming, parallel, stored_incremental):
            assert tuple(report) == expected, report.mode

    def test_obligations_ride_the_journal(self, tmp_path):
        argument, claims = broken_kernel()
        store_dir = tmp_path / "journal.store"
        argument.save(store_dir)
        handle = StoredArgument(store_dir)
        first = repro.check(handle, claims.rule_set, mode="incremental")
        assert [v.rule for v in first] == [OBLIGATION_RULE_NAME] * 2
        # repair the evidence through a journaled edit
        node = argument.node("Sn1")
        argument.replace_node(node.with_metadata({
            OBLIGATION_KEY: exemplar_claims().bindings["Sn1"],
        }))
        argument.save(store_dir, journal=True)
        second = repro.check(handle, claims.rule_set, mode="incremental")
        assert tuple(second) == ()
        assert not handle.hydrated


# -- selective re-proof -------------------------------------------------------


def proof_module(n: int) -> "tuple[Argument, CompiledClaims]":
    """``n`` goal/evidence pairs, one unique obligation each."""
    atoms = [unique_atom(f"c{i}") for i in range(n)]
    lines = [f"module proof-{uuid.uuid4().hex[:6]}"]
    for i, atom in enumerate(atoms, start=1):
        lines.append(f'claim G{i} "Hazard {i} is mitigated" supported')
        lines.append(f'evidence Sn{i} valid "{atom} -> {atom}"')
    claims = compile_module(parse_module("\n".join(lines)))
    argument = Argument("proof-case")
    argument.add_node(Node("G0", NodeType.GOAL, "The system is safe"))
    for i in range(1, n + 1):
        argument.add_nodes([
            Node(f"G{i}", NodeType.GOAL, f"Hazard {i} is mitigated"),
            Node(f"Sn{i}", NodeType.SOLUTION, f"Evidence {i}"),
        ])
        argument.add_links([
            ("G0", f"G{i}", LinkKind.SUPPORTED_BY),
            (f"G{i}", f"Sn{i}", LinkKind.SUPPORTED_BY),
        ])
    claims.apply(argument)
    return argument, claims


class TestSelectiveReproof:
    def test_fresh_then_cached(self):
        argument, claims = proof_module(6)
        proofs_before, hits_before = obligation_counters()
        report = repro.check(argument, claims.rule_set, mode="serial")
        assert report.well_formed
        proofs_after, _ = obligation_counters()
        assert proofs_after - proofs_before == 6
        repro.check(argument, claims.rule_set, mode="serial")
        proofs_warm, hits_warm = obligation_counters()
        assert proofs_warm == proofs_after, "warm re-check re-proved"
        assert hits_warm > hits_before

    def test_single_edit_reproves_exactly_one(self):
        argument, claims = proof_module(8)
        rules = claims.rule_set
        checker = IncrementalChecker(argument, rules.rules)
        checker.check()
        target = argument.node("Sn5")
        replacement = f"sat: {unique_atom('edit')}"
        argument.replace_node(target.with_metadata({
            OBLIGATION_KEY: (replacement,),
        }))
        proofs_before, hits_before = obligation_counters()
        violations = checker.check()
        proofs_after, hits_after = obligation_counters()
        assert violations == []
        assert proofs_after - proofs_before == 1, (
            "an edit to one claim re-proved more than its own obligation"
        )
        assert hits_after == hits_before, (
            "untouched claims were consulted at all"
        )
        fresh = repro.check(argument, rules, mode="serial")
        assert tuple(violations) == tuple(fresh)

    def test_facade_edit_costs_one_proof(self):
        argument, claims = proof_module(8)
        rules = claims.rule_set
        repro.check(argument, rules, mode="incremental")
        target = argument.node("Sn3")
        argument.replace_node(target.with_metadata({
            OBLIGATION_KEY: (f"sat: {unique_atom('facade')}",),
        }))
        proofs_before, hits_before = obligation_counters()
        report = repro.check(argument, rules, mode="incremental")
        proofs_after, hits_after = obligation_counters()
        assert report.well_formed
        assert proofs_after - proofs_before == 1
        # The facade additionally *reports* every live obligation's
        # outcome — pure cache reads, one per binding, never proofs.
        assert hits_after - hits_before == len(report.obligations) == 8

    def test_store_backed_single_edit(self, tmp_path):
        argument, claims = proof_module(6)
        rules = claims.rule_set
        store_dir = tmp_path / "proof.store"
        argument.save(store_dir)
        handle = StoredArgument(store_dir)
        repro.check(handle, rules, mode="incremental")
        target = argument.node("Sn2")
        argument.replace_node(target.with_metadata({
            OBLIGATION_KEY: (f"sat: {unique_atom('journal')}",),
        }))
        argument.save(store_dir, journal=True)
        proofs_before, hits_before = obligation_counters()
        report = repro.check(handle, rules, mode="incremental")
        proofs_after, hits_after = obligation_counters()
        assert report.well_formed
        assert proofs_after - proofs_before == 1
        assert hits_after == hits_before
        assert not handle.hydrated

    def test_text_edit_walks_no_roots_or_cycles(self, tmp_path, monkeypatch):
        # ``require acyclic`` and ``require single_root`` take the GSN
        # rules' incremental hooks: an edit that can move neither the
        # root list nor a support cycle walks no node list.
        from repro.core.analysis import _Sidecar

        argument = exemplar_argument()
        rules = exemplar_claims().rule_set.rules
        assert {"no-cycles", "one-root"} <= {rule.name for rule in rules}
        store_dir = tmp_path / "walks.store"
        argument.save(store_dir)
        checker = IncrementalChecker(StoredArgument(store_dir), rules)
        assert checker.check() == []
        calls: "list[str]" = []
        for name in ("roots", "find_cycle"):
            def counting(self, _real=getattr(_Sidecar, name), _name=name):
                calls.append(_name)
                return _real(self)

            monkeypatch.setattr(_Sidecar, name, counting)
        context = argument.node("C1")
        argument.replace_node(context.with_text("Operating on wet roads"))
        argument.save(store_dir, journal=True)
        assert checker.check() == []
        assert calls == []
        # A second root claim moves the root list: the hook declines,
        # and the compiled wording is the full rule's.
        argument.add_node(Node("G9", NodeType.GOAL, "A braking claim alone"))
        argument.save(store_dir, journal=True)
        found = checker.check()
        assert "roots" in calls
        assert [v.detail for v in found if v.rule == "one-root"] == [
            "argument has 2 root claims (G1, G9)"
        ]
        assert found == list(repro.check(
            StoredArgument(store_dir), rules, mode="streaming"
        ))


# -- the facade and the shims -------------------------------------------------


class TestCheckFacade:
    def test_report_is_list_like(self):
        argument, claims = broken_kernel()
        report = repro.check(argument, claims)
        assert isinstance(report, CheckReport)
        assert len(report) == 2 and report
        assert report[0].rule == OBLIGATION_RULE_NAME
        assert list(report) == list(report.violations)
        assert report.violations[1] in report
        assert not report.well_formed
        assert {o.spec for o in report.failed} <= \
            {o.spec for o in report.obligations}

    def test_compiled_claims_as_rules_reports_outcomes(self):
        report = repro.check(exemplar_argument(), exemplar_claims())
        assert {o.evidence for o in report.obligations} == \
            {"Sn1", "Sn2", "Sn3"}
        assert all(o.discharged for o in report.obligations)

    def test_mode_validation_and_resolution(self):
        argument = exemplar_argument()
        with pytest.raises(ValueError):
            repro.check(argument, mode="psychic")
        assert repro.check(argument, mode="auto").mode == "serial"
        assert repro.check(
            argument, mode="parallel", workers=1
        ).mode == "serial"  # one worker degrades, and the report says so
        assert CHECK_MODES[-1] == "incremental"
        assert "full" not in CHECK_MODES
        with pytest.raises(ValueError, match="unknown analysis mode"):
            repro.check(argument, mode="full")

    def test_stored_auto_resolves_to_streaming(self, tmp_path):
        argument = exemplar_argument()
        store_dir = tmp_path / "auto.store"
        argument.save(store_dir)
        stored = StoredArgument(store_dir)
        report = repro.check(stored, GSN_OBLIGATION_RULES, mode="auto")
        assert report.mode == "streaming"
        assert report.well_formed
        assert not stored.hydrated

    def test_incremental_registry_is_bounded(self):
        for _ in range(_MAX_INCREMENTAL_SUBJECTS + 4):
            argument = exemplar_argument()
            repro.check(argument, mode="incremental")
        assert len(_CHECKERS) <= _MAX_INCREMENTAL_SUBJECTS

    def test_legacy_entrypoints_are_gone(self):
        import repro.core.wellformed as wellformed

        for name in ("Rule", "check", "is_well_formed"):
            assert not hasattr(wellformed, name), name
        for name in ("check", "is_well_formed", "incremental"):
            assert not hasattr(repro.RuleSet, name), name
        assert not hasattr(IncrementalChecker, "from_store")

    def test_top_level_all_is_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name


# -- large obligations decide in linear space ---------------------------------


def dnf(pairs: int, left: str = "a", right: str = "b") -> str:
    """``(a0 & b0) | ... | (aN & bN)``: its distributed CNF has 2**pairs
    clauses."""
    return " | ".join(f"({left}{i} & {right}{i})" for i in range(pairs))


#: Discharges each spec read from stdin and prints its detail and time.
#: A child process, so that a prover that blows up is killed at the
#: timeout instead of stalling, and filling, the test process.
_TIMED_DISCHARGE = """
import json, sys, time
from repro.claims.obligations import discharge, parse_obligation
for spec in json.load(sys.stdin):
    start = time.perf_counter()
    detail = discharge(parse_obligation(spec))
    print(json.dumps([detail, time.perf_counter() - start]), flush=True)
"""


def child_env() -> "dict[str, str]":
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return env


def read_banner(server: subprocess.Popen, timeout: float) -> str:
    """The child's first stdout line, failing after ``timeout`` seconds.

    A daemon thread reads it and then drains the rest of the pipe, so
    the child never blocks on a full pipe.
    """
    lines: "queue.Queue[str]" = queue.Queue()

    def read() -> None:
        lines.put(server.stdout.readline())
        for _ in server.stdout:
            pass

    threading.Thread(target=read, daemon=True).start()
    try:
        return lines.get(timeout=timeout)
    except queue.Empty:
        pytest.fail(f"service printed no banner within {timeout} s")


@pytest.mark.service
class TestLargeObligations:
    """A 40-atom DNF spec distributes into 2**20 clauses; deciding it
    that way took more than 30 s, and stalled any check that met it."""

    PAIRS = 20
    SPECS = {
        f"sat: {dnf(PAIRS)}": None,
        f"valid: {dnf(PAIRS)}": "formula is not valid",
        f"entails: {dnf(PAIRS)} |- {dnf(PAIRS, 'b', 'a')}": None,
        f"sat: ({dnf(PAIRS)}) & ~({dnf(PAIRS, 'b', 'a')})":
            "formula is unsatisfiable",
    }

    def test_each_discharges_within_a_second(self):
        specs = list(self.SPECS)
        done = subprocess.run(
            [sys.executable, "-c", _TIMED_DISCHARGE],
            input=json.dumps(specs), capture_output=True, text=True,
            env=child_env(), timeout=30,
        )
        assert done.returncode == 0, done.stderr
        results = [json.loads(line) for line in done.stdout.splitlines()]
        assert len(results) == len(specs)
        for spec, (detail, seconds) in zip(specs, results):
            assert detail == self.SPECS[spec], spec
            assert seconds < 1.0, (spec, seconds)

    def test_served_check_reports_the_verdict_promptly(self, tmp_path):
        argument = Argument("large-obligation")
        argument.add_node(Node("G1", NodeType.GOAL, "The system is safe"))
        argument.add_node(Node("Sn1", NodeType.SOLUTION, "Hazard log"))
        argument.add_link("G1", "Sn1", LinkKind.SUPPORTED_BY)
        argument.save(tmp_path / "large.store")
        spec = f"sat: ({dnf(self.PAIRS)}) & ~({dnf(self.PAIRS, 'b', 'a')})"
        seq = argument.mutation_seq
        argument.add_node(Node(
            "Sn2", NodeType.SOLUTION, "Interlock analysis",
            metadata=((OBLIGATION_KEY, (spec,)),),
        ))
        argument.add_link("G1", "Sn2", LinkKind.SUPPORTED_BY)
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.service", str(tmp_path),
             "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=child_env(),
        )
        try:
            banner = read_banner(server, timeout=10.0)
            host, port = banner.rsplit("http://", 1)[1].strip().split(":")
            client = ServiceClient(host, int(port), timeout=10.0)
            try:
                client.append("large.store", argument.delta_since(seq))
                start = time.perf_counter()
                reply = client.check("large.store")
                seconds = time.perf_counter() - start
            finally:
                client.close()
        finally:
            server.kill()
            server.wait()
        assert [
            (v["rule"], v["subject"], v["detail"])
            for v in reply["violations"]
        ] == [(OBLIGATION_RULE_NAME, "Sn2",
               f"{spec}: formula is unsatisfiable")]
        assert reply["obligations"]["failed"] == 1
        assert seconds < 5.0
