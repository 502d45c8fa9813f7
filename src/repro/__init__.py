"""repro — a reproduction of Graydon, 'Formal Assurance Arguments: A
Solution In Search of a Problem?' (DSN 2015).

The library implements every system the paper reasons about:

* :mod:`repro.core` — the assurance-case model (GSN, CAE via
  :mod:`repro.notation`, Toulmin, evidence, patterns, views, queries);
* :mod:`repro.claims` — the declarative claim language: modules of
  claims, rules, and evidence obligations compiled onto the scoped
  rule engine, with SAT/FOL/LTL proofs discharged at check time;
* :mod:`repro.logic` — the formal substrates (propositional + SAT,
  natural deduction, sequents, resolution, mini-Prolog, multi-sorted FOL,
  LTL, Event Calculus, BBN confidence, syllogisms);
* :mod:`repro.fallacies` — the formal/informal fallacy taxonomy, the
  mechanical formal-fallacy detector, and the fallacy injector;
* :mod:`repro.formalise` — the surveyed formalisation proposals as
  working translators (Rushby, Basir/Denney, Brunel & Cazin, Haley et
  al., Tun et al.);
* :mod:`repro.survey` — the systematic literature survey pipeline that
  regenerates Table I;
* :mod:`repro.experiments` — the five §VI studies on simulated subjects;
* :mod:`repro.store` — the persistent sharded argument store (JSONL
  shards + checksummed manifest, streaming save, lazy/partial load,
  append-journal edits, persisted search sidecar);
* :mod:`repro.service` — the asyncio multi-editor HTTP front end.

This module is the **stable public surface**: build with
:class:`ArgumentBuilder`, check with :func:`check` (one facade over
the serial / streaming / parallel / incremental engines, returning a
:class:`~repro.checking.CheckReport`), persist with
:meth:`Argument.save` + :func:`load_argument` / :func:`load_case`,
query with :func:`select`, rank with :func:`search`, and declare with
:class:`ClaimModule`.  Deep module paths stay importable, but new
code and the examples import from here.

Quickstart::

    import repro

    builder = repro.ArgumentBuilder("demo")
    top = builder.goal("The system is acceptably safe")
    strategy = builder.strategy("Argument over identified hazards",
                                under=top)
    hazard = builder.goal("Hazard H1 is mitigated", under=strategy)
    builder.solution("Fault tree analysis FTA-1", under=hazard)
    argument = builder.build()

    report = repro.check(argument)        # typed CheckReport
    assert report.well_formed

    # ... and the paper's Figure 1:
    program = repro.desert_bank_program()
    assert program.provable("adjacent(desert_bank, river)")   # formally valid
    # ... yet false in the world: 'bank' equivocates.  (§IV.C)
"""

from .checking import CheckReport, ObligationOutcome, check
from .claims import ClaimModule, CompiledClaims, compile_module
from .core import (
    Argument,
    ArgumentBuilder,
    AssuranceCase,
    EvidenceItem,
    EvidenceKind,
    IncrementalChecker,
    LinkKind,
    Node,
    NodeType,
    SafetyCriterion,
    run_rules,
)
from .core.query import select
from .core.search import search
from .core.wellformed import (
    DENNEY_PAI_RULES,
    GSN_STANDARD_RULES,
    RuleSet,
    Violation,
)
from .logic import (
    ProofBuilder,
    check_proof,
    desert_bank_program,
    entails,
    haley_outer_proof,
)
from .paper import ReproductionReport, verify_reproduction
from .store import StoredArgument, load_argument, load_case

__version__ = "1.1.0"

# The documented public API, grouped by workflow.  Everything here is
# covered by the examples and kept stable across PRs; import deeper
# paths only for internals.
__all__ = [
    # model
    "Argument",
    "ArgumentBuilder",
    "AssuranceCase",
    "EvidenceItem",
    "EvidenceKind",
    "LinkKind",
    "Node",
    "NodeType",
    "SafetyCriterion",
    # checking (one facade over every engine)
    "check",
    "CheckReport",
    "ObligationOutcome",
    "RuleSet",
    "Violation",
    "GSN_STANDARD_RULES",
    "DENNEY_PAI_RULES",
    "IncrementalChecker",
    "run_rules",
    # claim language
    "ClaimModule",
    "CompiledClaims",
    "compile_module",
    # persistence
    "StoredArgument",
    "load_argument",
    "load_case",
    # query + search
    "select",
    "search",
    # logic layer highlights
    "ProofBuilder",
    "check_proof",
    "desert_bank_program",
    "entails",
    "haley_outer_proof",
    # paper reproduction
    "ReproductionReport",
    "verify_reproduction",
    "__version__",
]
