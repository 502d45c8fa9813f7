"""Claim-module checking: full re-proof vs selective incremental re-proof.

The claim language (PR 10) binds formal obligations — SAT, validity,
entailment, FOL, LTL problems — to evidence nodes, and the unified
facade's ``mode="incremental"`` promises that editing one claim
re-proves *only that claim's obligations*.  This bench puts a number on
that promise.  For each size it generates a claim module with ``n``
claims, two obligations per evidence node (unique atoms per index, so
every proof is a distinct cache entry), compiles it through the audit
gate, stamps the bindings onto a matching argument, and measures:

* **full** — cold-cache check: every obligation proved from scratch
  (``reset_obligation_cache()`` before each repeat);
* **warm** — same full check with every proof cached (the floor the
  incremental path must also reach for untouched claims);
* **incremental (live)** — one evidence node's obligation spec edited
  per repeat, re-checked through ``repro.check(..., mode=
  "incremental")``; the obligation counters must show **exactly one**
  new proof per edit;
* **incremental (store)** — the same edit loop against a journaled
  store handle through the same ``repro.check(..., mode=
  "incremental")`` call, never hydrating.

Every edited state is re-checked fresh/serial outside the timed region
and asserted equal to the incremental result (edits alternate passing
and failing specs, so the equivalence is over non-empty violation
lists too).  Rows append to ``BENCH_trajectory.json`` as ``kind:
"claims"`` and render into ``BENCH_trajectory.md``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_claims.py           # full
    PYTHONPATH=src python benchmarks/bench_claims.py --smoke   # tiny, CI
    PYTHONPATH=src python benchmarks/bench_claims.py --label pr10
"""

from __future__ import annotations

import argparse
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from bench_graph_scale import timed
from results import DEFAULT_OUT, DEFAULT_REPORT, _stats, append_run, \
    render_report

from repro import check
from repro.claims import (
    OBLIGATION_KEY,
    compile_module,
    obligation_counters,
    parse_module,
    reset_obligation_cache,
)
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.store import StoredArgument

FULL_SIZES = (250, 1000)
SMOKE_SIZES = (40,)
EDITS = 5  # timed single-claim edits per size


def module_source(n: int) -> str:
    """A claim module with ``n`` claims and ``2 * n`` obligations.

    Atom names carry the claim index so every proof is a distinct
    cache entry — no accidental cross-claim hits flatter the numbers.
    """
    lines = [f"module braking-scale-{n}", ""]
    for i in range(1, n + 1):
        lines.append(
            f'claim G{i} "Braking hazard {i} is mitigated" supported'
        )
    lines += [
        "",
        "rule goals-cite-support require supported goal",
        "rule no-cycles          require acyclic",
        "rule one-root           require single_root",
        "",
    ]
    for i in range(1, n + 1):
        lines.append(
            f'evidence Sn{i} sat     "a{i} & (a{i} -> b{i})"'
        )
        lines.append(
            f'evidence Sn{i} entails "a{i} -> b{i} ; a{i} |- b{i}"'
        )
    return "\n".join(lines) + "\n"


def build_argument(n: int) -> Argument:
    """A matching argument: root goal over ``n`` hazard goal/evidence
    pairs."""
    argument = Argument(f"braking-scale-{n}")
    nodes = [
        Node("G0", NodeType.GOAL,
             "The braking system is acceptably safe"),
        Node("S0", NodeType.STRATEGY,
             "Argue over each identified braking hazard"),
    ]
    links = [("G0", "S0", LinkKind.SUPPORTED_BY)]
    for i in range(1, n + 1):
        nodes += [
            Node(f"G{i}", NodeType.GOAL,
                 f"Braking hazard {i} is mitigated"),
            Node(f"Sn{i}", NodeType.SOLUTION,
                 f"Hazard {i} mitigation evidence"),
        ]
        links += [
            ("S0", f"G{i}", LinkKind.SUPPORTED_BY),
            (f"G{i}", f"Sn{i}", LinkKind.SUPPORTED_BY),
        ]
    argument.add_nodes(nodes)
    argument.add_links(links)
    return argument


def edit_spec(edit: int) -> str:
    """The replacement obligation for timed edit ``edit``.

    Alternates passing and failing specs so the incremental-vs-fresh
    equivalence assertion covers non-empty violation lists too.
    """
    if edit % 2 == 0:
        return f"sat: e{edit} | ~e{edit}"       # valid, discharges
    return f"valid: e{edit} -> other{edit}"      # invalid, violates


def run_size(n: int, repeats: int, scratch: Path) -> "dict[str, Any]":
    """One bench row: compile, full/warm/incremental timings."""
    source = module_source(n)
    compile_seconds, claims = timed(
        lambda: compile_module(parse_module(source))
    )
    argument = build_argument(n)
    stamped = claims.apply(argument)
    assert stamped == n, f"expected {n} stamped nodes, got {stamped}"
    obligations = sum(len(specs) for specs in claims.bindings.values())
    assert obligations == 2 * n

    rules = claims.rule_set

    # Full: cold cache, every obligation proved from scratch.
    full_samples: "list[float]" = []
    for _ in range(repeats):
        reset_obligation_cache()
        seconds, report = timed(
            lambda: check(argument, rules, mode="serial")
        )
        full_samples.append(seconds)
        assert report.well_formed, list(report)
        proofs, _ = obligation_counters()
        assert proofs == obligations, (proofs, obligations)

    # Warm: same check, every proof a cache hit.
    warm_samples: "list[float]" = []
    for _ in range(repeats):
        seconds, report = timed(
            lambda: check(argument, rules, mode="serial")
        )
        warm_samples.append(seconds)
        assert report.well_formed

    # Incremental, live argument: one edited claim per repeat must
    # cost exactly one new proof.
    check(argument, rules, mode="incremental")  # prime the checker
    incremental_samples: "list[float]" = []
    for edit in range(EDITS):
        target = argument.node(f"Sn{(edit % n) + 1}")
        argument.replace_node(
            target.with_metadata({OBLIGATION_KEY: (edit_spec(edit),)})
        )
        proofs_before, _ = obligation_counters()
        seconds, report = timed(
            lambda: check(argument, rules, mode="incremental")
        )
        incremental_samples.append(seconds)
        proofs_after, _ = obligation_counters()
        assert proofs_after - proofs_before == 1, (
            f"edit {edit}: {proofs_after - proofs_before} proofs re-run"
        )
        fresh = check(argument, rules, mode="serial")
        assert tuple(report) == tuple(fresh), (
            f"edit {edit}: incremental diverged from fresh full"
        )

    # Incremental, journaled store: the same loop over a store handle.
    store_dir = scratch / f"claims-{n}.store"
    argument.save(store_dir)
    handle = StoredArgument(store_dir)
    check(handle, rules, mode="incremental")  # prime (full streaming)
    store_samples: "list[float]" = []
    for edit in range(EDITS, 2 * EDITS):
        target = argument.node(f"Sn{(edit % n) + 1}")
        argument.replace_node(
            target.with_metadata({OBLIGATION_KEY: (edit_spec(edit),)})
        )
        argument.save(store_dir, journal=True)
        proofs_before, _ = obligation_counters()
        seconds, report = timed(
            lambda: check(handle, rules, mode="incremental")
        )
        store_samples.append(seconds)
        proofs_after, _ = obligation_counters()
        assert proofs_after - proofs_before == 1, (
            f"store edit {edit}: "
            f"{proofs_after - proofs_before} proofs re-run"
        )
        assert not handle.hydrated, "store-backed re-check hydrated"
        fresh = check(argument, rules, mode="serial")
        assert tuple(report) == tuple(fresh), (
            f"store edit {edit}: incremental diverged from fresh full"
        )

    full = _stats(full_samples)
    warm = _stats(warm_samples)
    incremental = _stats(incremental_samples)
    store = _stats(store_samples)
    return {
        "claims": n,
        "obligations": obligations,
        "compile_s": round(compile_seconds, 4),
        "full_s": full,
        "warm_s": warm,
        "incremental_s": incremental,
        "store_incremental_s": store,
        "proofs_per_edit": 1,
        "ratio_full_vs_incremental_min": round(
            full["min_s"] / incremental["min_s"], 1
        ),
        "ratio_full_vs_incremental_median": round(
            full["median_s"] / incremental["median_s"], 1
        ),
        "equivalent": True,
    }


def run_bench(options: argparse.Namespace) -> "dict[str, Any]":
    sizes = options.sizes or (
        SMOKE_SIZES if options.smoke else FULL_SIZES
    )
    repeats = options.repeats or (2 if options.smoke else 5)
    scratch = Path(tempfile.mkdtemp(prefix="bench-claims-"))
    rows: "list[dict[str, Any]]" = []
    try:
        for n in sizes:
            row = run_size(int(n), repeats, scratch)
            rows.append(row)
            print(
                f"  n={n}: {row['obligations']} obligations, full "
                f"{row['full_s']['min_s'] * 1e3:.1f} ms, incremental "
                f"{row['incremental_s']['min_s'] * 1e3:.2f} ms "
                f"({row['ratio_full_vs_incremental_min']:.1f}x), store "
                f"{row['store_incremental_s']['min_s'] * 1e3:.2f} ms"
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        reset_obligation_cache()
    return {
        "kind": "claims",
        "label": options.label,
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "smoke": bool(options.smoke),
        "repeats": repeats,
        "edits": EDITS,
        "cells": rows,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny module for CI",
    )
    parser.add_argument(
        "--label", default="dev",
        help="run label recorded in the trajectory (e.g. pr10)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=None,
        help="override claim counts per module",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats for the full/warm checks",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"trajectory JSON to append to (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--report", type=Path, default=DEFAULT_REPORT,
        help=f"markdown report to render (default {DEFAULT_REPORT})",
    )
    options = parser.parse_args(argv)

    print(f"claims bench: label={options.label} smoke={options.smoke}")
    run = run_bench(options)
    trajectory = append_run(options.out, run)
    options.report.write_text(
        render_report(trajectory), encoding="utf-8"
    )
    best = max(
        run["cells"],
        key=lambda cell: cell["ratio_full_vs_incremental_min"],
    )
    print(
        f"recorded run {len(trajectory['runs'])} -> {options.out}\n"
        f"report -> {options.report}\n"
        f"best: n={best['claims']} "
        f"{best['ratio_full_vs_incremental_min']:.1f}x full vs "
        "incremental (min)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
