"""Indexed case search vs substring scan across a library of stores.

The paper's survey respondents keep *libraries* of assurance cases —
the situation where "which case argued about X?" stops being a grep
and starts being a query workload.  This bench generates a corpus of
thousands of small stored cases (a share of them journal-edited after
the indexed save, so the patched-sidecar path is part of what is
measured), then answers the same ``text_contains`` questions — one of
them conjoined with ``node_type_is``, a typed query the text-only
sidecar narrows through its text side — two ways:

* **indexed** — a warm :class:`repro.store.CaseCorpus` whose handles
  resolve candidates from the persisted token/trigram sidecar
  (``repro.store.search``), the path a long-lived review service takes;
* **scan** — a fresh :class:`StoredArgument` per store per query,
  streaming every node and substring-testing its text: the workflow an
  unindexed library forces on every invocation.

Both sides must return identical ``(store, node)`` sets before a
number is recorded; the full matrix additionally asserts the indexed
side is at least 10x faster overall.

It then times **ranked** :func:`repro.core.search.search` over the
same library two ways: the warm indexed ``CaseCorpus``, which scores
from the sidecar's token postings and repeat counts and reads only
the hits it renders, and a warm ``CaseCorpus`` over unindexed copies
of the same stores, which scans every store per query.  Both must
return identical hit lists before a ranked row is recorded.

Rows append to ``BENCH_trajectory.json`` as ``kind: "search"``
through the results pipeline (``results.py``) and render into
``BENCH_trajectory.md`` next to the saturation matrix.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_search.py           # full
    PYTHONPATH=src python benchmarks/bench_search.py --smoke   # tiny, CI
    PYTHONPATH=src python benchmarks/bench_search.py --label pr9
"""

from __future__ import annotations

import argparse
import os
import platform
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from bench_graph_scale import timed
from results import DEFAULT_OUT, DEFAULT_REPORT, _stats, append_run, \
    render_report

from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.core.query import Query, node_type_is, select, text_contains
from repro.core.search import search
from repro.store import CaseCorpus, StoredArgument

FULL_STORES = 2000
SMOKE_STORES = 60
JOURNAL_EVERY = 7  # every 7th store gets a post-save journaled edit

# Hazard-analysis vocabulary the generated claims draw from.  The
# planted terms below are injected at known rates so each query has a
# predictable selectivity.
_VOCABULARY = (
    "system hazard mitigation verification evidence inspection test "
    "analysis operator failure tolerable residual risk barrier control "
    "braking turbine coolant sensor redundancy watchdog interlock "
    "procedure audit commissioning maintenance specification review"
).split()

# (needle, case_sensitive, plant_every, node_type) — plant_every is the
# store stride the term is injected at (None: another row plants it);
# node_type, when set, conjoins ``node_type_is`` with the text query.
_QUERIES: "tuple[tuple[str, bool, int | None, NodeType | None], ...]" = (
    ("porosity", False, 97, None),       # rare token
    ("actuator", False, 11, None),       # medium-frequency token
    ("relief valve", False, 29, None),   # substring across a token boundary
    ("ELIEF VALV", False, 29, None),     # folded, non-token-aligned trigrams
    ("Overpressure", True, 43, None),    # case-sensitive: grams + predicate
    # Typed: drops the journaled "actuator recall" context amendments.
    ("actuator", False, None, NodeType.SOLUTION),
)


# Ranked queries: a rare token, common tokens every store matches
# (where only the top hits are rendered), and a needle that matches
# no whole token, so it ranks by verified substring candidates.
_RANKED = (
    "porosity",
    "weld inspection report",
    "hazard mitigated by verification",
    "overpress",
)
RANKED_LIMIT = 10


def _query(needle: str, case_sensitive: bool,
           node_type: "NodeType | None") -> Query:
    query = text_contains(needle, case_sensitive)
    return query if node_type is None else query & node_type_is(node_type)


def _case_spec(index: int, rng: random.Random,
               hazards: int) -> "tuple[list[Any], list[Any]]":
    """One small GSN case with planted query terms at known strides."""

    def prose(words: int) -> str:
        return " ".join(rng.choice(_VOCABULARY) for _ in range(words))

    nodes: "list[Any]" = [
        ("G0", NodeType.GOAL,
         f"Case {index}: the {prose(2)} is acceptably safe"),
        ("S0", NodeType.STRATEGY,
         f"Argue over each identified {prose(1)} hazard"),
    ]
    links: "list[Any]" = [
        ("G0", "S0", LinkKind.SUPPORTED_BY),
    ]
    for h in range(hazards):
        goal, solution, context = f"G{h + 1}", f"Sn{h + 1}", f"C{h + 1}"
        nodes += [
            (goal, NodeType.GOAL,
             f"Hazard {h} of case {index} is mitigated by {prose(4)}"),
            (solution, NodeType.SOLUTION,
             f"Report {index}-{h}: {prose(5)}"),
            (context, NodeType.CONTEXT,
             f"Operating context {prose(3)}"),
        ]
        links += [
            ("S0", goal, LinkKind.SUPPORTED_BY),
            (goal, solution, LinkKind.SUPPORTED_BY),
            (goal, context, LinkKind.IN_CONTEXT_OF),
        ]
    # Plant each query's term at its stride so selectivity is known.
    planted = []
    for needle, sensitive, stride, _ in _QUERIES:
        if stride is not None and index % stride == 0:
            term = needle if sensitive else needle.lower()
            planted.append(term)
    if planted:
        nodes.append((
            "Sn_planted", NodeType.SOLUTION,
            f"Weld inspection found {', '.join(planted)} within limits",
        ))
        links.append(("G1", "Sn_planted", LinkKind.SUPPORTED_BY))
    return nodes, links


def build_corpus(root: Path, stores: int, hazards: int,
                 rng: random.Random,
                 unindexed: "Path | None" = None) -> int:
    """Generate ``stores`` indexed case stores; returns total nodes.

    Every ``JOURNAL_EVERY``-th store is edited *after* the indexed save
    via ``save(journal=True)``, so its sidecar is stale-by-watermark
    and readers exercise the O(delta) patch path, not just clean loads.
    With ``unindexed``, each final case is also saved there, under the
    same name and without a sidecar.
    """
    total = 0
    for index in range(stores):
        nodes, links = _case_spec(index, rng, hazards)
        argument = Argument(f"case-{index}")
        argument.add_nodes(
            Node(identifier, node_type, text)
            for identifier, node_type, text in nodes
        )
        argument.add_links(links)
        directory = root / f"case-{index:05d}"
        argument.save(directory, shard_count=1, search_index=True)
        if index % JOURNAL_EVERY == 0:
            argument.add_node(Node(
                "C_amend", NodeType.CONTEXT,
                f"Amendment {index}: revisit after the actuator recall",
            ))
            argument.add_link("G0", "C_amend", LinkKind.IN_CONTEXT_OF)
            argument.save(directory, journal=True)
            total += 1
        if unindexed is not None:
            argument.save(unindexed / directory.name, shard_count=1)
        total += len(nodes)
    return total


def indexed_pass(corpus: CaseCorpus,
                 query: Query) -> "set[tuple[str, str]]":
    """Resolve one query over warm handles via the sidecar postings."""
    return {
        (name, node.identifier)
        for name, handle in corpus.search_sources()
        for node in select(handle, query)
    }


def scan_pass(root: Path, names: "list[str]", needle: str,
              case_sensitive: bool,
              node_type: "NodeType | None") -> "set[tuple[str, str]]":
    """Brute-force baseline: fresh handle, stream and substring-test
    (and type-test, for a typed query).

    Opening a new :class:`StoredArgument` per store is the honest
    unindexed workload — without a persisted index every invocation
    pays the full parse, exactly like a shell grep over the library.
    """
    lowered = needle.lower()
    hits: "set[tuple[str, str]]" = set()
    for name in names:
        handle = StoredArgument(root / name)
        for node in handle.iter_nodes():
            if node_type is not None and node.node_type is not node_type:
                continue
            text = node.text if case_sensitive else node.text.lower()
            if (needle if case_sensitive else lowered) in text:
                hits.add((name, node.identifier))
    return hits


def ranked_rows(indexed: CaseCorpus, scan: CaseCorpus,
                repeats: int) -> "list[dict[str, Any]]":
    """Time ranked search on both corpora; hits must be identical."""
    rows: "list[dict[str, Any]]" = []
    for text in _RANKED:
        indexed_samples: "list[float]" = []
        scan_samples: "list[float]" = []
        expected: "list[Any] | None" = None
        for _ in range(repeats):
            seconds, hits = timed(
                lambda: search(indexed, text, limit=RANKED_LIMIT)
            )
            indexed_samples.append(seconds)
            seconds, scanned = timed(
                lambda: search(scan, text, limit=RANKED_LIMIT)
            )
            scan_samples.append(seconds)
            assert hits == scanned, (
                f"indexed ranking != scan ranking for {text!r}"
            )
            if expected is None:
                expected = hits
            assert hits == expected, "unstable ranking"
        assert expected, f"ranked query {text!r} found nothing"
        indexed_stats = _stats(indexed_samples)
        scan_stats = _stats(scan_samples)
        row = {
            "q": text,
            "limit": RANKED_LIMIT,
            "hits": len(expected),
            "indexed_s": indexed_stats,
            "scan_s": scan_stats,
            "speedup_min": round(
                scan_stats["min_s"] / indexed_stats["min_s"], 1
            ),
            "speedup_median": round(
                scan_stats["median_s"] / indexed_stats["median_s"], 1
            ),
            "matched": True,
        }
        rows.append(row)
        print(
            f"  ranked {text!r:>36}: scan "
            f"{scan_stats['min_s'] * 1e3:.1f} ms, indexed "
            f"{indexed_stats['min_s'] * 1e3:.2f} ms "
            f"({row['speedup_min']:.1f}x)"
        )
    return rows


def run_search(options: argparse.Namespace) -> "dict[str, Any]":
    stores = options.stores or (
        SMOKE_STORES if options.smoke else FULL_STORES
    )
    repeats = options.repeats or (2 if options.smoke else 3)
    hazards = 2 if options.smoke else 6
    rng = random.Random(20150608)
    scratch = Path(tempfile.mkdtemp(prefix="bench-search-"))
    try:
        print(f"generating {stores} indexed stores (+ unindexed copies)...")
        library = scratch / "indexed"
        copies = scratch / "unindexed"
        library.mkdir()
        copies.mkdir()
        seconds, total_nodes = timed(
            lambda: build_corpus(library, stores, hazards, rng, copies)
        )
        print(f"  {total_nodes} nodes in {seconds:.1f}s")
        corpus = CaseCorpus(library)
        names = corpus.store_names()
        assert len(names) == stores
        # Warm-up: first indexed pass loads every sidecar (and patches
        # journaled ones to their watermark) — that is per-handle
        # setup, not per-query cost, so it stays outside the timings.
        for needle, case_sensitive, _, node_type in _QUERIES:
            indexed_pass(corpus, _query(needle, case_sensitive, node_type))

        rows: "list[dict[str, Any]]" = []
        scan_total = 0.0
        indexed_total = 0.0
        for needle, case_sensitive, _, node_type in _QUERIES:
            query = _query(needle, case_sensitive, node_type)
            label = needle if node_type is None else (
                f"{needle} & type == {node_type.value}"
            )
            indexed_samples: "list[float]" = []
            scan_samples: "list[float]" = []
            expected: "set[tuple[str, str]] | None" = None
            for _ in range(repeats):
                seconds, indexed = timed(
                    lambda: indexed_pass(corpus, query)
                )
                indexed_samples.append(seconds)
                seconds, scanned = timed(
                    lambda: scan_pass(
                        library, names, needle, case_sensitive, node_type
                    )
                )
                scan_samples.append(seconds)
                assert indexed == scanned, (
                    f"indexed != scan for {label!r}: "
                    f"{sorted(indexed ^ scanned)[:5]}"
                )
                if expected is None:
                    expected = indexed
                assert indexed == expected, "unstable result set"
            indexed_stats = _stats(indexed_samples)
            scan_stats = _stats(scan_samples)
            scan_total += scan_stats["min_s"]
            indexed_total += indexed_stats["min_s"]
            row = {
                "q": label,
                "case_sensitive": case_sensitive,
                "node_type": None if node_type is None else node_type.value,
                "hits": len(expected or set()),
                "indexed_s": indexed_stats,
                "scan_s": scan_stats,
                "speedup_min": round(
                    scan_stats["min_s"] / indexed_stats["min_s"], 1
                ),
                "speedup_median": round(
                    scan_stats["median_s"] / indexed_stats["median_s"],
                    1,
                ),
                "equivalent": True,
            }
            rows.append(row)
            print(
                f"  {label!r:>16}: {row['hits']} hits, scan "
                f"{scan_stats['min_s'] * 1e3:.1f} ms, indexed "
                f"{indexed_stats['min_s'] * 1e3:.2f} ms "
                f"({row['speedup_min']:.1f}x)"
            )
        overall = round(scan_total / indexed_total, 1)
        if not options.smoke:
            assert overall >= 10.0, (
                f"indexed search is only {overall:.1f}x faster than the "
                "substring scan; the sidecar is not paying its way"
            )
        scan_corpus = CaseCorpus(copies)
        # Warm-up, as above: the first ranked pass loads the sidecars
        # and opens every handle on both sides.
        for text in _RANKED:
            search(corpus, text, limit=RANKED_LIMIT)
            search(scan_corpus, text, limit=RANKED_LIMIT)
        ranked = ranked_rows(corpus, scan_corpus, repeats)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "kind": "search",
        "label": options.label,
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "smoke": bool(options.smoke),
        "repeats": repeats,
        "stores": stores,
        "total_nodes": total_nodes,
        "journaled_stores": len(range(0, stores, JOURNAL_EVERY)),
        "queries": rows,
        "speedup_overall_min": overall,
        "ranked": ranked,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny corpus for CI (no 10x floor asserted)",
    )
    parser.add_argument(
        "--label", default="dev",
        help="run label recorded in the trajectory (e.g. pr9)",
    )
    parser.add_argument(
        "--stores", type=int, default=None,
        help="override the number of generated case stores",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per query per side",
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

    print(
        f"search matrix: label={options.label} smoke={options.smoke}"
    )
    run = run_search(options)
    trajectory = append_run(options.out, run)
    options.report.write_text(
        render_report(trajectory), encoding="utf-8"
    )
    print(
        f"recorded run {len(trajectory['runs'])} -> {options.out}\n"
        f"report -> {options.report}\n"
        f"overall: {run['speedup_overall_min']:.1f}x over "
        f"{run['stores']} stores / {run['total_nodes']} nodes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
