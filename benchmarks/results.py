"""Results pipeline: the saturation matrix and its recorded trajectory.

The paper's discipline — assurance claims need maintained, comparable
evidence — applies to this repo's own performance claims.  This runner
executes the **saturation matrix** (worker count x shard skew x store
size) for the well-formedness engine's stored-argument modes, checks
that every mode agrees with the serial oracle, and lands the numbers in
one diffable artifact pair:

* ``BENCH_trajectory.json`` — machine-readable run rows, appended (never
  rewritten), so every PR's perf claim stays comparable with every
  earlier one;
* ``BENCH_trajectory.md`` — a rendered report of the latest run plus a
  trajectory table comparing each matrix cell against all prior
  recorded runs.

Matrix axes:

* **store size** — total nodes in the generated GSN case;
* **shard skew** — ``uniform`` (natural ``G{i}``/``Sn{i}`` identifiers,
  which crc32-balance across shards) or ``skewed`` (half of all hazard
  pairs re-identified by mining ids that hash into shard 0, the
  workload that idled workers under the old round-robin shard deal);
* **workers** — parallel worker counts, always including the forced
  2-worker point so the matrix records real multi-core numbers even on
  small CI boxes.

Each cell stores are journaled (edit rounds appended via
``save(journal=True)``) so the parallel path's pinned-generation replay
is part of what is measured.  Timings are min/median over ``--repeats``
alternating runs; min is the noise-robust figure the trajectory
compares.

Run from the repository root::

    PYTHONPATH=src python benchmarks/results.py            # full matrix
    PYTHONPATH=src python benchmarks/results.py --smoke    # tiny, CI
    PYTHONPATH=src python benchmarks/results.py --label pr8

The CI ``results-pipeline`` job runs ``--smoke`` and uploads both
artifacts; ``tests/test_results_pipeline_smoke.py`` keeps the runner
healthy under tier-1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import zlib
from pathlib import Path
from typing import Any

from bench_graph_scale import build, gsn_case, timed

from repro.checking import check
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.core.wellformed import GSN_STANDARD_RULES
from repro.store import StoredArgument
from repro.store.format import DEFAULT_SHARD_COUNT, shard_of

_REPO = Path(__file__).resolve().parent.parent
DEFAULT_OUT = _REPO / "BENCH_trajectory.json"
DEFAULT_REPORT = _REPO / "BENCH_trajectory.md"

SCHEMA = 1

FULL_SIZES = (10_000, 30_000)
SMOKE_SIZES = (600,)


# -- matrix store generation -----------------------------------------------


def _mine_identifier(prefix: str, counter: int, shard: int,
                     shard_count: int) -> tuple[str, int]:
    """The next ``prefix{n}`` identifier hashing into ``shard``."""
    while True:
        identifier = f"{prefix}{counter}"
        if zlib.crc32(identifier.encode("utf-8")) % shard_count == shard:
            return identifier, counter + 1
        counter += 1


def skewed_spec(n: int, *, skew_every: int = 2,
                shard_count: int = DEFAULT_SHARD_COUNT):
    """``gsn_case(n)`` with every ``skew_every``-th hazard pair mined
    into shard 0 — the fat-shard workload that starved the old static
    round-robin deal."""
    nodes, links = gsn_case(n)
    renames: dict[str, str] = {}
    counter = 10
    hazards = max(1, (n - 2) // 2)
    for index in range(skew_every, hazards + 1, skew_every):
        goal, counter = _mine_identifier("Gsk", counter, 0, shard_count)
        solution, counter = _mine_identifier(
            "Snsk", counter, 0, shard_count
        )
        renames[f"G{index}"] = goal
        renames[f"Sn{index}"] = solution
    nodes = [
        (renames.get(identifier, identifier), node_type, text, metadata)
        for identifier, node_type, text, metadata in nodes
    ]
    links = [
        (renames.get(source, source), renames.get(target, target), kind)
        for source, target, kind in links
    ]
    return nodes, links


def seed_violations(spec):
    """Append a known-violating fragment so mode equivalence is a real
    assertion (an all-clean case lets any mode return ``[]``)."""
    nodes, links = spec
    nodes = nodes + [
        ("G_stray_root", NodeType.GOAL,
         "A second undischarged root claim", ()),
        ("Sn_citing", NodeType.SOLUTION,
         "Evidence that itself cites support", ()),
    ]
    links = links + [
        ("Sn_citing", "G1", LinkKind.SUPPORTED_BY),
    ]
    return nodes, links


def journal_rounds(argument: Argument, store_dir: Path,
                   rounds: int, batch: int = 50) -> None:
    """Append ``rounds`` journaled edit rounds (context fan under the
    root) so checking replays a real journal overlay."""
    for round_index in range(rounds):
        argument.add_nodes(
            Node(f"JR{round_index}_{item}", NodeType.CONTEXT,
                 f"journal round {round_index} context {item}")
            for item in range(batch)
        )
        argument.add_links([
            ("G0", f"JR{round_index}_{item}", LinkKind.IN_CONTEXT_OF)
            for item in range(batch)
        ])
        argument.save(store_dir, journal=True)


def _max_shard_fraction(identifiers: list[str],
                        shard_count: int) -> float:
    counts = [0] * shard_count
    for identifier in identifiers:
        counts[shard_of(identifier, shard_count)] += 1
    total = sum(counts) or 1
    return max(counts) / total


# -- timing ----------------------------------------------------------------


def _stats(samples: list[float]) -> dict[str, float]:
    return {
        "min_s": min(samples),
        "median_s": statistics.median(samples),
    }


def run_cell(nodes: int, skew: str, worker_counts: list[int],
             repeats: int, journal: int, scratch: Path) -> dict[str, Any]:
    """One matrix cell: build, persist + journal, time every mode."""
    spec = seed_violations(
        skewed_spec(nodes) if skew == "skewed" else gsn_case(nodes)
    )
    argument = build(Argument, spec, f"sat-{skew}-{nodes}")
    store_dir = scratch / f"{skew}-{nodes}.store"
    argument.save(store_dir)
    journal_rounds(argument, store_dir, journal)

    rules = GSN_STANDARD_RULES
    serial = check(argument, rules).violations
    streaming_samples: list[float] = []
    parallel_samples: dict[int, list[float]] = {
        workers: [] for workers in worker_counts
    }
    # Alternate modes within each repeat so box noise lands on every
    # mode equally instead of biasing whichever ran last.
    for _ in range(repeats):
        seconds, streamed = timed(
            lambda: check(StoredArgument(store_dir), rules, mode="streaming")
        )
        streaming_samples.append(seconds)
        assert streamed.violations == serial, "streaming diverged from serial"
        for workers in worker_counts:
            seconds, checked = timed(
                lambda w=workers: check(
                    StoredArgument(store_dir), rules,
                    mode="parallel", workers=w,
                )
            )
            parallel_samples[workers].append(seconds)
            assert checked.violations == serial, (
                f"parallel(workers={workers}) diverged from serial"
            )

    streaming = _stats(streaming_samples)
    parallel = {
        str(workers): _stats(samples)
        for workers, samples in parallel_samples.items()
    }
    # workers=1 degrades to the streaming path by design; the recorded
    # speedup must come from a real >= 2-worker pool.
    multi_core = [w for w in parallel_samples if w >= 2] or list(
        parallel_samples
    )
    best_workers = min(
        multi_core,
        key=lambda workers: min(parallel_samples[workers]),
    )
    best = _stats(parallel_samples[best_workers])
    identifiers = [
        identifier for identifier, _, _, _ in spec[0]
    ]
    return {
        "nodes": nodes,
        "skew": skew,
        "journal_rounds": journal,
        "store_node_count": len(spec[0]) + journal * 50,
        "store_link_count": len(spec[1]) + journal * 50,
        "max_shard_fraction": round(
            _max_shard_fraction(identifiers, DEFAULT_SHARD_COUNT), 3
        ),
        "violations": len(serial),
        "streaming_s": streaming,
        "parallel_s": parallel,
        "best_parallel_workers": best_workers,
        "speedup_parallel_vs_streaming_min": round(
            streaming["min_s"] / best["min_s"], 3
        ),
        "speedup_parallel_vs_streaming_median": round(
            streaming["median_s"] / best["median_s"], 3
        ),
        "equivalent": True,
    }


def run_matrix(options: argparse.Namespace) -> dict[str, Any]:
    sizes = options.sizes or (
        SMOKE_SIZES if options.smoke else FULL_SIZES
    )
    cpu = os.cpu_count() or 1
    if options.workers:
        worker_counts = sorted(set(options.workers))
    else:
        worker_counts = sorted({1, 2, cpu} if not options.smoke else {2})
    repeats = options.repeats or (2 if options.smoke else 7)
    journal = 2 if options.smoke else 4
    scratch = Path(tempfile.mkdtemp(prefix="results-matrix-"))
    cells: list[dict[str, Any]] = []
    try:
        for nodes in sizes:
            for skew in ("uniform", "skewed"):
                cell = run_cell(
                    int(nodes), skew, worker_counts, repeats, journal,
                    scratch,
                )
                cells.append(cell)
                print(
                    f"  {skew:>8} n={nodes}: streaming "
                    f"{cell['streaming_s']['min_s'] * 1e3:.0f} ms, best "
                    f"parallel(x{cell['best_parallel_workers']}) "
                    f"{cell['parallel_s'][str(cell['best_parallel_workers'])]['min_s'] * 1e3:.0f}"
                    f" ms ({cell['speedup_parallel_vs_streaming_min']:.2f}x"
                    " by min)"
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        # The matrix spun pools for every worker count; park nothing.
        from repro.core.analysis import shutdown_parallel_pools

        shutdown_parallel_pools()
    return {
        "label": options.label,
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": cpu,
        "start_method_override": os.environ.get("REPRO_MP_START"),
        "smoke": bool(options.smoke),
        "repeats": repeats,
        "workers_tested": worker_counts,
        "cells": cells,
    }


# -- trajectory persistence ------------------------------------------------


def load_trajectory(path: Path) -> dict[str, Any]:
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("schema") != SCHEMA:
            raise SystemExit(
                f"{path} has schema {data.get('schema')!r}; this runner "
                f"writes schema {SCHEMA} — migrate or move the file"
            )
        return data
    return {"schema": SCHEMA, "runs": []}


def append_run(path: Path, run: dict[str, Any]) -> dict[str, Any]:
    trajectory = load_trajectory(path)
    trajectory["runs"].append(run)
    path.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return trajectory


# -- report rendering ------------------------------------------------------


def _cell_key(cell: dict[str, Any]) -> tuple[Any, ...]:
    return (cell["nodes"], cell["skew"])


def run_kind(run: dict[str, Any]) -> str:
    """The benchmark family a recorded run belongs to.

    Rows predate the ``kind`` field (PR 8 wrote saturation rows only),
    so its absence means saturation.
    """
    return str(run.get("kind", "saturation"))


def render_report(trajectory: dict[str, Any]) -> str:
    """Render every benchmark family recorded in the trajectory.

    The JSON file is shared append-only ground truth; each runner
    appends rows of its own ``kind`` and the report renders one section
    per family so saturation and search numbers stay side by side.
    """
    runs = trajectory["runs"]
    sections: list[str] = []
    saturation = [r for r in runs if run_kind(r) == "saturation"]
    if saturation:
        sections.append(_render_saturation(saturation))
    search = [r for r in runs if run_kind(r) == "search"]
    if search:
        sections.append(_render_search(search))
    claims = [r for r in runs if run_kind(r) == "claims"]
    if claims:
        sections.append(_render_claims(claims))
    return "\n\n".join(sections) + "\n" if sections else "\n"


def _render_saturation(runs: "list[dict[str, Any]]") -> str:
    latest = runs[-1]
    lines = [
        "# Saturation trajectory — parallel checking vs streaming",
        "",
        "Generated by `benchmarks/results.py`; data in "
        "`BENCH_trajectory.json`. Speedups compare the best parallel "
        "worker count against single-process streaming on the same "
        "journaled store (min over repeats).",
        "",
        f"## Latest run: `{latest['label']}` ({latest['timestamp']})",
        "",
        f"Python {latest['python']}, {latest['cpu_count']} CPU(s), "
        f"workers tested {latest['workers_tested']}, "
        f"{latest['repeats']} repeats"
        + (", **smoke sizes**" if latest["smoke"] else "")
        + (
            f", start method pinned to "
            f"`{latest['start_method_override']}`"
            if latest.get("start_method_override")
            else ""
        )
        + ".",
        "",
        "| nodes | skew | max shard | streaming min | best parallel "
        "| speedup (min) | speedup (median) |",
        "|---:|:---|---:|---:|---:|---:|---:|",
    ]
    for cell in latest["cells"]:
        best = str(cell["best_parallel_workers"])
        best_stats = cell["parallel_s"][best]
        lines.append(
            f"| {cell['nodes']} | {cell['skew']} "
            f"| {cell['max_shard_fraction']:.0%} "
            f"| {cell['streaming_s']['min_s'] * 1e3:.0f} ms "
            f"| {best_stats['min_s'] * 1e3:.0f} ms (x{best}) "
            f"| **{cell['speedup_parallel_vs_streaming_min']:.2f}x** "
            f"| {cell['speedup_parallel_vs_streaming_median']:.2f}x |"
        )
    lines += [
        "",
        "Every cell asserted parallel == streaming == serial before "
        "recording.",
    ]
    if len(runs) > 1:
        lines += [
            "",
            "## Trajectory (speedup by min, per cell, across runs)",
            "",
            "| run | " + " | ".join(
                f"{key[0]}/{key[1]}"
                for key in map(_cell_key, latest["cells"])
            ) + " |",
            "|:---|" + "---:|" * len(latest["cells"]),
        ]
        for run in runs:
            by_key = {_cell_key(cell): cell for cell in run["cells"]}
            row = [f"`{run['label']}` ({run['timestamp'][:10]})"]
            for key in map(_cell_key, latest["cells"]):
                cell = by_key.get(key)
                row.append(
                    f"{cell['speedup_parallel_vs_streaming_min']:.2f}x"
                    if cell is not None else "—"
                )
            lines.append("| " + " | ".join(row) + " |")
        lines += [
            "",
            "A dash means that run did not execute the cell (different "
            "sizes or smoke mode).",
        ]
    return "\n".join(lines)


def _render_search(runs: "list[dict[str, Any]]") -> str:
    latest = runs[-1]
    lines = [
        "# Search trajectory — persisted index vs substring scan",
        "",
        "Generated by `benchmarks/bench_search.py`; data in "
        "`BENCH_trajectory.json` (`kind: \"search\"` rows). Each query "
        "ran over the full case corpus both ways — warm "
        "`CaseCorpus` resolving candidates from the persisted sidecar "
        "postings, and a fresh-handle streaming substring scan (the "
        "workflow an unindexed library forces) — with the result sets "
        "asserted identical before recording.",
        "",
        f"## Latest run: `{latest['label']}` ({latest['timestamp']})",
        "",
        f"Python {latest['python']}, {latest['cpu_count']} CPU(s), "
        f"{latest['stores']} stores / {latest['total_nodes']} nodes "
        f"({latest['journaled_stores']} journal-patched), "
        f"{latest['repeats']} repeats"
        + (", **smoke sizes**" if latest["smoke"] else "")
        + ".",
        "",
        "| query | hits | scan min | indexed min | speedup (min) "
        "| speedup (median) |",
        "|:---|---:|---:|---:|---:|---:|",
    ]
    for cell in latest["queries"]:
        lines.append(
            f"| `{cell['q']}` | {cell['hits']} "
            f"| {cell['scan_s']['min_s'] * 1e3:.1f} ms "
            f"| {cell['indexed_s']['min_s'] * 1e3:.2f} ms "
            f"| **{cell['speedup_min']:.1f}x** "
            f"| {cell['speedup_median']:.1f}x |"
        )
    lines += [
        "",
        f"Overall speedup (total scan time / total indexed time, min): "
        f"**{latest['speedup_overall_min']:.1f}x**.",
    ]
    ranked = latest.get("ranked")
    if ranked:
        lines += [
            "",
            "### Ranked search",
            "",
            f"Top-{ranked[0]['limit']} `search()` over the same library: "
            "the warm indexed corpus scores from the sidecar's token "
            "postings and repeat counts, the scan side is a warm corpus "
            "of unindexed copies; hit lists asserted identical.",
            "",
            "| query | hits | scan min | indexed min | speedup (min) "
            "| speedup (median) |",
            "|:---|---:|---:|---:|---:|---:|",
        ]
        for cell in ranked:
            lines.append(
                f"| `{cell['q']}` | {cell['hits']} "
                f"| {cell['scan_s']['min_s'] * 1e3:.1f} ms "
                f"| {cell['indexed_s']['min_s'] * 1e3:.2f} ms "
                f"| **{cell['speedup_min']:.1f}x** "
                f"| {cell['speedup_median']:.1f}x |"
            )
    if len(runs) > 1:
        lines += [
            "",
            "## Trajectory (overall speedup by min, across runs)",
            "",
            "| run | stores | nodes | overall speedup |",
            "|:---|---:|---:|---:|",
        ]
        for run in runs:
            lines.append(
                f"| `{run['label']}` ({run['timestamp'][:10]}) "
                f"| {run['stores']} | {run['total_nodes']} "
                f"| {run['speedup_overall_min']:.1f}x |"
            )
    return "\n".join(lines)


def _render_claims(runs: "list[dict[str, Any]]") -> str:
    latest = runs[-1]
    lines = [
        "# Claims trajectory — full re-proof vs incremental re-proof",
        "",
        "Generated by `benchmarks/bench_claims.py`; data in "
        "`BENCH_trajectory.json` (`kind: \"claims\"` rows). Each row "
        "compiles a generated claim module, stamps its evidence "
        "obligations onto a matching argument, and compares a "
        "cold-cache full check (every obligation proved) against a "
        "single-claim edit re-checked through `repro.check(..., "
        "mode=\"incremental\")`. Every timed edit asserted exactly one "
        "new proof and result-equality with a fresh full check.",
        "",
        f"## Latest run: `{latest['label']}` ({latest['timestamp']})",
        "",
        f"Python {latest['python']}, {latest['cpu_count']} CPU(s), "
        f"{latest['repeats']} repeats, {latest['edits']} timed edits"
        + (", **smoke sizes**" if latest["smoke"] else "")
        + ".",
        "",
        "| claims | obligations | compile | full min | warm min "
        "| incr min | store incr min | full/incr (min) |",
        "|---:|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for cell in latest["cells"]:
        lines.append(
            f"| {cell['claims']} | {cell['obligations']} "
            f"| {cell['compile_s'] * 1e3:.0f} ms "
            f"| {cell['full_s']['min_s'] * 1e3:.1f} ms "
            f"| {cell['warm_s']['min_s'] * 1e3:.1f} ms "
            f"| {cell['incremental_s']['min_s'] * 1e3:.2f} ms "
            f"| {cell['store_incremental_s']['min_s'] * 1e3:.2f} ms "
            f"| **{cell['ratio_full_vs_incremental_min']:.1f}x** |"
        )
    if len(runs) > 1:
        lines += [
            "",
            "## Trajectory (full min, and full/incremental by min, "
            "across runs)",
            "",
            "| run | " + " | ".join(
                f"n={cell['claims']}" for cell in latest["cells"]
            ) + " |",
            "|:---|" + "---:|" * len(latest["cells"]),
        ]
        for run in runs:
            by_n = {cell["claims"]: cell for cell in run["cells"]}
            row = [f"`{run['label']}` ({run['timestamp'][:10]})"]
            for cell in latest["cells"]:
                match = by_n.get(cell["claims"])
                row.append(
                    f"{match['full_s']['min_s'] * 1e3:.1f} ms, "
                    f"{match['ratio_full_vs_incremental_min']:.1f}x"
                    if match is not None else "—"
                )
            lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


# -- entry point -----------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny matrix for CI (one small size, 2 workers)",
    )
    parser.add_argument(
        "--label", default="dev",
        help="run label recorded in the trajectory (e.g. pr8)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=None,
        help="override store sizes (total nodes per case)",
    )
    parser.add_argument(
        "--workers", type=int, nargs="*", default=None,
        help="override parallel worker counts to test",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per mode per cell",
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
        f"saturation matrix: label={options.label} "
        f"smoke={options.smoke}"
    )
    run = run_matrix(options)
    trajectory = append_run(options.out, run)
    options.report.write_text(
        render_report(trajectory), encoding="utf-8"
    )
    best = max(
        run["cells"],
        key=lambda cell: cell["speedup_parallel_vs_streaming_min"],
    )
    print(
        f"recorded run {len(trajectory['runs'])} -> {options.out}\n"
        f"report -> {options.report}\n"
        f"best cell: {best['skew']} n={best['nodes']} "
        f"{best['speedup_parallel_vs_streaming_min']:.2f}x (min) with "
        f"{best['best_parallel_workers']} worker(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
