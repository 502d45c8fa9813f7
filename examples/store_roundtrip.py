#!/usr/bin/env python3
"""Persistence: save a case, reload it partially, query it on disk.

Tool-generated assurance cases (Resolute from architecture models,
Isabelle/SACM next to proofs) reach sizes where the case must outlive
the process that built it.  This example shows the persistent sharded
store (:mod:`repro.store`) end to end:

1. generate a fan-shaped case (one root claim over many hazards),
2. ``save()`` it — nodes/links stream into id-hash JSONL shards with a
   checksummed manifest,
3. partially load one hazard's sub-argument — only the shards the
   reachable region touches are hydrated,
4. query the store *without* loading it (``select`` streams the shards),
5. fully reload and confirm statistics and well-formedness survived.

Run: ``python examples/store_roundtrip.py``
"""

import tempfile
from pathlib import Path

from repro import check
from repro.core import (
    ArgumentBuilder,
    AssuranceCase,
    EvidenceItem,
    EvidenceKind,
)
from repro.core.argument import Argument
from repro.core.query import select, text_contains
from repro.store import StoredArgument


def build_case() -> AssuranceCase:
    builder = ArgumentBuilder("plant-shutdown")
    top = builder.goal("The shutdown system is acceptably safe")
    strategy = builder.strategy(
        "Argument over each identified hazard", under=top
    )
    solutions = []
    for index in range(1, 41):
        hazard = builder.goal(
            f"Hazard H{index} is acceptably managed", under=strategy
        )
        solutions.append(
            builder.solution(f"Mitigation record MR-{index}", under=hazard)
        )
    case = AssuranceCase("plant-case", builder.build())
    for index, solution in enumerate(solutions, start=1):
        case.add_evidence(
            EvidenceItem(
                f"fta-{index}", EvidenceKind.FAULT_TREE_ANALYSIS,
                f"fault tree for hazard H{index}", coverage=0.9,
            ),
            cited_by=solution,
        )
    return case


def main() -> None:
    case = build_case()
    store_dir = Path(tempfile.mkdtemp(prefix="store-example-")) / "plant.store"

    # 2. Save: streamed, sharded, checksummed.
    manifest = case.save(store_dir)
    files = sorted(path.name for path in store_dir.iterdir())
    print(f"saved {manifest['node_count']} nodes / "
          f"{manifest['link_count']} links into {len(files)} files "
          f"({manifest['shard_count']} shards per record kind)")
    print("  " + ", ".join(files[:4]) + ", ...")

    # 3. Partial load: one hazard's subtree, lazily.  (The id scan
    # streams every node shard, so use a fresh handle for the subtree —
    # shards_read then shows what the partial load alone touched.)
    hazard_id = next(
        node.identifier
        for node in StoredArgument(store_dir).iter_nodes()
        if "Hazard H7 " in node.text
    )
    stored = StoredArgument(store_dir)
    fragment = stored.subtree(hazard_id)
    total_shards = len(manifest["shards"])
    print(f"subtree({hazard_id!r}): {len(fragment)} nodes hydrated from "
          f"{len(stored.shards_read)} of {total_shards} shards")

    # 4. Query the store directly — no full hydration.
    fresh = StoredArgument(store_dir)
    matches = select(fresh, text_contains("hazard h3"))
    print(f"select over the store found {len(matches)} node(s), e.g. "
          f"{matches[0].text!r}")

    # 5. Full reload: everything survives the trip.
    reloaded = Argument.load(store_dir)
    assert reloaded == case.argument
    assert reloaded.statistics() == case.argument.statistics()
    assert check(reloaded).violations == check(case.argument).violations
    print("full reload: statistics and well-formedness identical;",
          f"depth {reloaded.depth()}, {len(reloaded)} nodes")

    case_again = AssuranceCase.load(store_dir)
    print(f"case reload: {case_again.name!r} with "
          f"{len(case_again.argument)} nodes, integrity "
          f"{'OK' if case_again.integrity_report().ok else 'violations'}")


if __name__ == "__main__":
    main()
