#!/usr/bin/env python3
"""An editing session over a persisted case, paid for in O(delta).

The paper's core worry is that a formalised assurance case costs more to
*maintain* than the assurance it buys.  This example shows the append
journal making maintenance cheap: a saved case absorbs a whole editing
session as tiny journal appends (no shard is ever rewritten), the
persisted deltas re-check the case incrementally without loading it, and
one ``compact()`` folds the journal back into clean shards.

1. build and ``save()`` a case, then check the stored handle with
   ``repro.check(stored, mode="incremental")``, which keeps a
   store-backed incremental checker alive (it never hydrates),
2. run edit rounds: mutate the live argument, ``save(journal=True)``
   appends just the mutation delta as a sealed journal segment,
3. after each round the same call consumes the persisted delta and
   re-checks the stored case — ``hydrated`` stays ``False`` throughout,
4. ``compact()`` folds the journal into fresh shards, byte-identical to
   a clean save of the same argument, and ``gc()`` confirms nothing is
   left to sweep.

Run: ``python examples/journal_editing.py``
"""

import tempfile
from pathlib import Path

from repro import check
from repro.core import ArgumentBuilder
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.store import StoredArgument


def build_argument() -> Argument:
    builder = ArgumentBuilder("braking-system")
    top = builder.goal("The braking system is acceptably safe")
    strategy = builder.strategy(
        "Argument over each identified hazard", under=top
    )
    for index in range(1, 13):
        hazard = builder.goal(
            f"Hazard H{index} is acceptably managed", under=strategy
        )
        builder.solution(f"Mitigation record MR-{index}", under=hazard)
    return builder.build()


def main() -> None:
    argument = build_argument()
    store_dir = (
        Path(tempfile.mkdtemp(prefix="journal-example-")) / "braking.store"
    )

    # 1. The initial save is a full write; it also records the baseline
    # the journal appends will continue from.
    manifest = argument.save(store_dir)
    base_files = set(manifest["shards"])
    print(f"saved {manifest['node_count']} nodes into "
          f"{len(base_files)} shards")

    stored = StoredArgument(store_dir)
    report = check(stored, mode="incremental")
    print(f"attached store-backed checker: "
          f"{len(report)} violation(s), hydrated={stored.hydrated}")

    # 2-3. Edit rounds: each save appends one O(delta) journal segment,
    # and the checker re-checks the *stored* case from that delta.
    for round_index in range(1, 4):
        goal = argument.node("G3")
        argument.replace_node(goal.with_text(
            f"Hazard H2 is acceptably managed (revalidated r{round_index})"
        ))
        argument.add_node(Node(
            f"X{round_index}", NodeType.GOAL,
            f"Late-identified hazard L{round_index} is managed",
        ))
        argument.add_link("S1", f"X{round_index}", LinkKind.SUPPORTED_BY)
        manifest = argument.save(store_dir, journal=True)
        violations = check(stored, mode="incremental")
        print(f"round {round_index}: journal segments "
              f"{len(manifest['journal'])}, base shards untouched "
              f"{base_files <= set(manifest['shards'])}, "
              f"{len(violations)} violation(s) "
              f"(hydrated={stored.hydrated})")

    # The journal-replayed store is the live argument, exactly.
    assert StoredArgument(store_dir).load() == argument

    # 4. Compaction: fold the journal into fresh shards — byte-identical
    # to saving the live argument into a clean directory.
    compact_handle = StoredArgument(store_dir)
    compacted = compact_handle.compact()
    reference_dir = store_dir.parent / "reference.store"
    argument.save(reference_dir)
    same = {
        path.name: path.read_bytes() for path in store_dir.iterdir()
    } == {
        path.name: path.read_bytes() for path in reference_dir.iterdir()
    }
    print(f"compacted: journal gone ({'journal' not in compacted}), "
          f"byte-identical to a clean save: {same}")
    print(f"gc after compaction removed: {compact_handle.gc() or 'nothing'}")

    # The checker notices the new base generation and stays correct.
    assert check(stored, mode="incremental").violations == \
        check(argument).violations
    print(f"checker survives compaction; hydrated={stored.hydrated}")


if __name__ == "__main__":
    main()
