#!/usr/bin/env python3
"""Two editors, one shared case, no lost updates — over HTTP.

A maintained assurance case is a shared artifact: the safety engineer
restructures the hazard argument while the verification lead attaches
fresh evidence.  This example runs the multi-editor service end to end,
entirely in one process (the server on a background thread, both
editors as plain HTTP clients):

1. build and save a case store, start ``repro.service`` over its parent
   directory on an ephemeral port;
2. both editors fetch the store's **generation token**, then race their
   edits through ``POST append`` with ``expect_generation`` — the first
   lands, the second gets ``409 Conflict`` instead of silently
   overwriting, refetches, and rebases;
3. snapshot isolation: a reader that fetched before the appends still
   queries the generation it started on, while new requests see the
   merged result;
4. the service re-checks well-formedness over the shared store with
   its one incremental checker (never hydrating), and the demo compares
   that verdict with a from-scratch ``streaming`` check of the same
   generation — exiting non-zero on any mismatch — before ``compact``
   + ``gc`` fold the session's journal away.

Run: ``python examples/service_demo.py``
"""

import asyncio
import sys
import tempfile
import threading
from pathlib import Path

from repro.core import ArgumentBuilder
from repro.service import ArgumentService, ServiceClient, ServiceClientError


def build_store(root: Path) -> None:
    builder = ArgumentBuilder("braking-system")
    top = builder.goal("The braking system is acceptably safe")
    strategy = builder.strategy(
        "Argument over each identified hazard", under=top
    )
    for index in (1, 2, 3):
        hazard = builder.goal(
            f"Hazard H{index} is acceptably managed", under=strategy
        )
        builder.solution(f"Mitigation record MR-{index}", under=hazard)
    builder.build().save(root / "braking.store")


class Served:
    """The service on a background event-loop thread, and its shutdown."""

    def __init__(self, root: Path) -> None:
        self.loop = asyncio.new_event_loop()
        self.service = ArgumentService(root)
        address: "dict[str, tuple[str, int]]" = {}
        ready = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            address["bound"] = self.loop.run_until_complete(
                self.service.start()
            )
            ready.set()
            try:
                self.loop.run_until_complete(self.service.serve_forever())
            except asyncio.CancelledError:
                pass  # close() below ends serve_forever
            finally:
                self.loop.close()

        self.thread = threading.Thread(target=serve, daemon=True)
        self.thread.start()
        ready.wait(10)
        self.host, self.port = address["bound"]
        print(f"service on http://{self.host}:{self.port}\n")

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.service.close(), self.loop
        ).result(10)
        self.thread.join(10)


def main() -> int:
    root = Path(tempfile.mkdtemp(prefix="service-demo-"))
    build_store(root)
    served = Served(root)
    client = ServiceClient(served.host, served.port)
    store = "braking.store"

    summary = client.store(store)
    print(f"serving {summary['argument']!r}: {summary['nodes']} nodes, "
          f"generation {summary['generation']}")

    # Both editors pin the same generation before editing.
    generation = summary["generation"]
    engineer = ServiceClient(served.host, served.port)
    verifier = ServiceClient(served.host, served.port)

    # The engineer lands a new hazard first...
    result = engineer.append(store, [
        {"op": "add_node", "node": {
            "id": "G-H4", "type": "goal",
            "text": "Hazard H4 is acceptably managed",
        }},
        {"op": "add_link", "link": {
            "source": "S1", "target": "G-H4", "kind": "supported_by",
        }},
    ], expect_generation=generation)
    print(f"engineer appended -> generation {result['generation']}")

    # ...so the verifier's optimistic append is refused, not absorbed.
    evidence_ops = [
        {"op": "add_node", "node": {
            "id": "Sn-H4", "type": "solution",
            "text": "Brake dynamometer report DR-44",
        }},
        {"op": "add_link", "link": {
            "source": "G-H4", "target": "Sn-H4", "kind": "supported_by",
        }},
    ]
    try:
        verifier.append(store, evidence_ops, expect_generation=generation)
    except ServiceClientError as error:
        print(f"verifier conflicted as it should: HTTP {error.status}")
    # Rebase: refetch the current generation, re-send the same ops.
    current = verifier.store(store)["generation"]
    result = verifier.append(
        store, evidence_ops, expect_generation=current
    )
    print(f"verifier rebased   -> generation {result['generation']}, "
          f"{result['nodes']} nodes\n")

    # Reads: a planned query, then the store's incremental check.
    goals = client.query(store, {"all": [
        {"type": "goal"}, {"text_contains": "hazard h4"},
    ]})
    print("query for the new hazard:",
          [node["id"] for node in goals["nodes"]])
    verdict = client.check(store)
    print(f"well-formed: {verdict['well_formed']} "
          f"({len(verdict['violations'])} violations, "
          f"{verdict['mode']} check)")
    for violation in verdict["violations"][:3]:
        print(f"  [{violation['rule']}] {violation['subject']}: "
              f"{violation['detail']}")
    # The incremental verdict must equal a from-scratch check.  Nothing
    # appends in between, so both name the same generation.
    fresh = client.check(store, mode="streaming")
    agree = (
        fresh["generation"] == verdict["generation"]
        and fresh["violations"] == verdict["violations"]
    )
    print(f"streaming re-check at {fresh['generation']}: "
          f"{'agrees' if agree else 'DIFFERS'}")

    # Fold the editing session's journal away.
    compacted = client.compact(store)
    swept = client.gc(store)
    print(f"\ncompacted to generation {compacted['generation']}; "
          f"gc removed {len(swept['removed'])} superseded files")

    for editor in (client, engineer, verifier):
        editor.close()
    served.stop()
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
