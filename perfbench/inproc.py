"""The program side of the in-process workloads (``edit-recheck``,
``cold-check``), run as its own process so that its peak RSS is the
program's and not the case generator's.

Usage: ``python inproc.py JOB.json RESULT.json``.  The job names the
store, the case model, the operation plan and whether to trace; the
result holds the samples, failure counts, wall time, peak RSS,
verification findings and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path
from typing import Any

import repro.checking as checking
import repro.core.query as query
import repro.core.search as core_search
from repro.claims import (
    GSN_OBLIGATION_RULES,
    obligation_counters,
    reset_obligation_cache,
)
from repro.core.nodes import NodeType
from repro.store import StoredArgument

from casegen import CaseModel, spec_swap_delta
from common import SETUP_UNITS, Recorder, peak_rss_mb
from tracing import Tracer, install, layer_metrics

RULES = GSN_OBLIGATION_RULES


def verdict(report: Any) -> "set[tuple[str, str]]":
    return {(violation.rule, violation.subject) for violation in report}


def lookup(handle: Any, block: int) -> "list[str]":
    """Find evidence ``E{block}``: a ranked search, then a structured
    query; returns what each got wrong (nothing, when both found it)."""
    ranked = core_search.search(handle, f"report {block}", limit=10)
    selected = query.select(
        handle,
        query.text_contains(f"Test report {block} for")
        & query.node_type_is(NodeType.SOLUTION),
    )
    problems = []
    if f"E{block}" not in [hit.identifier for hit in ranked]:
        problems.append(f"search 'report {block}' missed E{block}")
    if [node.identifier for node in selected] != [f"E{block}"]:
        problems.append(f"query for report {block} found "
                        f"{[node.identifier for node in selected][:3]}")
    return problems


class Session:
    """One pass over a plan, with the bookkeeping every workload shares."""

    def __init__(self, job: "dict[str, Any]") -> None:
        self.path = Path(job["store"])
        self.model = CaseModel.from_json(job["model"])
        self.plan = job["plan"]
        self.verify_every = job["verify_every"]
        self.recorder = Recorder()
        self.problems: "list[str]" = []
        self.ops = 0
        self.searches = 0
        self.tracer = Tracer() if job["trace"] else None

    def guard(self, op: str, body: Any) -> None:
        """Run one plan entry; an exception is a failed operation."""
        self.recorder.attempt(op)
        try:
            body()
        except Exception as error:  # every failure counts, the run goes on
            self.recorder.fail(op, error)

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def run_lookup(self, handle: Any, block: int) -> None:
        start = time.perf_counter()
        problems = lookup(handle, block)
        self.recorder.sample("search", time.perf_counter() - start)
        self.searches += 2
        for text in problems:
            self.problem(text)

    @staticmethod
    def counted(fn: Any) -> "tuple[Any, int]":
        """``fn()`` and the proofs it ran."""
        before = obligation_counters()[0]
        result = fn()
        return result, obligation_counters()[0] - before

    def finish(self, handle: Any = None) -> "dict[str, Any]":
        """The pass's result; ``handle`` is the editor's, or ``None`` to
        open a fresh one once tracing is off."""
        result: "dict[str, Any]" = {
            "recorder": self.recorder.to_json(),
            "ops": self.ops,
            "rss_mb": peak_rss_mb(),
            "problems": self.problems,
        }
        if self.tracer is not None:
            self.tracer.uninstall()
            result["layer"] = layer_metrics(
                self.tracer.spans, ops=self.ops, searches=self.searches
            )
            segments = len((handle or StoredArgument(self.path)).journal_segments)
            result["layer"]["journal.segments_at_end"] = float(segments)
        return result


def edit_recheck(job: "dict[str, Any]") -> "dict[str, Any]":
    """One editor: re-spec, append and incrementally re-check.

    Plan entries are ``["edit", block, passing]`` and ``["lookup",
    block]``: a :func:`lookup`, then a read of the hit's node and its
    block's subtree (the ``read`` samples).  Only edits count as
    operations.
    """
    session = Session(job)
    handle = StoredArgument(session.path)
    # Warm-up: the editor's first verdict is a full check that primes
    # the incremental checker and the proof cache; the first lookup
    # loads the search sidecar.
    recorder = session.recorder
    recorder.pace(force=True, units=SETUP_UNITS)
    warm_start = time.perf_counter()
    checking.check(handle, RULES, mode="incremental")
    lookup(handle, 1)
    recorder.sample("warmup", time.perf_counter() - warm_start)
    recorder.pace(force=True, units=SETUP_UNITS)
    if session.tracer is not None:
        install(session.tracer)
    edits = 0

    def find(op: "list[Any]") -> None:
        block = op[1]
        session.run_lookup(handle, block)
        start = time.perf_counter()
        handle.node(f"E{block}")
        handle.subtree(f"G{block}")
        recorder.sample("read", time.perf_counter() - start)

    def edit(op: "list[Any]") -> None:
        nonlocal edits
        block, passing = op[1], op[2]
        start = time.perf_counter()
        old = handle.node(f"E{block}")
        delta = spec_swap_delta(old, session.model, passing)
        append_start = time.perf_counter()
        handle.append_delta(delta)
        append_done = time.perf_counter()
        report, proofs = session.counted(
            lambda: checking.check(handle, RULES, mode="incremental")
        )
        end = time.perf_counter()
        recorder.sample("append", append_done - append_start, append_done)
        recorder.sample("check", end - append_done, end)
        recorder.sample("edit", end - start, end)
        recorder.sample("op", end - start, end)
        session.ops += 1
        edits += 1
        # Verification, outside the timed region.
        if proofs != 1:
            session.problem(f"edit {edits}: {proofs} proofs, expected 1")
        if verdict(report) != session.model.violations:
            session.problem(f"edit {edits}: verdict differs from the model")
        if edits % session.verify_every == 0:
            mark = len(session.tracer.spans) if session.tracer else 0
            fresh = checking.check(
                StoredArgument(session.path), RULES, mode="serial"
            )
            if tuple(fresh) != tuple(report):
                session.problem(f"edit {edits}: differs from a fresh serial check")
            if session.tracer is not None:
                del session.tracer.spans[mark:]

    for op in session.plan:
        body = edit if op[0] == "edit" else find
        session.guard(op[0], lambda: body(op))
        recorder.pace()
    return session.finish(handle)


def cold_check(job: "dict[str, Any]") -> "dict[str, Any]":
    """CI gate jobs: each checks from a fresh handle with an empty proof
    cache, as a gate in a fresh process does.

    Plan entries are ``["job", blocks, passing flags, lookup block or
    None]``.  A committer handle first appends one re-spec per block
    (the change under review, one ``append`` sample); the gate then
    opens a fresh :class:`StoredArgument`, resets the proof cache and
    runs the full check (the operation); last, the gate reads its
    report, the goal subtree of each changed block (one ``read``
    sample: separate reads share shards, so their costs fell in
    clusters and the median jumped between them), and for some jobs the
    committer runs one :func:`lookup` on its own, warm handle.
    """
    session = Session(job)
    committer = StoredArgument(session.path)
    lookup(committer, 1)  # loads the committer's search sidecar
    if session.tracer is not None:
        install(session.tracer)
    recorder = session.recorder
    recorder.pace()

    def gate(index: int, op: "list[Any]") -> None:
        blocks, passing, found = op[1], op[2], op[3]
        olds = [committer.node(f"E{block}") for block in blocks]
        start = time.perf_counter()
        for old, keep in zip(olds, passing):
            committer.append_delta(spec_swap_delta(old, session.model, keep))
        committed = time.perf_counter()
        handle = StoredArgument(session.path)
        reset_obligation_cache()
        report, proofs = session.counted(
            lambda: checking.check(handle, RULES, mode="auto")
        )
        checked = time.perf_counter()
        # Host samples between the job's steps too: the host changes
        # speed within a job, and a read is short.
        recorder.pace()
        start_read = time.perf_counter()
        for block in blocks:
            handle.subtree(f"G{block}")
        recorder.sample("read", time.perf_counter() - start_read)
        recorder.sample("append", committed - start, committed)
        recorder.sample("check", checked - committed, checked)
        recorder.sample("edit", checked - start, checked)
        recorder.sample("op", checked - committed, checked)
        session.ops += 1
        if found is not None:
            recorder.pace()
            session.run_lookup(committer, found)
        # Verification, outside the timed region.
        if proofs != session.model.blocks:
            session.problem(
                f"job {index}: {proofs} proofs, expected {session.model.blocks}"
            )
        if verdict(report) != session.model.violations:
            missing = session.model.violations - verdict(report)
            extra = verdict(report) - session.model.violations
            session.problem(
                f"job {index}: verdict differs from the seeded set "
                f"(missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})"
            )

    for index, op in enumerate(session.plan):
        session.guard("job", lambda: gate(index, op))
        # A gate job ends with its process: free the job's handle, its
        # caches and search index (a reference cycle) before the next.
        gc.collect()
        recorder.pace()
    return session.finish()


WORKLOADS = {"edit-recheck": edit_recheck, "cold-check": cold_check}


def main(argv: "list[str]") -> int:
    job_path, result_path = Path(argv[0]), Path(argv[1])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    result = WORKLOADS[job["workload"]](job)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
