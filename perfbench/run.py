"""The repository benchmark: three workloads over claim-bound stores.

Run from the repository root::

    python3 perfbench/run.py --workload service-mixed --seed 1 \\
        --seconds 30 --trace 0

``--workload`` is ``service-mixed``, ``edit-recheck`` or ``cold-check``
(see ``BENCHMARK.json`` for why each exists).  ``--seed`` generates the
case and the operation plan; the program only ever sees the generated
inputs.  ``--seconds`` sizes the plan: every workload runs a fixed
number of rounds per second of run length, and each round holds an
exact count of each kind of operation in a fixed order, so the seed
chooses keys, never the mix.

With ``--trace 0`` the run sets up its stores several times (the
median is ``setup_s``), runs the plan untraced, verifies the outputs
and prints every end-to-end metric.  The run and every process it
starts share one pinned core, and each timed figure is scaled to a
reference host speed by the host samples taken around it (see
:mod:`yardstick`); the raw figures are in the run record.

With ``--trace 1`` it runs a third of the plan untraced, a third
traced and a third untraced, each on a fresh setup, and prints the
per-layer metrics of the traced third (raw, not scaled) plus
``trace.overhead_ratio`` (traced time per operation over untraced,
minus one, each at the reference speed).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the
run record: host fingerprint, flush policy, why each workload was
chosen (from ``BENCHMARK.json``), layer map (from ``layer_map.json``),
sample counts, tail percentiles and raw samples,
per-kind attempted and failed counts, verification problems and every
per-layer metric.  The record is also written to ``.perfbench_runs/``
in the repository root.
Scratch stores live in ``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RECORDS = ROOT / ".perfbench_runs"

#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: A child or server that runs longer than this has hung.
CHILD_TIMEOUT = 170.0

#: Case shape per workload: hazard blocks (six nodes each), seeded
#: defects, journal (a coalesced ``history`` segment, then ``tail``
#: single-edit segments), and the plan's rounds per second of run (a
#: round is a service editor's :data:`SERVICE_ROUND`, one edit, or one
#: gate job).  The in-process workloads also run ``lookups_per_s``
#: lookups per second of run, spread evenly over the rounds (see
#: :func:`lookup_rounds`).  ``edit-recheck`` starts from a coalesced
#: history of one re-spec per evidence node: every coalesce rewrites
#: it, so a coalescing append costs a steady tens of milliseconds and
#: stands clear of ordinary fsync stalls.  Its 1002 edits at 30 s make
#: 15 coalesces, each followed by a full re-check, so the edit, check
#: and append tails (the eleventh-largest samples) fall among the
#: coalescing edits.  ``service-mixed`` has one editor with one
#: keep-alive connection, so that the server and its load take turns on
#: the pinned core (see :func:`pin_to_one_core`).
#: The plans take about half their ``--seconds`` at the reference host
#: speed, and about all of it on a host in its slow state.
WORKLOADS: "dict[str, dict[str, Any]]" = {
    "service-mixed": {
        "blocks": 1650, "failing": 20, "defects": 5, "tail": 50,
        "rounds_per_s": 0.6,
    },
    "edit-recheck": {
        "blocks": 1650, "failing": 20, "defects": 5, "history": 1650, "tail": 0,
        "rounds_per_s": 33.4, "lookups_per_s": 0.8, "verify_every": 250,
    },
    "cold-check": {
        "blocks": 2000, "failing": 40, "defects": 10, "tail": 60,
        "rounds_per_s": 1.0, "lookups_per_s": 1.0,
    },
}

#: One round of the editor's plan in ``service-mixed``, always in this
#: order.  The mix follows ``bench_service_mixed`` in
#: ``benchmarks/bench_graph_scale.py`` (2 writers x 12 appends beside
#: 4 readers x 24 reads): four reads per write, split evenly between
#: query, store summary and node fetch.  Here the query third is three
#: parts ranked ``search`` to one part structured ``query`` (both are
#: ``search`` samples), and the node third is half ``node`` and half
#: ``subtree``.  Two writes in three are an ``edit``, an append followed
#: by ``POST check``: that share is chosen, not measured (no recorded
#: mix has checks), so that a run holds enough checks for their tail to
#: sit above their median.
#:
#: The writes come together, as one editing session, and the first
#: search after them pays for loading and patching the new snapshot's
#: search sidecar: one ``search`` sample in four, so the median is an
#: ordinary search and the tail a patching one.  A shuffled order left
#: that share to the seed, and the median jumped between the two from
#: run to run.
SERVICE_ROUND = (
    "edit", "append", "edit",
    "search", "summary", "node", "summary", "subtree", "search",
    "summary", "node", "query", "summary", "subtree", "search",
)

#: Commits per ``cold-check`` change.  One ``append`` sample is the whole
#: change: three fsynced appends average out single fsync stalls, which
#: left the tail of one-append samples swinging by a third between runs.
#: One change per job: with four, the tail (then p92 of 120) fell among
#: the fsync stalls of busy host disk periods, and swung by 0.39
#: (interquartile range over median) over ten seeds.
COLD_COMMITS = 3


def import_program() -> None:
    """Make ``repro`` importable from the checkout, or exit non-zero."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SOURCE}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import repro  # noqa: F401


def pin_to_one_core() -> "tuple[int, set[int]]":
    """Run this process, and every process it starts, on one core.

    The host's cores change speed apart from each other (see
    :mod:`yardstick`), so the host samples must come from the core the
    program runs on.  The workloads need no second core: their work
    runs in one process at a time (the service's editor waits for each
    reply).  Returns the core and the cores allowed before, which
    :func:`main` restores when it returns.
    """
    allowed = os.sched_getaffinity(0)
    core = max(allowed)
    os.sched_setaffinity(0, {core})
    return core, allowed


def child_env() -> "dict[str, str]":
    """The environment of the processes that run the program.

    A fixed hash seed makes set and dict layouts, and with them memory
    peaks and iteration costs, repeat from run to run.  One malloc arena
    makes the server's peak RSS repeat too: with one arena per executor
    thread it depended on which thread served the large requests, and
    one seed's peak moved between 165 and 221 MB from run to run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SOURCE), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    env["MALLOC_ARENA_MAX"] = "1"
    return env


# -- plans ----------------------------------------------------------------------


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * WORKLOADS[workload]["rounds_per_s"]))


def lookup_rounds(workload: str, seconds: float, rounds: int) -> "set[int]":
    """The rounds after which an in-process workload runs a lookup.

    No recorded editing or gating mix has searches; the lookups are
    there because every workload reports a search figure (and, in
    ``edit-recheck``, its read figure: the editor opens each hit), and
    there are just enough of them (24 or more at 30 s) that those tails
    resolve above the median.
    """
    lookups = min(rounds, round(seconds * WORKLOADS[workload]["lookups_per_s"]))
    return {(index * rounds) // lookups for index in range(lookups)}


def service_plan(seed: int, model: Any, rounds: int,
                 salt: str) -> "list[list[Any]]":
    """The editor's ops: ``rounds`` times :data:`SERVICE_ROUND`, the seed
    choosing the keys."""
    rng = random.Random(f"{seed}-service-{salt}")
    plan: "list[list[Any]]" = []
    for round_index in range(rounds):
        for position, kind in enumerate(SERVICE_ROUND):
            block = rng.randint(1, model.blocks)
            if kind == "node":
                plan.append(["node", f"{rng.choice('GSHERC')}{block}"])
            elif kind == "subtree":
                plan.append(["subtree", f"{rng.choice('GH')}{block}"])
            elif kind == "summary":
                plan.append(["summary"])
            elif kind == "search":
                words = model.words[block]
                plan.append(["search", f"{words[0]} {words[1]}"])
            elif kind == "query":
                plan.append(["query", f"Test report {block} for", f"E{block}"])
            else:
                identifier = f"X{salt}r{round_index}p{position}"
                plan.append([
                    kind, identifier, block,
                    f"Field report {identifier} for the {model.words[block][0]}",
                    f"sat: {identifier.lower()} | ~{identifier.lower()}",
                ])
    return plan


def edit_plan(seed: int, model: Any, rounds: int,
              lookups: "set[int]") -> "list[list[Any]]":
    """``rounds`` edits (specs alternate pass/fail), with a lookup
    after each edit in ``lookups``.  Lookups are timed apart from the
    edits, so ``ops_per_s`` counts edits alone.
    """
    rng = random.Random(f"{seed}-edit")
    plan: "list[list[Any]]" = []
    for edit in range(rounds):
        plan.append(["edit", rng.randint(1, model.blocks), edit % 2 == 0])
        if edit in lookups:
            plan.append(["lookup", rng.randint(1, model.blocks)])
    return plan


def cold_plan(seed: int, model: Any, rounds: int,
              lookups: "set[int]") -> "list[list[Any]]":
    """One CI gate job per round: commit a change of
    :data:`COLD_COMMITS` re-specs, one journal append each (each keeps
    its evidence's outcome, so the verdict stays the seeded one), then
    the gate's fresh check, then its report read and, for the jobs in
    ``lookups``, one lookup by the committer.

    The commits, reads and lookup are there because every workload must
    report append, read and search figures; they are timed apart from
    the gate, so ``check`` and ``ops_per_s`` carry no fsync or search.
    """
    rng = random.Random(f"{seed}-cold")
    plan: "list[list[Any]]" = []
    for job in range(rounds):
        blocks = rng.sample(range(1, model.blocks + 1), COLD_COMMITS)
        found = rng.randint(1, model.blocks)
        plan.append([
            "job", blocks, [f"E{block}" not in model.failing for block in blocks],
            found if job in lookups else None,
        ])
    return plan


# -- setup ----------------------------------------------------------------------


def make_store(workload: str, seed: int, directory: Path) -> Any:
    """Generate the workload's case and save it; returns its model."""
    from casegen import build_case, save_store

    shape = WORKLOADS[workload]
    defects = shape["defects"]
    argument, model = build_case(
        seed, shape["blocks"], failing=shape["failing"], unmarked=defects,
        bare_strategies=defects, noun_goals=defects, leaf_links=defects,
    )
    save_store(argument, model, directory, history=shape.get("history", 0),
               tail=shape["tail"], seed=seed)
    return model


def fresh_directory(scratch: Path, name: str) -> Path:
    directory = scratch / name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


# -- workloads ------------------------------------------------------------------


def service_pass(scratch: Path, seed: int, seconds: float, *, traced: bool,
                 salt: str, repeats: int) -> "dict[str, Any]":
    """Set up (``repeats`` times), load and verify one service pass."""
    import http.client

    import service_load

    original = service_load.tag_requests() if traced else None
    try:
        return _service_pass(scratch, seed, seconds, traced=traced, salt=salt,
                             repeats=repeats)
    finally:
        if original is not None:
            http.client.HTTPConnection.request = original  # type: ignore[method-assign]


def _service_pass(scratch: Path, seed: int, seconds: float, *, traced: bool,
                  salt: str, repeats: int) -> "dict[str, Any]":
    import service_load

    from common import SETUP_UNITS, Recorder

    setup = Recorder()
    server = None
    try:
        for repeat in range(repeats):
            if server is not None:
                server.stop()
                server = None
            root = fresh_directory(scratch, f"service-{salt}{repeat}")
            store_dir = root / "case.store"
            spans = root / "spans.json"
            setup.pace(force=True, units=SETUP_UNITS)
            start = time.perf_counter()
            model = make_store("service-mixed", seed, store_dir)
            setup.pace(force=True, units=SETUP_UNITS)
            server = service_load.Server(root, child_env(), spans if traced else None)
            service_load.warm_up(server.port, store_dir.name, model)
            setup.sample("setup", time.perf_counter() - start)
        setup.pace(force=True, units=SETUP_UNITS)
        rounds = rounds_for("service-mixed", seconds)
        plan = service_plan(seed, model, rounds, salt)
        # Write back what setup left dirty, so that the timed fsyncs do
        # not queue behind it.
        os.sync()
        from common import peak_rss_mb

        rss_marks = {"setup": peak_rss_mb(server.process.pid)}
        outcome = service_load.run_load(server.port, store_dir.name, plan, model)
        rss_marks["load"] = peak_rss_mb(server.process.pid)
        outcome["rss_marks_mb"] = rss_marks
        rng = random.Random(f"{seed}-samples")
        blocks = [rng.randint(1, model.blocks) for _ in range(6)]
        samples = [["query", f"Test report {block} for"] for block in blocks[:3]]
        samples += [["search", f"report {block}"] for block in blocks[3:5]]
        samples.append(["search", " ".join(model.words[blocks[5]][:2])])
        outcome["problems"] += service_load.verify(
            server.port, store_dir.name, store_dir, model, samples,
            outcome["acked"],
        )
    finally:
        rss = server.stop() if server is not None else 0.0
    outcome.update(setup=setup, rss_mb=rss, store=store_dir, rounds=rounds)
    if traced:
        # Only the editors' requests: warm-up and verification are setup.
        outcome["spans"] = [
            span for span in json.loads(spans.read_text(encoding="utf-8"))
            if span[5] is not None and span[5].startswith("c")
        ]
    return outcome


def inproc_pass(scratch: Path, workload: str, seed: int, seconds: float, *,
                traced: bool, salt: str, repeats: int) -> "dict[str, Any]":
    """Set up (``repeats`` times) and run one in-process pass in a child."""
    from common import SETUP_UNITS, Recorder

    setup = Recorder()
    model = store_dir = None
    for repeat in range(repeats):
        root = fresh_directory(scratch, f"{workload}-{salt}{repeat}")
        store_dir = root / "case.store"
        setup.pace(force=True, units=SETUP_UNITS)
        start = time.perf_counter()
        model = make_store(workload, seed, store_dir)
        setup.sample("setup", time.perf_counter() - start)
        if repeat < repeats - 1:
            shutil.rmtree(root, ignore_errors=True)
    setup.pace(force=True, units=SETUP_UNITS)
    assert model is not None and store_dir is not None
    rounds = rounds_for(workload, seconds)
    lookups = lookup_rounds(workload, seconds, rounds)
    if workload == "edit-recheck":
        plan = edit_plan(seed, model, rounds, lookups)
    else:
        plan = cold_plan(seed, model, rounds, lookups)
    job = {
        "workload": workload,
        "store": str(store_dir),
        "model": model.to_json(),
        "plan": plan,
        "trace": traced,
        "verify_every": WORKLOADS[workload].get("verify_every", 1),
    }
    job_path = store_dir.parent / "job.json"
    result_path = store_dir.parent / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    os.sync()  # as in _service_pass
    completed = subprocess.run(
        [sys.executable, str(HERE / "inproc.py"), str(job_path), str(result_path)],
        env=child_env(), timeout=CHILD_TIMEOUT, capture_output=True, text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} child failed ({completed.returncode}):\n"
            f"{completed.stderr[-2000:]}"
        )
    outcome = json.loads(result_path.read_text(encoding="utf-8"))
    outcome["recorder"] = Recorder.from_json(outcome["recorder"])
    outcome.update(setup=setup, store=store_dir, rounds=rounds)
    return outcome


def run_pass(scratch: Path, workload: str, seed: int, seconds: float, *,
             traced: bool, salt: str, repeats: int) -> "dict[str, Any]":
    if workload == "service-mixed":
        return service_pass(scratch, seed, seconds, traced=traced, salt=salt,
                            repeats=repeats)
    return inproc_pass(scratch, workload, seed, seconds, traced=traced,
                       salt=salt, repeats=repeats)


def bytes_ratio(store_dir: Path) -> float:
    from casegen import canonical_bytes, directory_bytes

    return directory_bytes(store_dir) / canonical_bytes(store_dir)


def end_to_end(outcome: "dict[str, Any]") -> "tuple[dict, dict]":
    """Every end-to-end metric, its times scaled to the reference host
    speed (see :mod:`yardstick`); the raw figures go into the record."""
    from yardstick import host_factor

    recorder, setup = outcome["recorder"], outcome["setup"]
    latency, backing = recorder.latency_metrics()
    # A setup lasts seconds, spans processes and waits on the disk, so the
    # host samples right around it tell its speed poorly; it is scaled by
    # the median of all the host samples taken through the setups.  An
    # in-process editor's warm-up (its first full check) is setup too.
    setup_ms = statistics.median(setup.raw("setup")) / host_factor(setup.host)
    metrics = {
        "setup_s": (setup_ms + sum(recorder.scaled("warmup"))) / 1e3,
        "ops_per_s": recorder.ops_per_s(),
        **latency,
        "peak_rss_mb": outcome["rss_mb"],
        "store_bytes_per_user_byte": bytes_ratio(outcome["store"]),
    }
    backing["raw"] = {
        "setup_s": (statistics.median(setup.raw("setup"))
                    + sum(recorder.raw("warmup"))) / 1e3,
        "ops_per_s": len(recorder.raw("op")) / (sum(recorder.raw("op")) / 1e3),
    }
    backing["samples_ms"] = {
        kind: [round(sample[0], 4) for sample in values]
        for kind, values in recorder.samples.items()
    }
    backing["host_ms"] = [round(ms, 4) for _, ms in setup.host + recorder.host]
    backing["setup_samples_ms"] = setup.raw("setup")
    backing["rss_marks_mb"] = outcome.get("rss_marks_mb")
    return metrics, backing


def per_layer(workload: str, outcomes: "list[dict[str, Any]]") -> "dict[str, float]":
    """Layer metrics of the traced middle pass, plus the overhead of
    tracing against the untraced passes around it."""
    from tracing import layer_metrics, request_self_ms

    before, traced, after = outcomes

    if workload == "service-mixed":
        from repro.store import StoredArgument

        spans = traced["spans"]
        searches = sum(
            1 for _, route, _ in traced["requests"]
            if route in ("search", "query")
        )
        layer = layer_metrics(spans, ops=traced["ops"], searches=searches)
        routes = request_self_ms(spans, traced["requests"])
        for route in ("node", "subtree", "summary", "search", "query",
                      "append", "check"):
            layer[f"service.{route}.self_ms"] = routes.get(route, 0.0)
        layer["service.conflicts_per_append"] = (
            traced["conflicts"] / max(1, len(traced["acked"]))
        )
        layer["journal.segments_at_end"] = float(
            len(StoredArgument(traced["store"]).journal_segments)
        )
    else:
        layer = dict(traced["layer"])
    # Time per operation at the reference host speed, so that host drift
    # between the passes does not read as tracing overhead.
    def per_op(outcome: "dict[str, Any]") -> float:
        return 1.0 / outcome["recorder"].ops_per_s()

    untraced = (per_op(before) + per_op(after)) / 2
    layer["trace.overhead_ratio"] = per_op(traced) / untraced - 1.0
    return layer


def benchmark_spec() -> "dict[str, Any]":
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    import_program()
    spec = benchmark_spec()
    core, allowed = pin_to_one_core()
    from common import flush_policy, host_fingerprint

    workload, seed = arguments.workload, arguments.seed
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    record: "dict[str, Any]" = {
        "workload": workload,
        "seed": seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "host": {**host_fingerprint(WORK), "pinned_core": core},
        "flush_policy": flush_policy(),
        "why": {item["name"]: item["why"] for item in spec["workloads"]},
        "layer_map": json.loads((HERE / "layer_map.json").read_text(encoding="utf-8")),
        "shape": WORKLOADS[workload],
    }
    try:
        if arguments.trace:
            # Untraced, traced, untraced: a third of the plan each, so a
            # host that drifts during the run does not bias the overhead.
            third = arguments.seconds / 3
            outcomes = [
                run_pass(scratch, workload, seed, third, traced=traced,
                         salt=salt, repeats=1)
                for salt, traced in (("u", False), ("t", True), ("v", False))
            ]
            everything = per_layer(workload, outcomes)
            names = [(item["name"], item["unit"]) for item in spec["per_layer"]]
            record["layer_metrics"] = everything
        else:
            outcome = run_pass(scratch, workload, seed, arguments.seconds,
                               traced=False, salt="m", repeats=SETUP_REPEATS)
            outcomes = [outcome]
            everything, backing = end_to_end(outcome)
            record["latency"] = backing
            names = [(item["name"], item["unit"]) for item in spec["end_to_end"]]
        attempted: "dict[str, int]" = {}
        failed: "dict[str, int]" = {}
        problems: "list[str]" = []
        errors: "list[str]" = []
        for outcome in outcomes:
            recorder = outcome["recorder"]
            for op, count in recorder.attempted.items():
                attempted[op] = attempted.get(op, 0) + count
            for op, count in recorder.failed.items():
                failed[op] = failed.get(op, 0) + count
            problems += outcome["problems"]
            errors += recorder.errors
        record.update(
            rounds=[outcome["rounds"] for outcome in outcomes],
            conflicts=[outcome.get("conflicts") for outcome in outcomes],
            attempted=attempted, failed=failed, errors=errors[:10],
            problems=problems[:20],
            metrics=everything,
        )
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    correct = not problems and not failed
    result = {
        "correct": correct,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {
            name: {"value": everything[name], "unit": unit} for name, unit in names
        },
    }
    RECORDS.mkdir(exist_ok=True)
    (RECORDS / f"{workload}-seed{seed}-trace{arguments.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8"
    )
    print(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
