"""The ``service-mixed`` workload: a server process and its load.

The store is served by ``python -m repro.service`` (or, for the traced
pass, by :mod:`serve`) in a process of its own.  The load comes from
this process: one editor with one keep-alive
:class:`~repro.service.ServiceClient`, in a closed loop — the editor
sends its next request only when the previous reply arrived.
"""

from __future__ import annotations

import http.client
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from repro.claims import OBLIGATION_KEY
from repro.core.argument import Link, LinkKind, MutationDelta
from repro.core.nodes import Node, NodeType
from repro.service import ServiceClient
from repro.service.client import ServiceClientError, ops_for_delta

from casegen import CaseModel
from common import Recorder, peak_rss_mb

HERE = Path(__file__).resolve().parent

#: How long a server may take to bind, and to stop after SIGINT.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

#: Append attempts (409 retries included) before an append fails.
MAX_ATTEMPTS = 50

#: Plan ops whose latency is a read sample (the others are searches).
READ_OPS = ("node", "subtree", "summary")


def _default_sigint() -> None:
    """In the server's process, before exec: take SIGINT by default.

    A shell ignores SIGINT in the jobs it starts in the background, an
    ignored signal stays ignored across exec, and the service stops
    only on SIGINT.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """One ``repro.service`` process serving ``root``.

    Its stderr goes to ``root/server.log``; its stdout is read to the
    end by a thread, so neither pipe can fill and stall the server.
    """

    def __init__(self, root: Path, env: "dict[str, str]", spans: "Path | None") -> None:
        if spans is None:
            command = [sys.executable, "-u", "-m", "repro.service", str(root),
                       "--port", "0"]
        else:
            command = [sys.executable, "-u", str(HERE / "serve.py"), str(root),
                       str(spans), "--port", "0"]
        self._log = open(root / "server.log", "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True,
            preexec_fn=_default_sigint,
        )
        self._bound = threading.Event()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        if not self._bound.wait(START_TIMEOUT):
            self.stop()
            raise RuntimeError(f"service did not report its port; see {self._log.name}")

    def _read_stdout(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            if "argument service on http://" in line:
                self.port = int(line.rsplit(":", 1)[1].strip())
                self._bound.set()

    def stop(self) -> float:
        """Stop the server; returns its peak RSS in MB (0 if it died)."""
        rss = 0.0
        if self.process.poll() is None:
            try:
                rss = peak_rss_mb(self.process.pid)
            except OSError:
                pass
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(STOP_TIMEOUT)
        self._reader.join(STOP_TIMEOUT)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()
        return rss


# -- request ids (traced pass only) ------------------------------------------

_CURRENT = threading.local()


def tag_requests() -> "Any":
    """Send each request's id as ``X-Request-Id``; returns the original."""
    original = http.client.HTTPConnection.request

    def request(self: Any, method: str, url: str, body: Any = None,
                headers: Any = None, **kwargs: Any) -> Any:
        headers = dict(headers or {})
        request_id = getattr(_CURRENT, "request_id", None)
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        return original(self, method, url, body, headers, **kwargs)

    http.client.HTTPConnection.request = request  # type: ignore[method-assign]
    return original


# -- the editors --------------------------------------------------------------


def append_ops(op: "list[Any]") -> "list[dict[str, Any]]":
    """Journal-encoded ops adding one solution under ``H{block}``."""
    identifier, block, text, spec = op[1], op[2], op[3], op[4]
    node = Node(identifier, NodeType.SOLUTION, text,
                metadata=((OBLIGATION_KEY, (spec,)),))
    link = Link(f"H{block}", identifier, LinkKind.SUPPORTED_BY)
    return ops_for_delta(MutationDelta((("add_node", node), ("add_link", link))))


class Editor:
    """The editor's plan, connection and measurements."""

    def __init__(self, port: int, store: str, plan: "list[list[Any]]",
                 model: CaseModel) -> None:
        self.client = ServiceClient("127.0.0.1", port)
        self.store = store
        self.plan = plan
        self.model = model
        self.recorder = Recorder()
        self.requests: "list[tuple[str, str, int]]" = []
        self.acked: "list[str]" = []
        self.conflicts = 0
        self.problems: "list[str]" = []
        self._sequence = 0

    def call(self, route: str, fn: Any, *args: Any, **kwargs: Any) -> Any:
        """One HTTP request, timed and tagged with a fresh request id."""
        self._sequence += 1
        request_id = f"c{self._sequence}"
        _CURRENT.request_id = request_id
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.requests.append(
                (request_id, route, time.perf_counter_ns() - start)
            )
            _CURRENT.request_id = None

    def append(self, op: "list[Any]") -> None:
        ops = append_ops(op)
        for _ in range(MAX_ATTEMPTS):
            generation = self.call("summary", self.client.store, self.store)
            try:
                self.call("append", self.client.append, self.store, ops,
                          expect_generation=generation["generation"])
            except ServiceClientError as error:
                if error.status != 409:
                    raise
                self.conflicts += 1
                continue
            self.acked.append(op[1])
            return
        raise RuntimeError(f"append {op[1]} still conflicting after "
                           f"{MAX_ATTEMPTS} attempts")

    def check(self) -> None:
        payload = self.call("check", self.client.check, self.store)
        got = {(item["rule"], item["subject"]) for item in payload["violations"]}
        if got != self.model.violations and len(self.problems) < 10:
            self.problems.append(
                f"check at {payload['generation']} differs from the seeded set"
            )

    def run_op(self, op: "list[Any]") -> None:
        kind = op[0]
        start = time.perf_counter()
        if kind == "node":
            self.call("node", self.client.node, self.store, op[1])
        elif kind == "subtree":
            self.call("subtree", self.client.subtree, self.store, op[1])
        elif kind == "summary":
            self.call("summary", self.client.store, self.store)
        elif kind == "search":
            payload = self.call("search", self.client.search, self.store, op[1],
                                limit=10)
            if not payload["hits"]:
                raise RuntimeError(f"search {op[1]!r} found nothing")
        elif kind == "query":
            payload = self.call("query", self.client.query, self.store, {
                "all": [{"type": "solution"}, {"text_contains": op[1]}],
            })
            if [node["id"] for node in payload["nodes"]] != [op[2]]:
                raise RuntimeError(f"query {op[1]!r} did not find {op[2]}")
        elif kind in ("append", "edit"):
            self.append(op)
            appended = time.perf_counter()
            self.recorder.sample("append", appended - start)
            if kind == "edit":
                self.check()
                done = time.perf_counter()
                self.recorder.sample("check", done - appended)
                self.recorder.sample("edit", done - start)
            return
        else:
            raise ValueError(f"unknown plan op {kind!r}")
        elapsed = time.perf_counter() - start
        self.recorder.sample("read" if kind in READ_OPS else "search", elapsed)

    def run(self) -> None:
        try:
            for op in self.plan:
                self.recorder.attempt(op[0])
                start = time.perf_counter()
                try:
                    self.run_op(op)
                except Exception as error:  # a failed request; keep going
                    self.recorder.fail(op[0], error)
                else:
                    self.recorder.sample("op", time.perf_counter() - start)
                self.recorder.pace()
        finally:
            self.client.close()


def run_load(
    port: int, store: str, plan: "list[list[Any]]", model: CaseModel
) -> "dict[str, Any]":
    """Drive the server with one editor in a closed loop."""
    editor = Editor(port, store, plan, model)
    editor.run()
    return {
        "recorder": editor.recorder,
        "ops": len(editor.recorder.raw("op")),
        "requests": editor.requests,
        "acked": editor.acked,
        "conflicts": editor.conflicts,
        "problems": editor.problems,
    }


def warm_up(port: int, store: str, model: CaseModel) -> None:
    """Fill the server's shard caches, proof cache and search sidecar."""
    with ServiceClient("127.0.0.1", port) as client:
        _CURRENT.request_id = "warm"
        try:
            client.check(store)
            for block in range(1, model.blocks + 1, max(1, model.blocks // 64)):
                client.subtree(store, f"G{block}")
            client.search(store, "hazard mitigated", limit=10)
            client.query(store, {"type": "strategy"})
        finally:
            _CURRENT.request_id = None


def verify(
    port: int,
    store: str,
    directory: Path,
    model: CaseModel,
    samples: "list[list[Any]]",
    acked: "list[str]",
) -> "list[str]":
    """After the load: appends kept, sampled results match in process."""
    import repro.checking as checking
    import repro.core.query as query
    import repro.core.search as core_search
    from repro.claims import GSN_OBLIGATION_RULES
    from repro.store import StoredArgument

    problems: "list[str]" = []
    local = StoredArgument(directory)
    missing = [identifier for identifier in acked if identifier not in local]
    if missing:
        problems.append(f"{len(missing)} acked appends missing, e.g. {missing[:3]}")
    report = checking.check(local, GSN_OBLIGATION_RULES, mode="serial")
    if {(v.rule, v.subject) for v in report} != model.violations:
        problems.append("final store's verdict differs from the seeded set")
    with ServiceClient("127.0.0.1", port) as client:
        for op in samples:
            if op[0] == "search":
                served = client.search(store, op[1], limit=10)
                hits = core_search.search(local, op[1], limit=10)
                expected = [(hit.identifier, hit.score) for hit in hits]
                got = [(hit["id"], hit["score"]) for hit in served["hits"]]
            else:
                served = client.query(store, {
                    "all": [{"type": "solution"}, {"text_contains": op[1]}],
                })
                found = query.select(
                    local,
                    query.text_contains(op[1])
                    & query.node_type_is(NodeType.SOLUTION),
                )
                expected = [node.identifier for node in found]
                got = [node["id"] for node in served["nodes"]]
            if served["generation"] != str(local.generation):
                problems.append(f"{op[0]} {op[1]!r}: served another generation")
            elif got != expected:
                problems.append(f"{op[0]} {op[1]!r}: served {got[:3]}, "
                                f"in process {expected[:3]}")
    return problems
