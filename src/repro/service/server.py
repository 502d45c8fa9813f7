"""The asyncio HTTP/JSON front end over shared argument stores.

Stdlib only — ``asyncio`` streams and a deliberately small HTTP/1.1
subset (request line, headers, ``Content-Length`` bodies, keep-alive) —
because the repository's reproduction environment installs nothing.
The interesting part is not the HTTP, it is the serving discipline:

* one :class:`_StoreState` per store directory, holding the **current
  snapshot handle** (a pinned :class:`~repro.store.StoredArgument`) and
  an :class:`asyncio.Lock` that admits one mutation at a time;
* reads run in worker threads against whatever snapshot was current
  when they were routed — snapshots are immutable views of one
  committed generation, so no read ever blocks on or observes a write;
* a committed write opens a fresh handle, lets it
  :meth:`~repro.store.StoredArgument.adopt_base_caches` from the
  outgoing snapshot (same content-addressed base shards → same shard
  caches and the same parsed search sidecar, under which each snapshot
  layers only its own journal delta; the parsed journal is copied and
  extended by the new segment alone), and swaps it in with plain
  assignment — the asyncio equivalent of the store's atomic manifest
  rename.  Derived state follows the generation a snapshot serves, not
  the handle object, and no snapshot's caches refer back to it, so a
  superseded snapshot is freed as soon as its last reader lets go;
* checks go, by default, to the store's one
  :class:`~repro.core.analysis.IncrementalChecker`, behind a thread
  lock of its own (appends never wait on checks).  Under that lock the
  checker reads the current snapshot and catches up to exactly its
  generation — only the journal ops since its last check re-evaluate —
  and the reply names the generation checked.  A compaction rotates the
  base, so the next check rebuilds once.  The one-shot modes
  (``streaming``, ``parallel``, ...) still check a snapshot from
  scratch, so the two can be compared.

Endpoints (all payloads JSON)::

    GET  /health
    GET  /stores
    GET  /stores/{name}
    GET  /stores/{name}/nodes/{id}
    GET  /stores/{name}/subtree/{id}
    POST /stores/{name}/query    {"type": ..., "all": [...], ...}
    POST /stores/{name}/search   {"q": "...", "limit": 10}
    POST /stores/{name}/check    {"mode": "incremental", ...}
    POST /stores/{name}/append   {"ops": [...], "expect_generation": ...}
    POST /stores/{name}/compact
    POST /stores/{name}/gc

Append ops use exactly the journal's record encoding (see
:func:`repro.store.journal.encode_op`): what a client POSTs is what a
crashed session's journal segment would have held.  Failure mapping:
``400`` malformed request, ``404`` unknown store/node/route, ``409``
generation conflict (:class:`~repro.store.StoreConflictError`, including
a snapshot whose files another process's ``gc()`` swept: the service
then opens a fresh snapshot, so a retry reads the live generation),
``500`` store corruption or unexpected errors.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import threading
from pathlib import Path
from typing import Any
from urllib.parse import unquote

from ..core.argument import MutationDelta
from ..core.nodes import NodeType
from ..core.query import (
    Query,
    attribute_param,
    has_attribute,
    node_type_is,
    text_contains,
)
from ..checking import check as run_check
from ..claims import GSN_OBLIGATION_RULES
from ..core.analysis import (
    CHECK_MODES,
    IncrementalChecker,
    Violation,
    worker_cap,
)
from ..core.wellformed import RuleSet
from ..notation.json_io import node_payload
from ..store import (
    StoreConflictError,
    StoreCorruptionError,
    StoredArgument,
    StoreError,
    StoreGenerationGoneError,
)
from ..store.format import MANIFEST_NAME
from ..store.journal import decode_op

__all__ = ["ArgumentService", "ServiceError"]

#: Largest accepted request body — an append of tens of thousands of
#: ops fits comfortably; anything bigger should go through the store
#: API directly.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Largest accepted search ``limit``: every hit is read and rendered, so
#: the cap bounds one request's work.  Interactive clients ask for ten.
MAX_SEARCH_LIMIT = 1000

#: Store names are path segments; this keeps them that way.
_STORE_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: A ``Content-Length`` value: decimal digits only (no sign, no space).
_CONTENT_LENGTH = re.compile(r"[0-9]+")

_log = logging.getLogger("repro.service")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class ServiceError(Exception):
    """A request failure with an HTTP status (rendered as JSON)."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


class _StoreState:
    """One served store: its snapshot handle, write queue and checker.

    ``checker`` is the store's one :class:`IncrementalChecker`, created
    by the first incremental check.  ``check_lock`` (a thread lock, not
    the asyncio write lock, so appends never wait on checks) admits one
    check at a time to it.
    """

    __slots__ = ("name", "path", "lock", "snapshot", "check_lock", "checker")

    def __init__(self, name: str, path: Path) -> None:
        self.name = name
        self.path = path
        self.lock = asyncio.Lock()
        self.snapshot = StoredArgument(path)
        self.check_lock = threading.Lock()
        self.checker: "IncrementalChecker | None" = None


def _parse_query(spec: Any) -> Query:
    """Build a :class:`~repro.core.query.Query` from its JSON form.

    One operator per object: ``{"type": "goal"}``,
    ``{"has_attribute": "hazard"}``, ``{"text_contains": "brake"}`` (or
    ``{"text_contains": {"needle": ..., "case_sensitive": true}}``),
    ``{"attribute_param": {"name": ..., "index": ..., "value": ...}}``,
    combined with ``{"all": [...]}``, ``{"any": [...]}``, and
    ``{"not": {...}}`` — a JSON mirror of the query combinators, so
    planned queries stay planned across the wire.
    """
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ServiceError(
            400, "a query is one single-operator object, e.g. "
            '{"type": "goal"} or {"all": [...]}'
        )
    (op, value), = spec.items()
    if op == "all" or op == "any":
        if not isinstance(value, list) or not value:
            raise ServiceError(400, f"{op!r} takes a non-empty list")
        parts = [_parse_query(part) for part in value]
        combined = parts[0]
        for part in parts[1:]:
            combined = combined & part if op == "all" else combined | part
        return combined
    if op == "not":
        return ~_parse_query(value)
    if op == "type":
        try:
            return node_type_is(NodeType(value))
        except ValueError:
            raise ServiceError(
                400, f"unknown node type {value!r} (one of: "
                + ", ".join(t.value for t in NodeType) + ")"
            ) from None
    if op == "has_attribute":
        if not isinstance(value, str):
            raise ServiceError(400, "'has_attribute' takes a name string")
        return has_attribute(value)
    if op == "text_contains":
        if isinstance(value, str):
            return text_contains(value)
        if isinstance(value, dict) and isinstance(value.get("needle"), str):
            return text_contains(
                value["needle"],
                case_sensitive=bool(value.get("case_sensitive", False)),
            )
        raise ServiceError(
            400, "'text_contains' takes a needle string or "
            '{"needle": ..., "case_sensitive": ...}'
        )
    if op == "attribute_param":
        if not (
            isinstance(value, dict)
            and isinstance(value.get("name"), str)
            and isinstance(value.get("index"), int)
            and "value" in value
        ):
            raise ServiceError(
                400, "'attribute_param' takes "
                '{"name": ..., "index": ..., "value": ...}'
            )
        return attribute_param(value["name"], value["index"], value["value"])
    raise ServiceError(400, f"unknown query operator {op!r}")


def _decode_ops(body: Any) -> MutationDelta:
    """The request's op list as a :class:`MutationDelta` (or 400)."""
    if not isinstance(body, dict) or not isinstance(body.get("ops"), list):
        raise ServiceError(
            400, 'an append body is {"ops": [...]} with journal-encoded '
            "mutation records"
        )
    ops = []
    for record in body["ops"]:
        if not isinstance(record, dict):
            raise ServiceError(400, "each op must be an object")
        try:
            ops.append(decode_op(record, "request"))
        except StoreError as error:
            raise ServiceError(400, f"malformed op: {error}") from None
    return MutationDelta(tuple(ops))


class ArgumentService:
    """Serve every store directory under ``root`` over HTTP/JSON.

    A *store* is any direct subdirectory of ``root`` carrying a store
    manifest; its name is its directory name (``brake.store`` →
    ``/stores/brake.store``).  Discovery is lazy — a directory that
    appears after startup is picked up on first request — and serving
    state per store is exactly one snapshot handle plus one write lock
    (see the module docstring for the swap discipline).
    """

    def __init__(
        self, root: Path | str, *, rules: RuleSet = GSN_OBLIGATION_RULES
    ) -> None:
        self.root = Path(root)
        self.rules = rules
        self._stores: dict[str, _StoreState] = {}
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- store registry -----------------------------------------------------

    def _store(self, name: str) -> _StoreState:
        state = self._stores.get(name)
        if state is not None:
            return state
        if not _STORE_NAME.match(name):
            raise ServiceError(404, f"no store named {name!r}")
        path = self.root / name
        if not (path / MANIFEST_NAME).is_file():
            raise ServiceError(404, f"no store named {name!r}")
        try:
            state = _StoreState(name, path)
        except StoreError as error:
            raise ServiceError(500, f"store {name!r} unreadable: {error}")
        return self._stores.setdefault(name, state)

    def _store_names(self) -> list[str]:
        names = set(self._stores)
        try:
            for child in self.root.iterdir():
                if (
                    _STORE_NAME.match(child.name)
                    and (child / MANIFEST_NAME).is_file()
                ):
                    names.add(child.name)
        except OSError:
            pass
        return sorted(names)

    @staticmethod
    def _summary(state: _StoreState) -> dict[str, Any]:
        snapshot = state.snapshot
        return {
            "name": state.name,
            "argument": snapshot.name,
            "kind": snapshot.kind,
            "nodes": snapshot.node_count,
            "links": snapshot.link_count,
            "journal_segments": len(snapshot.journal_segments),
            "generation": str(snapshot.generation),
        }

    # -- request handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ServiceError as error:
                    # The request itself is unusable (bad JSON, too
                    # large, torn request line): answer, then drop the
                    # connection — framing can no longer be trusted.
                    await self._respond(
                        writer, error.status, {"error": error.detail}, False
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                try:
                    status, payload = await self._route(method, path, body)
                except ServiceError as error:
                    status, payload = error.status, {"error": error.detail}
                except StoreConflictError as error:
                    status, payload = 409, {"error": str(error)}
                except StoreCorruptionError as error:
                    status, payload = 500, {"error": str(error)}
                except StoreError as error:
                    status, payload = 400, {"error": str(error)}
                except Exception as error:
                    # Safety net: the connection keeps serving, and the
                    # cause is logged, never only returned to the client.
                    _log.exception(
                        "unhandled error serving %s %s", method, path
                    )
                    status, payload = 500, {"error": repr(error)}
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError, ConnectionError, ServiceError
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> "tuple[str, str, dict[str, str], Any] | None":
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ServiceError(400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0")
        if not _CONTENT_LENGTH.fullmatch(declared):
            raise ServiceError(400, f"malformed Content-Length {declared!r}")
        # int() refuses digit strings past a few thousand digits, and
        # anything this long is far over the body limit anyway.
        length = int(declared) if len(declared) <= 18 else MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "request body too large")
        body: Any = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                raise ServiceError(400, "request body is not valid JSON")
        return method, target.split("?", 1)[0], headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _route(
        self, method: str, path: str, body: Any
    ) -> tuple[int, Any]:
        segments = [unquote(part) for part in path.split("/") if part]
        if segments == ["health"]:
            if method != "GET":
                raise ServiceError(405, "GET only")
            return 200, {"status": "ok", "stores": len(self._store_names())}
        if not segments or segments[0] != "stores":
            raise ServiceError(404, f"no route {path!r}")
        if len(segments) == 1:
            if method != "GET":
                raise ServiceError(405, "GET only")
            return 200, [
                self._summary(self._store(name))
                for name in self._store_names()
            ]
        state = self._store(segments[1])
        snapshot = state.snapshot
        rest = segments[2:]
        try:
            if not rest:
                if method != "GET":
                    raise ServiceError(405, "GET only")
                return 200, self._summary(state)
            if method == "GET" and len(rest) == 2 and rest[0] == "nodes":
                return await self._get_node(state, rest[1])
            if method == "GET" and len(rest) == 2 and rest[0] == "subtree":
                return await self._get_subtree(state, rest[1])
            if method == "POST" and rest == ["query"]:
                return await self._post_query(state, body)
            if method == "POST" and rest == ["search"]:
                return await self._post_search(state, body)
            if method == "POST" and rest == ["check"]:
                return await self._post_check(state, body)
            if method == "POST" and rest == ["append"]:
                return await self._post_append(state, body)
            if method == "POST" and rest == ["compact"]:
                return await self._post_compact(state)
            if method == "POST" and rest == ["gc"]:
                return await self._post_gc(state)
        except StoreGenerationGoneError:
            await self._renew(state, snapshot)
            raise
        raise ServiceError(404, f"no route {path!r}")

    async def _renew(self, state: _StoreState, swept: StoredArgument) -> None:
        """Serve a fresh handle in place of ``swept``, a snapshot that
        lost a file to another process's ``gc()``, so the client's retry
        reads the live generation; a no-op when another request has
        already replaced the snapshot, or the store cannot be opened."""
        async with state.lock:
            if state.snapshot is not swept:
                return

            def reopen() -> StoredArgument:
                handle = StoredArgument(state.path)
                handle.adopt_base_caches(swept)
                return handle

            try:
                state.snapshot = await self._in_thread(reopen)
            except StoreError:
                pass

    # -- reads: snapshot handle, worker thread, no locks --------------------

    @staticmethod
    async def _in_thread(func: Any, *args: Any) -> Any:
        # The executor's worker keeps its work item (callable, arguments
        # and future) for a moment after the result is delivered.  Hand
        # it only an emptied box, so a superseded snapshot that a request
        # closed over is not kept alive by a worker that has not yet
        # dropped it.
        box: "list[Any]" = [func, args]

        def run() -> None:
            call, call_args = box
            box.clear()
            box.append(call(*call_args))

        await asyncio.get_running_loop().run_in_executor(None, run)
        return box.pop()

    async def _get_node(
        self, state: _StoreState, identifier: str
    ) -> tuple[int, Any]:
        snapshot = state.snapshot

        def read() -> Any:
            if identifier not in snapshot:
                raise ServiceError(
                    404, f"no node {identifier!r} in {state.name!r}"
                )
            return node_payload(snapshot.node(identifier))

        return 200, {
            "generation": str(snapshot.generation),
            "node": await self._in_thread(read),
        }

    async def _get_subtree(
        self, state: _StoreState, identifier: str
    ) -> tuple[int, Any]:
        snapshot = state.snapshot

        def read() -> Any:
            if identifier not in snapshot:
                raise ServiceError(
                    404, f"no node {identifier!r} in {state.name!r}"
                )
            subtree = snapshot.subtree(identifier)
            return {
                "nodes": [node_payload(node) for node in subtree.nodes],
                "links": [
                    {
                        "source": link.source,
                        "target": link.target,
                        "kind": link.kind.value,
                    }
                    for link in subtree.links
                ],
            }

        return 200, {
            "generation": str(snapshot.generation),
            **await self._in_thread(read),
        }

    async def _post_query(
        self, state: _StoreState, body: Any
    ) -> tuple[int, Any]:
        from ..core.query import select

        if not isinstance(body, dict):
            raise ServiceError(400, 'a query body is {"query": {...}}')
        query = _parse_query(body.get("query"))
        snapshot = state.snapshot
        matches = await self._in_thread(select, snapshot, query)
        return 200, {
            "generation": str(snapshot.generation),
            "nodes": [node_payload(node) for node in matches],
        }

    async def _post_search(
        self, state: _StoreState, body: Any
    ) -> tuple[int, Any]:
        from ..core.search import search

        if not isinstance(body, dict):
            raise ServiceError(400, 'a search body is {"q": "..."}')
        q = body.get("q")
        if not isinstance(q, str) or not q.strip():
            raise ServiceError(400, "'q' must be a non-empty string")
        limit = body.get("limit", 10)
        if (
            not isinstance(limit, int)
            or isinstance(limit, bool)
            or limit < 1
        ):
            raise ServiceError(400, "'limit' must be a positive integer")
        if limit > MAX_SEARCH_LIMIT:
            raise ServiceError(
                400, f"'limit' must be at most {MAX_SEARCH_LIMIT}"
            )
        snapshot = state.snapshot
        hits = await self._in_thread(
            lambda: search(snapshot, q, limit=limit)
        )
        return 200, {
            "generation": str(snapshot.generation),
            "q": q,
            "hits": [
                {
                    "id": hit.identifier,
                    "score": hit.score,
                    "type": hit.node_type,
                    "snippet": hit.snippet,
                    "matched_terms": list(hit.matched_terms),
                    "neighbourhood": list(hit.neighbourhood),
                    "summary": hit.summary,
                }
                for hit in hits
            ],
        }

    #: Every facade mode.  ``incremental`` (the default) advances the
    #: store's one checker to the current snapshot; the one-shot modes
    #: check the snapshot from scratch, so the two can be compared.
    _CHECK_MODES = CHECK_MODES

    def _check_incremental(
        self, state: _StoreState
    ) -> "tuple[StoredArgument, list[Violation]]":
        """The store's checker, advanced to the current snapshot.

        The snapshot is read under the check lock, so the checker only
        ever moves forward through the generations the service serves.
        An append only costs the next check its own ops; a compaction
        rotates the base, so the next check rebuilds once.
        """
        with state.check_lock:
            snapshot = state.snapshot
            if state.checker is None:
                state.checker = IncrementalChecker(snapshot, self.rules.rules)
            return snapshot, state.checker.check(snapshot)

    async def _post_check(
        self, state: _StoreState, body: Any
    ) -> tuple[int, Any]:
        mode = "incremental"
        workers = None
        if isinstance(body, dict):
            mode = body.get("mode", mode)
            workers = body.get("workers")
        if mode not in self._CHECK_MODES:
            raise ServiceError(
                400,
                f"'mode' must be one of {', '.join(self._CHECK_MODES)}",
            )
        if workers is not None and (
            isinstance(workers, bool)
            or not isinstance(workers, int)
            or workers < 1
        ):
            raise ServiceError(400, "'workers' must be a positive integer")
        if workers is not None and workers > worker_cap():
            raise ServiceError(
                400,
                f"'workers' must be at most {worker_cap()}, the worker "
                "cap (this host's CPU count, at least 2)",
            )
        if mode == "incremental":
            snapshot, violations = await self._in_thread(
                self._check_incremental, state
            )
        else:
            snapshot = state.snapshot
            report = await self._in_thread(
                lambda: run_check(
                    snapshot, self.rules, mode=mode, workers=workers
                )
            )
            mode, violations = report.mode, list(report.violations)
        failed = [v for v in violations if v.rule == "evidence-obligation"]
        return 200, {
            "generation": str(snapshot.generation),
            "well_formed": not violations,
            "mode": mode,
            "violations": [
                {
                    "rule": violation.rule,
                    "subject": violation.subject,
                    "detail": violation.detail,
                }
                for violation in violations
            ],
            "obligations": {"failed": len(failed)},
        }

    # -- writes: one at a time per store, snapshot swap on commit -----------

    async def _post_append(
        self, state: _StoreState, body: Any
    ) -> tuple[int, Any]:
        delta = _decode_ops(body)
        expect = body.get("expect_generation")
        if expect is not None and not isinstance(expect, str):
            raise ServiceError(400, "'expect_generation' is a string token")
        async with state.lock:
            outgoing = state.snapshot

            def write() -> StoredArgument:
                handle = StoredArgument(state.path)
                if expect is not None and str(handle.generation) != expect:
                    raise StoreConflictError(
                        f"store {state.name!r} is at generation "
                        f"{handle.generation}, not {expect} — refetch and "
                        "rebase the edit"
                    )
                handle.append_delta(delta)
                handle.adopt_base_caches(outgoing)
                return handle

            fresh = await self._in_thread(write)
            state.snapshot = fresh
        return 200, {
            "generation": str(fresh.generation),
            "applied": len(delta),
            "nodes": fresh.node_count,
            "links": fresh.link_count,
        }

    async def _post_compact(self, state: _StoreState) -> tuple[int, Any]:
        async with state.lock:

            def write() -> StoredArgument:
                handle = StoredArgument(state.path)
                handle.compact()
                return handle

            fresh = await self._in_thread(write)
            state.snapshot = fresh
        return 200, {"generation": str(fresh.generation)}

    async def _post_gc(self, state: _StoreState) -> tuple[int, Any]:
        async with state.lock:

            def write() -> "tuple[StoredArgument, list[str]]":
                handle = StoredArgument(state.path)
                removed = handle.gc()
                handle.adopt_base_caches(state.snapshot)
                return handle, removed

            fresh, removed = await self._in_thread(write)
            state.snapshot = fresh
        return 200, {
            "generation": str(fresh.generation), "removed": removed,
        }


def run(root: Path | str, host: str = "127.0.0.1", port: int = 8873) -> None:
    """Blocking entry point (``python -m repro.service``)."""

    async def main() -> None:
        service = ArgumentService(root)
        bound_host, bound_port = await service.start(host, port)
        print(f"repro argument service on http://{bound_host}:{bound_port}")
        for name in service._store_names():
            print(f"  /stores/{name}")
        await service.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
