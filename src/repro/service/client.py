"""A small synchronous client for the argument service.

``http.client`` only — the counterpart to the server's stdlib-only
constraint — with one connection reused across calls (the server speaks
keep-alive).  The client's job is marshalling, not policy: it exposes
the generation tokens and raises :class:`ServiceClientError` carrying
the HTTP status and the server's error detail, so editor loops can
implement fetch → edit → append-with-``expect_generation`` → on-409
rebase-and-retry in a few lines (see ``examples/service_demo.py``).

``ops_for_delta`` turns a live :class:`~repro.core.argument.
MutationDelta` — e.g. ``argument.persisted_delta(...)`` from a local
editing session — into the journal-encoded op list the append endpoint
takes, closing the loop between offline edits and the shared service.
"""

from __future__ import annotations

import http.client
import json
from typing import Any

from ..core.argument import MutationDelta
from ..store.journal import encode_op

__all__ = ["ServiceClient", "ServiceClientError", "ops_for_delta"]


def ops_for_delta(delta: MutationDelta) -> "list[dict[str, Any]]":
    """A delta's mutations as journal-encoded op records for ``append``."""
    return [encode_op(op, payload) for op, payload in delta.records]


class ServiceClientError(Exception):
    """A non-2xx service response (carries status and server detail)."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.detail = detail


class ServiceClient:
    """One editor's connection to a running argument service."""

    def __init__(
        self, host: str, port: int, *, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- plumbing -----------------------------------------------------------

    def _request(self, method: str, path: str, body: Any = None) -> Any:
        payload = (
            json.dumps(body, separators=(",", ":")).encode("utf-8")
            if body is not None else None
        )
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (0, 1):
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._connection.request(method, path, payload, headers)
                response = self._connection.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                # A dropped keep-alive connection is normal churn; one
                # reconnect per request, then the error is real.
                self.close()
                if attempt:
                    raise
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else None
        except ValueError:
            raise ServiceClientError(
                response.status, f"undecodable response body {raw[:80]!r}"
            ) from None
        if response.status >= 400:
            detail = ""
            if isinstance(decoded, dict):
                detail = str(decoded.get("error", ""))
            raise ServiceClientError(response.status, detail)
        return decoded

    # -- endpoints ----------------------------------------------------------

    def health(self) -> Any:
        return self._request("GET", "/health")

    def stores(self) -> Any:
        return self._request("GET", "/stores")

    def store(self, name: str) -> Any:
        return self._request("GET", f"/stores/{name}")

    def node(self, name: str, identifier: str) -> Any:
        return self._request("GET", f"/stores/{name}/nodes/{identifier}")

    def subtree(self, name: str, identifier: str) -> Any:
        return self._request("GET", f"/stores/{name}/subtree/{identifier}")

    def query(self, name: str, query: "dict[str, Any]") -> Any:
        return self._request(
            "POST", f"/stores/{name}/query", {"query": query}
        )

    def search(
        self, name: str, q: str, *, limit: "int | None" = None
    ) -> Any:
        body: "dict[str, Any]" = {"q": q}
        if limit is not None:
            body["limit"] = limit
        return self._request("POST", f"/stores/{name}/search", body)

    def check(
        self,
        name: str,
        *,
        mode: "str | None" = None,
        workers: "int | None" = None,
    ) -> Any:
        """Check the store; ``mode`` selects the engine (server default:
        incremental, the store's one checker advanced to the current
        snapshot; the one-shot modes check from scratch).  The response
        carries ``generation`` (the one checked), ``mode`` (the engine
        actually used) and ``obligations.failed`` (formal obligations
        that did not discharge) alongside the violations."""
        body: "dict[str, Any]" = {}
        if mode is not None:
            body["mode"] = mode
        if workers is not None:
            body["workers"] = workers
        return self._request(
            "POST", f"/stores/{name}/check", body or None
        )

    def append(
        self,
        name: str,
        ops: "list[dict[str, Any]] | MutationDelta",
        *,
        expect_generation: "str | None" = None,
    ) -> Any:
        if isinstance(ops, MutationDelta):
            ops = ops_for_delta(ops)
        body: "dict[str, Any]" = {"ops": ops}
        if expect_generation is not None:
            body["expect_generation"] = expect_generation
        return self._request("POST", f"/stores/{name}/append", body)

    def compact(self, name: str) -> Any:
        return self._request("POST", f"/stores/{name}/compact")

    def gc(self, name: str) -> Any:
        return self._request("POST", f"/stores/{name}/gc")
