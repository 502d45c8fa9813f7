"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer (store,
journal, format, search, query, checking, analysis, obligations) so
that every call records a span: name, start, end, the span that was
active when it was called, and the request id of the HTTP request being
served, if any.  Spans stay in memory until the run ends.  Nothing
under ``src/`` changes; the untraced run installs nothing, so its cost
is exactly the program's.

:func:`layer_metrics` turns a span list into the per-layer metrics.  A
span's *self time* is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import contextvars
import itertools
import statistics
import time
from pathlib import Path
from typing import Any, Callable

CURRENT_SPAN: "contextvars.ContextVar[int | None]" = contextvars.ContextVar(
    "perfbench_span", default=None
)
REQUEST_ID: "contextvars.ContextVar[str | None]" = contextvars.ContextVar(
    "perfbench_request", default=None
)

def directory_files(path: Path) -> "dict[str, int]":
    return {
        entry.name: entry.stat().st_size
        for entry in Path(path).iterdir() if entry.is_file()
    }


class Tracer:
    """An in-memory span recorder plus the wrappers that feed it.

    Each span is a tuple ``(id, name, start_ns, end_ns, parent id,
    request id, attrs)``.
    """

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self._ids = itertools.count(1)
        self._installed: "list[tuple[Any, str, Any]]" = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        before: "Callable[..., Any] | None" = None,
        after: "Callable[..., dict] | None" = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(*args)`` and ``after(state, result, *args)`` run outside
        the timed interval; ``after`` returns attributes for the span.
        """
        original = owner.__dict__[attr]
        spans, ids = self.spans, self._ids

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(*args) if before is not None else None
            parent = CURRENT_SPAN.get()
            span_id = next(ids)
            token = CURRENT_SPAN.set(span_id)
            start = time.perf_counter_ns()
            result: Any = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                CURRENT_SPAN.reset(token)
                attrs = after(state, result, *args) if after else None
                spans.append((
                    span_id, name, start, end, parent, REQUEST_ID.get(), attrs,
                ))

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls (see the module docstring)."""
    import repro.checking as checking
    import repro.core.analysis as analysis
    import repro.core.query as query
    import repro.core.search as core_search
    import repro.claims.obligations as obligations
    import repro.store.format as store_format
    import repro.store.journal as journal
    import repro.store.lease as lease
    import repro.store.reader as reader
    import repro.store.search as store_search
    import repro.store.writer as writer

    stored = reader.StoredArgument

    def shards_before(subject: Any, *args: Any, **kwargs: Any) -> Any:
        return len(getattr(subject, "shards_read", ()))

    def shards_after(state: Any, result: Any, subject: Any, *args: Any) -> dict:
        return {"shards": len(getattr(subject, "shards_read", ())) - state}

    def files_before(handle: Any, *args: Any) -> Any:
        return directory_files(handle.path)

    def bytes_after(state: Any, result: Any, handle: Any, *args: Any) -> dict:
        now = directory_files(handle.path)
        written = sum(
            size for name, size in now.items() if state.get(name) != size
        )
        return {"bytes": written}

    def adopted(state: Any, result: Any, *args: Any) -> dict:
        return {"hit": bool(result)}

    tracer.wrap(stored, "__init__", "store.open")
    tracer.wrap(stored, "refresh", "store.refresh")
    tracer.wrap(stored, "adopt_base_caches", "store.adopt", after=adopted)
    tracer.wrap(stored, "node", "store.node")
    tracer.wrap(stored, "subtree", "store.subtree")
    tracer.wrap(journal, "append_delta", "journal.append",
                before=files_before, after=bytes_after)
    tracer.wrap(journal, "coalesce", "journal.coalesce")
    # The fsync helpers are imported by name into the writer and lease
    # modules: wrap the binding each caller looks up.
    for module in (store_format, writer, lease, journal, store_search):
        for helper in ("fsync_fileobj", "fsync_directory", "fsync_path"):
            if helper in module.__dict__:
                tracer.wrap(module, helper, "format.fsync")
    tracer.wrap(store_search.StoreSearchIndex, "__init__", "search.construct")
    tracer.wrap(store_search, "load_search_index", "search.load")
    tracer.wrap(store_search.StoreSearchIndex, "apply_ops", "search.patch")
    tracer.wrap(core_search, "search", "search.rank")
    tracer.wrap(query, "select", "query.select")
    tracer.wrap(checking, "check", "checking.check",
                before=shards_before, after=shards_after)
    tracer.wrap(checking, "run_rules", "analysis.scan")
    tracer.wrap(analysis.IncrementalChecker, "check", "analysis.incremental")
    tracer.wrap(obligations.ObligationCache, "result", "obligations.lookup")
    tracer.wrap(obligations, "discharge", "obligations.discharge")
    try:
        import repro.service.server as server
    except ImportError:  # pragma: no cover - the service ships with repro
        return
    # The service imported the facade by name at import time.
    tracer.wrap(server, "run_check", "checking.check",
                before=shards_before, after=shards_after)


def install_service_context() -> None:
    """Carry the request id from HTTP headers into the server's spans.

    The request id arrives as an ``X-Request-Id`` header; the wrapper
    sets it in the connection task's context, and reads moved to worker
    threads run inside a copy of that context.
    """
    import asyncio

    from repro.service.server import ArgumentService

    read_request = ArgumentService.__dict__["_read_request"]

    async def _read_request(self: Any, reader: Any) -> Any:
        request = await read_request(self, reader)
        if request is not None:
            REQUEST_ID.set(request[2].get("x-request-id"))
        return request

    async def _in_thread(func: Any, *args: Any) -> Any:
        context = contextvars.copy_context()
        return await asyncio.get_running_loop().run_in_executor(
            None, context.run, func, *args
        )

    ArgumentService._read_request = _read_request  # type: ignore[method-assign]
    ArgumentService._in_thread = staticmethod(_in_thread)  # type: ignore[method-assign]


# -- turning spans into metrics ------------------------------------------------


def self_times(spans: "list[tuple]") -> "dict[int, int]":
    """Span id -> self time in ns (duration minus its children's)."""
    covered: "dict[int, int]" = {}
    for span in spans:
        parent = span[4]
        if parent is not None:
            covered[parent] = covered.get(parent, 0) + span[3] - span[2]
    return {
        span[0]: max(0, span[3] - span[2] - covered.get(span[0], 0))
        for span in spans
    }


def _median_ms(values: "list[int]") -> float:
    return statistics.median(values) / 1e6 if values else 0.0


def layer_metrics(
    spans: "list[tuple]", *, ops: int, searches: int
) -> "dict[str, float]":
    """Per-layer metrics of one traced pass.

    ``ops`` is the pass's completed operations and ``searches`` the
    search and query requests among them.  Writes are the journal
    appends; proofs and proof-cache hits come from the obligation
    spans (every lookup that did not discharge was a hit).
    """
    own = self_times(spans)
    total: "dict[str, list[int]]" = {}
    alone: "dict[str, list[int]]" = {}
    direct: "dict[str, list[int]]" = {}
    attrs: "dict[str, list[dict]]" = {}
    for span in spans:
        total.setdefault(span[1], []).append(span[3] - span[2])
        if span[4] is None:
            direct.setdefault(span[1], []).append(span[3] - span[2])
        alone.setdefault(span[1], []).append(own[span[0]])
        if span[6]:
            attrs.setdefault(span[1], []).append(span[6])

    def count(name: str) -> int:
        return len(total.get(name, ()))

    def per(numerator: float, denominator: int) -> float:
        return numerator / denominator if denominator else 0.0

    adopts = attrs.get("store.adopt", [])
    writes = count("journal.append")
    proofs = count("obligations.discharge")
    hits = count("obligations.lookup") - proofs
    return {
        "store.open_ms": _median_ms(total.get("store.open", [])),
        "store.opens_per_op": per(count("store.open"), ops),
        "store.refresh_ms": _median_ms(total.get("store.refresh", [])),
        "store.adopt_hit_ratio": per(
            sum(1 for item in adopts if item["hit"]), len(adopts)
        ),
        # Reads the workload asked for, not those made inside search.
        "store.node_ms": _median_ms(direct.get("store.node", [])),
        "store.subtree_ms": _median_ms(direct.get("store.subtree", [])),
        "store.shards_read_per_check": per(
            sum(item["shards"] for item in attrs.get("checking.check", [])),
            count("checking.check"),
        ),
        "store.bytes_written_per_edit": per(
            sum(item["bytes"] for item in attrs.get("journal.append", [])),
            count("journal.append"),
        ),
        "journal.append_ms": _median_ms(alone.get("journal.append", [])),
        "journal.coalesce_count": float(count("journal.coalesce")),
        "journal.coalesce_ms": _median_ms(total.get("journal.coalesce", [])),
        "format.fsyncs_per_write": per(count("format.fsync"), writes),
        "format.fsync_ms": _median_ms(total.get("format.fsync", [])),
        "search.sidecar_parses_per_request": per(
            count("search.construct"), searches
        ),
        "search.sidecar_load_ms": per(
            sum(total.get("search.load", [])) / 1e6, searches
        ),
        "search.patch_ms": _median_ms(total.get("search.patch", [])),
        "search.rank_ms": _median_ms(alone.get("search.rank", [])),
        "query.select_ms": _median_ms(alone.get("query.select", [])),
        "checking.check_ms": _median_ms(total.get("checking.check", [])),
        "analysis.scan_ms": _median_ms(alone.get("analysis.scan", [])),
        "analysis.incremental_ms": _median_ms(
            alone.get("analysis.incremental", [])
        ),
        "obligations.proofs_per_op": per(proofs, ops),
        "obligations.hit_ratio": per(hits, hits + proofs),
        "obligations.discharge_ms": _median_ms(
            total.get("obligations.discharge", [])
        ),
    }


def request_self_ms(
    spans: "list[tuple]", requests: "list[tuple[str, str, int]]"
) -> "dict[str, float]":
    """``service.<route>.self_ms``: client latency minus server spans.

    ``requests`` holds ``(request id, route, latency ns)`` as the client
    measured them; the server time subtracted is the duration of the
    request's top-level spans (those with no parent span).
    """
    inside: "dict[str, int]" = {}
    for span in spans:
        if span[5] is not None and span[4] is None:
            inside[span[5]] = inside.get(span[5], 0) + span[3] - span[2]
    per_route: "dict[str, list[int]]" = {}
    for request_id, route, latency in requests:
        per_route.setdefault(route, []).append(
            max(0, latency - inside.get(request_id, 0))
        )
    return {route: _median_ms(values) for route, values in per_route.items()}
