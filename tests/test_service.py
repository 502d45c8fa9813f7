"""The asyncio HTTP/JSON argument service, end to end.

Every endpoint through a real socket (server on a background event-loop
thread, :class:`~repro.service.ServiceClient` over ``http.client``),
the error contract (400/404/405/409), the optimistic-concurrency append
protocol with ``expect_generation``, the offline-edit bridge
(``ops_for_delta``), lazy store discovery, and — the point of the
subsystem — concurrent mixed traffic: reader threads hammering query /
node / check while writer threads append, with every response naming a
coherent generation and no request ever failing.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from typing import Any

import pytest

import repro
from repro.claims import GSN_OBLIGATION_RULES, OBLIGATION_KEY
from repro.core import ArgumentBuilder
from repro.core.analysis import worker_cap
from repro.core.argument import Argument, LinkKind
from repro.core.nodes import Node, NodeType
from repro.service import ArgumentService, ServiceClient, ServiceClientError
from repro.service.client import ops_for_delta
from repro.service.server import MAX_SEARCH_LIMIT
from repro.store import StoredArgument
from repro.store.journal import COALESCE_AFTER

pytestmark = pytest.mark.service

STORE = "braking.store"


def build_case() -> Argument:
    builder = ArgumentBuilder("braking-system")
    top = builder.goal("The braking system is acceptably safe")
    strategy = builder.strategy(
        "Argument over each identified hazard", under=top
    )
    for index in (1, 2):
        hazard = builder.goal(
            f"Hazard H{index} is acceptably managed", under=strategy
        )
        builder.solution(f"Mitigation record MR-{index}", under=hazard)
    return builder.build()


class ServiceFixture:
    """A served root directory: background loop, bound port, clients."""

    def __init__(self, root) -> None:
        self.root = root
        self.loop = asyncio.new_event_loop()
        self.service = ArgumentService(root)
        bound: "dict[str, tuple[str, int]]" = {}
        ready = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            bound["address"] = self.loop.run_until_complete(
                self.service.start()
            )
            ready.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=serve, daemon=True)
        self.thread.start()
        assert ready.wait(10), "service failed to start"
        self.host, self.port = bound["address"]
        self._clients: "list[ServiceClient]" = []

    def client(self) -> ServiceClient:
        client = ServiceClient(self.host, self.port)
        self._clients.append(client)
        return client

    def stop(self) -> None:
        for client in self._clients:
            client.close()
        future = asyncio.run_coroutine_threadsafe(
            self.service.close(), self.loop
        )
        future.result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        assert not self.thread.is_alive(), "service loop failed to stop"
        self.loop.close()


@pytest.fixture()
def served(tmp_path):
    build_case().save(tmp_path / STORE)
    fixture = ServiceFixture(tmp_path)
    try:
        yield fixture
    finally:
        fixture.stop()


class TestReadEndpoints:
    def test_health_counts_stores(self, served):
        payload = served.client().health()
        assert payload == {"status": "ok", "stores": 1}

    def test_stores_lists_summaries(self, served):
        (summary,) = served.client().stores()
        assert summary["name"] == STORE
        assert summary["argument"] == "braking-system"
        assert summary["nodes"] == 6
        assert summary["journal_segments"] == 0
        assert "+" in summary["generation"]

    def test_store_summary_and_node(self, served):
        client = served.client()
        summary = client.store(STORE)
        assert summary["links"] == 5
        top = client.node(STORE, "G1")
        assert top["node"]["type"] == "goal"
        assert top["generation"] == summary["generation"]

    def test_subtree_is_closed_over_links(self, served):
        subtree = served.client().subtree(STORE, "S1")
        identifiers = {node["id"] for node in subtree["nodes"]}
        for link in subtree["links"]:
            assert link["source"] in identifiers
            assert link["target"] in identifiers
        assert len(identifiers) == 5, "strategy + 2 hazards + 2 solutions"

    def test_query_json_mirrors_the_combinators(self, served):
        client = served.client()
        goals = client.query(STORE, {"type": "goal"})
        assert len(goals["nodes"]) == 3
        hazard_goals = client.query(STORE, {"all": [
            {"type": "goal"}, {"text_contains": "hazard"},
        ]})
        assert len(hazard_goals["nodes"]) == 2
        non_goals = client.query(STORE, {"not": {"type": "goal"}})
        assert len(non_goals["nodes"]) == 3
        either = client.query(STORE, {"any": [
            {"type": "solution"}, {"type": "strategy"},
        ]})
        assert len(either["nodes"]) == 3
        case_sensitive = client.query(STORE, {"text_contains": {
            "needle": "Hazard", "case_sensitive": True,
        }})
        assert len(case_sensitive["nodes"]) == 2

    def test_check_streams_the_rules(self, served):
        verdict = served.client().check(STORE)
        assert verdict["well_formed"] is True
        assert verdict["violations"] == []

    def test_check_reports_violations_with_rule_names(self, served, tmp_path):
        broken = Argument("broken")
        broken.add_node(Node("G0", NodeType.GOAL, "An unsupported claim"))
        broken.save(tmp_path / "broken.store")
        verdict = served.client().check("broken.store")
        assert verdict["well_formed"] is False
        assert any(v["subject"] == "G0" for v in verdict["violations"])

    def test_lazy_discovery_of_new_stores(self, served, tmp_path):
        client = served.client()
        assert client.health()["stores"] == 1
        build_case().save(tmp_path / "late.store")
        assert client.health()["stores"] == 2
        assert client.store("late.store")["argument"] == "braking-system"


class TestSearchEndpoint:
    def test_search_ranks_marks_and_renders_neighbourhoods(self, served):
        payload = served.client().search(STORE, "hazard mitigation")
        assert payload["q"] == "hazard mitigation"
        assert "+" in payload["generation"]
        hits = payload["hits"]
        assert hits, "both hazard goals and the strategy match"
        assert {hit["id"] for hit in hits} >= {"G2", "G3", "S1"}
        top = hits[0]
        assert any(
            "[hazard]" in hit["snippet"].lower() for hit in hits
        ), "matched terms must be marked in the snippets"
        assert top["matched_terms"]
        assert isinstance(top["score"], float)
        strategy = next(hit for hit in hits if hit["id"] == "S1")
        assert strategy["neighbourhood"], (
            "the strategy's supporting goals must render"
        )
        assert "└─" in strategy["summary"]
        scores = [hit["score"] for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_search_limit_caps_the_hits(self, served):
        payload = served.client().search(STORE, "hazard", limit=1)
        assert len(payload["hits"]) == 1

    def test_a_limit_above_the_cap_is_400_naming_it(self, served):
        client = served.client()
        assert client.search(STORE, "hazard", limit=MAX_SEARCH_LIMIT)
        for limit in (MAX_SEARCH_LIMIT + 1, 10**9):
            with pytest.raises(ServiceClientError) as excinfo:
                client.search(STORE, "hazard", limit=limit)
            assert excinfo.value.status == 400, limit
            assert f"at most {MAX_SEARCH_LIMIT}" in excinfo.value.detail

    def test_a_read_of_a_swept_snapshot_is_409_not_500(self, served):
        client = served.client()
        client.store(STORE)  # the service opens its snapshot, reads nothing
        path = served.root / STORE
        editor = Argument.load(path)
        editor.add_node(Node("X1", NodeType.GOAL, "A late claim holds"))
        editor.save(path, journal=True)
        live = StoredArgument(path)
        live.compact()
        assert live.gc()
        with pytest.raises(ServiceClientError) as excinfo:
            client.search(STORE, "hazard")
        assert excinfo.value.status == 409
        assert "swept by gc()" in excinfo.value.detail

    def test_search_agrees_between_indexed_and_unindexed_stores(
        self, served, tmp_path
    ):
        build_case().save(tmp_path / "indexed.store", search_index=True)
        client = served.client()
        plain = client.search(STORE, "mitigation record")
        indexed = client.search("indexed.store", "mitigation record")
        assert [
            (hit["id"], hit["score"]) for hit in plain["hits"]
        ] == [(hit["id"], hit["score"]) for hit in indexed["hits"]]

    def test_malformed_search_bodies_are_400(self, served):
        client = served.client()
        for bad_body in (
            {},
            {"q": ""},
            {"q": "   "},
            {"q": 7},
            {"q": "hazard", "limit": 0},
            {"q": "hazard", "limit": True},
            {"q": "hazard", "limit": "ten"},
            "not an object",
        ):
            with pytest.raises(ServiceClientError) as excinfo:
                client._request(
                    "POST", f"/stores/{STORE}/search", bad_body
                )
            assert excinfo.value.status == 400, bad_body
            assert excinfo.value.detail

    def test_search_on_unknown_store_is_404(self, served):
        with pytest.raises(ServiceClientError) as excinfo:
            served.client().search("nope.store", "hazard")
        assert excinfo.value.status == 404


class TestErrorContract:
    def test_unknown_store_and_node_are_404(self, served):
        client = served.client()
        with pytest.raises(ServiceClientError) as excinfo:
            client.store("nope.store")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceClientError) as excinfo:
            client.node(STORE, "NOPE")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404_and_wrong_method_405(self, served):
        client = served.client()
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/frobnicate")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/health")
        assert excinfo.value.status == 405

    def test_store_names_cannot_escape_the_root(self, served):
        with pytest.raises(ServiceClientError) as excinfo:
            served.client()._request("GET", "/stores/..%2f..%2fetc")
        assert excinfo.value.status == 404

    def test_malformed_queries_are_400_with_guidance(self, served):
        client = served.client()
        for bad in (
            {"type": "gaol"},
            {"frobnicate": 1},
            {"all": []},
            {"type": "goal", "extra": 1},
            "not an object",
        ):
            with pytest.raises(ServiceClientError) as excinfo:
                client.query(STORE, bad)  # type: ignore[arg-type]
            assert excinfo.value.status == 400, bad
            assert excinfo.value.detail, "errors must explain themselves"

    def test_malformed_append_bodies_are_400(self, served):
        client = served.client()
        for bad_body in (
            {"not_ops": []},
            {"ops": ["a string"]},
            {"ops": [{"op": "frobnicate"}]},
            {"ops": [{"op": "add_node"}]},
        ):
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("POST", f"/stores/{STORE}/append", bad_body)
            assert excinfo.value.status == 400, bad_body

    def test_unknown_check_modes_are_400_listing_the_valid_ones(
        self, served
    ):
        client = served.client()
        for mode in ("full", "psychic"):
            with pytest.raises(ServiceClientError) as excinfo:
                client.check(STORE, mode=mode)
            assert excinfo.value.status == 400, mode
            for valid in ("auto", "serial", "streaming", "parallel"):
                assert valid in excinfo.value.detail, (mode, valid)
            assert "full" not in excinfo.value.detail

    def test_workers_above_the_cap_are_400_naming_it(self, served):
        # Refused before any pool exists: no process starts.
        cap = worker_cap()
        client = served.client()
        for workers in (cap + 1, 10_000):
            with pytest.raises(ServiceClientError) as excinfo:
                client.check(STORE, mode="parallel", workers=workers)
            assert excinfo.value.status == 400, workers
            assert f"at most {cap}" in excinfo.value.detail

    def test_non_json_body_is_400(self, served):
        import http.client

        connection = http.client.HTTPConnection(
            served.host, served.port, timeout=10
        )
        try:
            connection.request(
                "POST", f"/stores/{STORE}/query", b"{not json",
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert b"JSON" in response.read()
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "declared, status",
        [("abc", 400), ("-1", 400), ("+5", 400), ("1e3", 400), ("", 400),
         ("9" * 5000, 413)],
        ids=["letters", "negative", "signed", "exponent", "empty",
             "overlong"],
    )
    def test_malformed_content_length_is_answered_then_closed(
        self, served, declared, status
    ):
        import socket

        request = (
            f"POST /stores/{STORE}/query HTTP/1.1\r\n"
            f"Host: x\r\nContent-Length: {declared}\r\n\r\n{{}}"
        ).encode("latin-1")
        with socket.create_connection(
            (served.host, served.port), timeout=10
        ) as sock:
            sock.sendall(request)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        status_line = received.split(b"\r\n", 1)[0]
        assert status_line.startswith(f"HTTP/1.1 {status} ".encode()), (
            received[:200]
        )
        assert b"Connection: close" in received

    def test_unhandled_errors_are_500_and_logged(
        self, served, monkeypatch, caplog
    ):
        def broken_node(self, identifier):
            raise RuntimeError("simulated read fault")

        monkeypatch.setattr(StoredArgument, "node", broken_node)
        client = served.client()
        with caplog.at_level("ERROR", logger="repro.service"):
            with pytest.raises(ServiceClientError) as excinfo:
                client.node(STORE, "G1")
        assert excinfo.value.status == 500
        assert "simulated read fault" in excinfo.value.detail
        (record,) = [
            record for record in caplog.records
            if record.name == "repro.service"
        ]
        assert f"GET /stores/{STORE}/nodes/G1" in record.getMessage()
        assert record.exc_info is not None
        assert record.exc_info[0] is RuntimeError


class TestAppendProtocol:
    HAZARD_OPS = [
        {"op": "add_node", "node": {
            "id": "G-H3", "type": "goal",
            "text": "Hazard H3 is acceptably managed",
        }},
        {"op": "add_link", "link": {
            "source": "S1", "target": "G-H3", "kind": "supported_by",
        }},
    ]

    def test_append_advances_the_generation(self, served):
        client = served.client()
        before = client.store(STORE)["generation"]
        result = client.append(STORE, self.HAZARD_OPS)
        assert result["applied"] == 2
        assert result["nodes"] == 7
        assert result["generation"] != before
        assert client.node(STORE, "G-H3")["node"]["type"] == "goal"

    def test_expect_generation_matching_lands(self, served):
        client = served.client()
        generation = client.store(STORE)["generation"]
        result = client.append(
            STORE, self.HAZARD_OPS, expect_generation=generation
        )
        assert result["applied"] == 2

    def test_stale_expect_generation_is_409_then_rebases(self, served):
        first = served.client()
        second = served.client()
        generation = first.store(STORE)["generation"]
        first.append(STORE, self.HAZARD_OPS, expect_generation=generation)
        evidence = [{"op": "add_node", "node": {
            "id": "Sn-H3", "type": "solution", "text": "Report DR-3",
        }}]
        with pytest.raises(ServiceClientError) as excinfo:
            second.append(STORE, evidence, expect_generation=generation)
        assert excinfo.value.status == 409
        assert "rebase" in excinfo.value.detail
        current = second.store(STORE)["generation"]
        result = second.append(
            STORE, evidence, expect_generation=current
        )
        assert result["nodes"] == 8, "both editors' nodes present"

    def test_append_is_durable_not_just_in_memory(self, served, tmp_path):
        served.client().append(STORE, self.HAZARD_OPS)
        reloaded = StoredArgument(tmp_path / STORE)
        assert "G-H3" in reloaded, "append must hit the store directory"
        assert reloaded.journal_segments, "service appends journal"

    def test_ops_for_delta_bridges_offline_edits(self, served, tmp_path):
        store = tmp_path / STORE
        argument = Argument.load(store)
        argument.add_node(Node(
            "C1", NodeType.CONTEXT, "Operating on public roads",
        ))
        argument.add_link("G1", "C1", LinkKind.IN_CONTEXT_OF)
        delta = argument.persisted_delta(store)
        assert delta is not None
        client = served.client()
        result = client.append(STORE, delta)
        assert result["applied"] == len(delta)
        assert client.node(STORE, "C1")["node"]["type"] == "context"

    def test_an_append_decodes_only_its_own_segment(
        self, served, monkeypatch
    ):
        import repro.store.journal as journal_module

        client = served.client()

        def hazard_ops(index: int) -> "list[dict[str, Any]]":
            return [{"op": "add_node", "node": {
                "id": f"G-X{index}", "type": "goal",
                "text": f"Hazard X{index} is acceptably managed",
            }}, {"op": "add_link", "link": {
                "source": "S1", "target": f"G-X{index}",
                "kind": "supported_by",
            }}]

        for index in range(8):
            client.append(STORE, hazard_ops(index))
        decoded: list[str] = []
        original = journal_module.decode_op

        def counting_decode(record, segment):
            decoded.append(segment)
            return original(record, segment)

        monkeypatch.setattr(journal_module, "decode_op", counting_decode)
        for index in range(8, 12):
            decoded.clear()
            result = client.append(STORE, hazard_ops(index))
            assert result["nodes"] == 7 + index
            # The new segment, plus the tail check of the one before it.
            assert len(decoded) <= 4, (
                f"append {index} decoded {len(decoded)} records: the new "
                "snapshot must extend its predecessor's parsed journal"
            )
        assert client.node(STORE, "G-X11")["node"]["type"] == "goal"

    def test_compact_and_gc_fold_the_journal(self, served, tmp_path):
        client = served.client()
        client.append(STORE, self.HAZARD_OPS)
        assert client.store(STORE)["journal_segments"] == 1
        compacted = client.compact(STORE)
        assert client.store(STORE)["journal_segments"] == 0
        swept = client.gc(STORE)
        assert swept["generation"] == compacted["generation"]
        assert swept["removed"], "superseded journal files reclaimed"
        assert "G-H3" in StoredArgument(tmp_path / STORE)


class TestConcurrentTraffic:
    def test_mixed_readers_and_writers_never_fail(self, served):
        """8 threads × mixed traffic: every response coherent, no 5xx."""
        rounds = 12
        errors: "list[BaseException]" = []
        generations: "list[str]" = []

        def writer(worker: int) -> None:
            client = served.client()
            try:
                for round_index in range(rounds):
                    while True:
                        generation = client.store(STORE)["generation"]
                        ops = [{"op": "add_node", "node": {
                            "id": f"W{worker}R{round_index}",
                            "type": "context",
                            "text": f"Edit {worker}/{round_index}",
                        }}]
                        try:
                            result = client.append(
                                STORE, ops, expect_generation=generation
                            )
                            generations.append(result["generation"])
                            break
                        except ServiceClientError as error:
                            if error.status != 409:
                                raise
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        def reader() -> None:
            client = served.client()
            try:
                for _ in range(rounds * 2):
                    payload = client.query(STORE, {"type": "goal"})
                    assert len(payload["nodes"]) >= 3
                    summary = client.store(STORE)
                    assert summary["nodes"] >= 6
                    client.node(STORE, "G1")
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = (
            [threading.Thread(target=writer, args=(w,)) for w in range(2)]
            + [threading.Thread(target=reader) for _ in range(6)]
        )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors, errors
        assert len(generations) == 2 * rounds
        assert len(set(generations)) == len(generations), (
            "every committed append must mint a distinct generation"
        )
        final = served.client().store(STORE)
        assert final["nodes"] == 6 + 2 * rounds, "a service append was lost"


# -- the default check: one incremental checker per store ---------------------


def _edit(argument: Argument, step: int) -> None:
    """One edit of a session whose verdict keeps changing: unsupported
    goals come and go, evidence carries passing and failing obligations,
    claims are retexted and retyped."""
    kind = step % 5
    if kind == 0:
        argument.add_node(Node(
            f"X{step}", NodeType.GOAL, f"Hazard X{step} is managed",
        ))
        argument.add_link("S1", f"X{step}", LinkKind.SUPPORTED_BY)
    elif kind == 1:
        spec = "valid: p | ~p" if step % 2 else "valid: p"
        argument.add_node(Node(
            f"E{step}", NodeType.SOLUTION, f"Analysis record {step}",
            metadata=((OBLIGATION_KEY, (spec,)),),
        ))
        argument.add_link(f"X{step - 1}", f"E{step}", LinkKind.SUPPORTED_BY)
    elif kind == 2:
        old = argument.node(f"X{step - 2}")
        argument.replace_node(old.with_text(f"Hazard X{step - 2} is closed"))
    elif kind == 3:
        old = argument.node(f"E{step - 2}")
        argument.replace_node(Node(old.identifier, NodeType.GOAL, old.text))
    else:
        argument.remove_node(f"X{step - 4}")


def _verdict(violations) -> list:
    return [
        (v["rule"], v["subject"], v["detail"]) if isinstance(v, dict)
        else (v.rule, v.subject, v.detail)
        for v in violations
    ]


def _streaming(handle: StoredArgument) -> list:
    report = repro.check(handle, GSN_OBLIGATION_RULES, mode="streaming")
    return _verdict(report)


class TestIncrementalCheck:
    def test_default_check_equals_streaming_at_every_generation(
        self, served, tmp_path
    ):
        path = tmp_path / STORE
        client = served.client()
        argument = StoredArgument(path).load()
        verdicts = set()

        def expect_fresh_equivalent() -> None:
            reply = client.check(STORE)
            handle = StoredArgument(path)
            assert reply["generation"] == str(handle.generation)
            assert reply["mode"] == "incremental"
            expected = _streaming(handle)
            assert _verdict(reply["violations"]) == expected, (
                f"generation {reply['generation']}"
            )
            assert reply["well_formed"] is (not expected)
            assert reply["obligations"]["failed"] == sum(
                rule == "evidence-obligation" for rule, _, _ in expected
            )
            verdicts.add(tuple(expected))

        expect_fresh_equivalent()
        for step in range(COALESCE_AFTER + 6):
            seq = argument.mutation_seq
            _edit(argument, step)
            client.append(STORE, argument.delta_since(seq))
            expect_fresh_equivalent()
        assert client.store(STORE)["journal_segments"] < COALESCE_AFTER, (
            "the session must have crossed an auto-coalesce"
        )
        client.compact(STORE)
        expect_fresh_equivalent()
        client.gc(STORE)
        expect_fresh_equivalent()
        argument = StoredArgument(path).load()
        for step in range(COALESCE_AFTER + 6, COALESCE_AFTER + 11):
            seq = argument.mutation_seq
            _edit(argument, step)
            client.append(STORE, argument.delta_since(seq))
            expect_fresh_equivalent()
        assert len(verdicts) > 10, "the session must move the verdict"
        one_shot = client.check(STORE, mode="streaming")
        assert one_shot["mode"] == "streaming"
        assert _verdict(one_shot["violations"]) == \
            _streaming(StoredArgument(path))

    def test_appends_that_move_the_roots_match_streaming(
        self, served, tmp_path
    ):
        # Each append can change the root list, so the single-root hook
        # declines and the served check runs the full rule.
        path = tmp_path / STORE
        client = served.client()
        argument = StoredArgument(path).load()
        client.check(STORE)
        edits = (
            lambda: argument.add_node(Node(
                "R1", NodeType.GOAL, "A second claim holds",
                undeveloped=True,
            )),
            lambda: argument.add_link("S1", "R1", LinkKind.SUPPORTED_BY),
            lambda: argument.remove_node("R1"),
        )
        root_details = []
        for edit in edits:
            seq = argument.mutation_seq
            edit()
            client.append(STORE, argument.delta_since(seq))
            reply = client.check(STORE)
            assert reply["mode"] == "incremental"
            handle = StoredArgument(path)
            assert reply["generation"] == str(handle.generation)
            expected = _streaming(handle)
            assert _verdict(reply["violations"]) == expected, (
                f"generation {reply['generation']}"
            )
            root_details.append([
                detail for rule, _, detail in expected
                if rule == "single-root"
            ])
        assert root_details == [
            ["argument has 2 root goals (G1, R1)"], [], [],
        ]

    def test_checks_racing_appends_match_the_generation_they_name(
        self, served, tmp_path
    ):
        path = tmp_path / STORE
        argument = StoredArgument(path).load()
        order = [str(StoredArgument(path).generation)]
        expected = {order[0]: _streaming(StoredArgument(path))}
        done = threading.Event()
        errors: "list[BaseException]" = []
        replies: "list[list[dict]]" = [[], []]

        def writer() -> None:
            client = served.client()
            try:
                for step in range(COALESCE_AFTER + 6):
                    seq = argument.mutation_seq
                    _edit(argument, step)
                    reply = client.append(STORE, argument.delta_since(seq))
                    # One writer: the disk stays at this generation
                    # until its next append.
                    handle = StoredArgument(path)
                    assert str(handle.generation) == reply["generation"]
                    expected[reply["generation"]] = _streaming(handle)
                    order.append(reply["generation"])
            except BaseException as error:  # pragma: no cover
                errors.append(error)
            finally:
                done.set()

        def checker(seen: "list[dict]") -> None:
            client = served.client()
            try:
                while not done.is_set():
                    seen.append(client.check(STORE))
                seen.append(client.check(STORE))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=checker, args=(seen,))
            for seen in replies
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        position = {generation: index for index, generation in
                    enumerate(order)}
        for seen in replies:
            assert seen[-1]["generation"] == order[-1]
            steps = [position[reply["generation"]] for reply in seen]
            assert steps == sorted(steps), "a checker moved backwards"
            for reply in seen:
                assert _verdict(reply["violations"]) == \
                    expected[reply["generation"]], reply["generation"]

    def test_the_outgoing_snapshot_is_freed_by_refcount(self, served):
        import gc
        import weakref

        client = served.client()
        client.check(STORE)
        client.search(STORE, "hazard")
        client.query(STORE, {"text_contains": "hazard"})
        outgoing = weakref.ref(served.service._stores[STORE].snapshot)
        gc.collect()
        gc.disable()
        try:
            client.append(STORE, TestAppendProtocol.HAZARD_OPS)
            assert client.search(STORE, "hazard")["hits"]
            client.check(STORE)  # the store's checker moves on
            assert outgoing() is None, (
                "a superseded snapshot must die with its last reference"
            )
        finally:
            gc.enable()

    def test_no_worker_thread_pins_a_superseded_snapshot(self, served):
        # A worker thread drops its work item only after the result is
        # delivered; what it still holds then must not be the snapshot.
        # One round shows the race rarely, so run many.
        import gc
        import weakref

        client = served.client()
        survivors = 0
        for round_index in range(30):
            client.check(STORE)
            client.search(STORE, "hazard")
            outgoing = weakref.ref(served.service._stores[STORE].snapshot)
            gc.collect()
            gc.disable()
            try:
                client.append(STORE, [{"op": "add_node", "node": {
                    "id": f"Sn-R{round_index}", "type": "solution",
                    "text": f"Hazard review record {round_index}",
                }}])
                client.search(STORE, "hazard")
                client.check(STORE)
                survivors += outgoing() is not None
            finally:
                gc.enable()
        assert survivors == 0

    def test_a_check_that_fails_part_way_is_not_trusted_after(
        self, served, tmp_path, monkeypatch
    ):
        client = served.client()
        client.check(STORE)
        client.append(STORE, [
            {"op": "add_node", "node": {
                "id": "G-N", "type": "goal", "text": "Hazard N is managed",
            }},
            {"op": "add_node", "node": {
                "id": "Sn-N", "type": "solution", "text": "Report N",
            }},
            {"op": "add_link", "link": {
                "source": "G1", "target": "G-N", "kind": "supported_by",
            }},
            {"op": "add_link", "link": {
                "source": "G-N", "target": "Sn-N", "kind": "supported_by",
            }},
        ])
        healthy = StoredArgument.node

        def failing_node(self, identifier):
            raise RuntimeError("simulated read fault")

        monkeypatch.setattr(StoredArgument, "node", failing_node)
        with pytest.raises(ServiceClientError) as excinfo:
            client.check(STORE)
        assert excinfo.value.status == 500
        monkeypatch.setattr(StoredArgument, "node", healthy)
        client.append(STORE, [{"op": "remove_link", "link": {
            "source": "G-N", "target": "Sn-N", "kind": "supported_by",
        }}])
        reply = client.check(STORE)
        expected = _streaming(StoredArgument(tmp_path / STORE))
        assert any(subject == "G-N" for _, subject, _ in expected)
        assert _verdict(reply["violations"]) == expected
