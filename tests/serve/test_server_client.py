"""TCP front end + retrying client, over real sockets on port 0."""

import socket
import threading

import pytest

from repro.serve.client import RetriesExhausted, ServeClient, ServeClientError
from repro.serve.server import ServeServer
from repro.serve.service import QueryService
from repro.workloads import serve_databases


@pytest.fixture()
def server():
    service = QueryService(serve_databases(), workers=2)
    serve_server = ServeServer(service, port=0)
    serve_server.start()
    yield serve_server
    serve_server.stop()


@pytest.fixture()
def client(server):
    host, port = server.address
    with ServeClient(host, port, seed=0) as serve_client:
        yield serve_client


class TestRoundtrips:
    def test_ping(self, client):
        pong = client.ping()
        assert pong["ok"] and pong["version"] >= 1

    def test_query(self, client):
        reply = client.query("main", "{ x | S(x) }")
        assert reply["ok"]
        assert reply["result"] == "SetVal([Atom('a'), Atom('c')])"
        assert reply["undefined"] is False
        assert reply["backend"]

    def test_explain(self, client):
        text = client.explain("main", "{ x | S(x) }", run=True)
        assert "actuals:" in text

    def test_stats(self, client):
        client.query("main", "{ x | S(x) }")
        stats = client.stats()
        assert stats["metrics"]["serve.queries.completed"] == 1
        assert stats["service"]["accepting"]

    def test_load_then_query(self, client):
        client.load("tiny", {"R": "U"}, {"R": ["p", "q"]})
        reply = client.query("tiny", "{ x | R(x) }")
        assert reply["result"] == "SetVal([Atom('p'), Atom('q')])"

    def test_concurrent_clients_share_the_service(self, server):
        host, port = server.address
        results = []
        lock = threading.Lock()

        def hit():
            with ServeClient(host, port, seed=0) as serve_client:
                for _ in range(5):
                    reply = serve_client.query("main", "{ x | S(x) }")
                    with lock:
                        results.append(reply["result"])

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 20
        assert set(results) == {"SetVal([Atom('a'), Atom('c')])"}
        stats = ServeClient(host, port).stats()
        assert stats["metrics"]["db.main.memo.hits"] >= 19


class TestErrorsOverTheWire:
    def test_unknown_db_is_non_retryable(self, client):
        with pytest.raises(ServeClientError) as exc_info:
            client.query("nope", "{ 1 }")
        assert exc_info.value.type == "unknown-database"
        assert not exc_info.value.retryable

    def test_bad_query_text_is_non_retryable(self, client):
        with pytest.raises(ServeClientError) as exc_info:
            client.query("main", "{ x | Zzz(x) }")
        assert not exc_info.value.retryable

    def test_malformed_line_keeps_connection_alive(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            error = reader.readline()
            assert b'"ok": false' in error and b"protocol" in error
            # Same connection still answers a well-formed request.
            sock.sendall(b'{"op": "PING"}\n')
            assert b'"ok": true' in reader.readline()

    def test_unknown_op_is_protocol_error(self, client):
        with pytest.raises(ServeClientError) as exc_info:
            client.call({"op": "DELETE"}, retry=False)
        assert exc_info.value.type == "protocol"

    @pytest.mark.parametrize(
        "fields",
        [
            {"op": "QUERY", "priority": "x"},
            {"op": "UPDATE", "assert": {"S": ["z"]}, "priority": None},
            {"op": "QUERY", "timeout": "abc"},
            {"op": "QUERY", "timeout": [1]},
            {"op": "STATS", "trace_limit": "abc"},
            {"op": "STATS", "trace_limit": 1.5},
        ],
    )
    def test_malformed_wire_fields_are_protocol_errors(self, server, client, fields):
        message = {"db": "main", "query": "{ x | S(x) }", **fields}
        with pytest.raises(ServeClientError) as exc_info:
            client.call(message, retry=False)
        assert exc_info.value.type == "protocol"
        assert server.service.metrics.counter("serve.queries.accepted").value == 0


class TestRetries:
    def test_retryable_rejection_retries_then_succeeds(self, server, monkeypatch):
        # First two answers are admission rejections, then the real one.
        host, port = server.address
        client = ServeClient(host, port, seed=0, backoff=0.001)
        real = client._roundtrip
        rejections = iter([0, 1])

        def flaky(message):
            if next(rejections, None) is not None:
                return {
                    "op": message["op"],
                    "ok": False,
                    "error": {"type": "rejected", "message": "full", "retryable": True},
                }
            return real(message)

        monkeypatch.setattr(client, "_roundtrip", flaky)
        reply = client.query("main", "{ x | S(x) }")
        assert reply["ok"]

    def test_retries_exhausted_carries_last_error(self, server, monkeypatch):
        host, port = server.address
        client = ServeClient(host, port, seed=0, retries=2, backoff=0.001)

        def always_full(message):
            return {
                "op": message["op"],
                "ok": False,
                "error": {"type": "rejected", "message": "full", "retryable": True},
            }

        monkeypatch.setattr(client, "_roundtrip", always_full)
        with pytest.raises(RetriesExhausted) as exc_info:
            client.query("main", "{ x | S(x) }")
        assert exc_info.value.type == "rejected"

    def test_transport_error_reconnects(self, server):
        host, port = server.address
        client = ServeClient(host, port, seed=0, backoff=0.001)
        assert client.ping()["ok"]
        # Kill the socket out from under the client; the next call
        # must reconnect and succeed.
        client._sock.close()
        assert client.ping()["ok"]
        client.close()

    def test_no_retry_raises_transport_error_immediately(self):
        # Nothing listens on this port: connect fails, retry=False
        # surfaces it as a typed client error at once.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        client = ServeClient("127.0.0.1", free_port, retries=0, backoff=0.001)
        with pytest.raises((ServeClientError, RetriesExhausted)):
            client.call({"op": "PING"}, retry=False)

    def test_backoff_is_capped_exponential_with_jitter(self):
        client = ServeClient(backoff=0.1, backoff_cap=0.4, jitter=0.0, seed=1)
        slept = []
        import repro.serve.client as client_module

        original = client_module.time.sleep
        client_module.time.sleep = slept.append
        try:
            for attempt in range(4):
                client._sleep(attempt)
        finally:
            client_module.time.sleep = original
        assert slept == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.4),
        ]

    def test_jitter_is_seeded_and_bounded(self):
        first = ServeClient(backoff=1.0, backoff_cap=10.0, jitter=0.5, seed=7)
        second = ServeClient(backoff=1.0, backoff_cap=10.0, jitter=0.5, seed=7)
        for client in (first, second):
            client._delays = []
        import repro.serve.client as client_module

        original = client_module.time.sleep
        try:
            client_module.time.sleep = first._delays.append
            for attempt in range(5):
                first._sleep(attempt)
            client_module.time.sleep = second._delays.append
            for attempt in range(5):
                second._sleep(attempt)
        finally:
            client_module.time.sleep = original
        assert first._delays == second._delays  # seeded → reproducible
        for attempt, delay in enumerate(first._delays):
            base = min(1.0 * (2 ** attempt), 10.0)
            assert 0.5 * base <= delay <= 1.5 * base
