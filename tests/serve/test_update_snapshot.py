"""UPDATE / SNAPSHOT over the wire, and the durable service lifecycle."""

import pytest

from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.server import ServeServer
from repro.serve.service import QueryService, StoreUnavailable

TC = "rules { T(x, y) :- E(x, y). T(x, z) :- E(x, y), T(y, z). } answer T"


def graph_db(edges):
    schema = Schema({"E": parse_type("[U, U]"), "S": parse_type("U")})
    return Database(schema, {"E": set(edges), "S": set()})


@pytest.fixture()
def durable_service(tmp_path):
    service = QueryService(
        {"main": graph_db([("a", "b"), ("b", "c")])},
        workers=2,
        data_dir=str(tmp_path / "data"),
        sync=False,
    )
    yield service
    service.close()


@pytest.fixture()
def client(durable_service):
    server = ServeServer(durable_service, port=0)
    host, port = server.start()
    with ServeClient(host, port, seed=0) as serve_client:
        yield serve_client
    server.stop(close_service=False)


class TestEmbeddedUpdate:
    def test_in_memory_update_without_store(self):
        service = QueryService(
            {"main": graph_db([("a", "b")])}, workers=1
        )
        try:
            outcome = service.update("main", asserts={"E": [["b", "c"]]})
            result = outcome.raise_for_status()
            assert result["asserted"] == 1 and result["retracted"] == 0
            assert result["durable"] is False and result["lsn"] is None
            answer = service.query("main", TC).raise_for_status()
            assert "Atom('c')" in repr(answer)
        finally:
            service.close()

    def test_snapshot_without_store_is_typed(self):
        service = QueryService(
            {"main": graph_db([("a", "b")])}, workers=1
        )
        try:
            with pytest.raises(StoreUnavailable):
                service.snapshot("main")
        finally:
            service.close()

    def test_writes_serialize_per_database(self, durable_service):
        outcomes = [
            durable_service.update("main", asserts={"E": [[str(i), str(i + 1)]]})
            for i in range(6)
        ]
        lsns = [outcome.raise_for_status()["lsn"] for outcome in outcomes]
        assert lsns == sorted(lsns)  # monotone commit order
        assert len(set(lsns)) == len(lsns)


class TestWireUpdate:
    def test_update_commits_and_queries_see_it(self, client):
        before = client.query("main", TC)["result"]
        reply = client.update("main", asserts={"E": [["c", "d"]]})
        assert reply["ok"] and reply["asserted"] == 1
        assert isinstance(reply["lsn"], int) and reply["durable"]
        after = client.query("main", TC)["result"]
        assert after != before and "Atom('d')" in after

    def test_reply_is_the_commit_summary(self, client):
        reply = client.update("main", asserts={"E": [["c", "d"]]})
        assert sorted(reply) == [
            "asserted", "durable", "lsn", "ok", "op", "retracted",
        ]

    def test_noop_update_is_lsn_free(self, client):
        reply = client.update("main", asserts={"E": [["a", "b"]]})
        assert reply["asserted"] == 0 and reply["retracted"] == 0

    def test_retract_over_the_wire(self, client):
        reply = client.update("main", retracts={"E": [["a", "b"]]})
        assert reply["retracted"] == 1
        after = client.query("main", TC)["result"]
        assert "Atom('a')" not in after

    def test_unknown_predicate_is_protocol_error(self, client):
        with pytest.raises(ServeClientError) as exc_info:
            client.update("main", asserts={"Ghost": [["a"]]})
        assert exc_info.value.type == "protocol"

    def test_ill_typed_rows_are_protocol_errors(self, client):
        with pytest.raises(ServeClientError) as exc_info:
            client.update("main", asserts={"E": [["only-one"]]})
        assert exc_info.value.type == "protocol"

    def test_empty_update_is_protocol_error(self, client):
        with pytest.raises(ServeClientError) as exc_info:
            client.call({"op": "UPDATE", "db": "main"}, retry=False)
        assert exc_info.value.type == "protocol"

    def test_snapshot_truncates_the_wal(self, client):
        client.update("main", asserts={"E": [["c", "d"]]})
        stats = client.stats()
        assert stats["databases"]["main"]["store"]["wal_size"] > 0
        reply = client.snapshot("main")
        assert reply["ok"] and reply["snapshot"].startswith("snapshot-")
        stats = client.stats()
        assert stats["databases"]["main"]["store"]["wal_size"] == 0

    def test_store_counters_in_stats(self, client):
        client.update("main", asserts={"E": [["c", "d"]]})
        stats = client.stats()
        metrics = stats["metrics"]
        assert metrics["serve.updates.applied"] == 1
        assert metrics["store.wal.appends"] == 1
        assert metrics["store.wal.bytes"] > 0
        store = stats["databases"]["main"]["store"]
        assert store["wal_appends"] == 1 and store["lsn"] == 1
        assert len(store["state_sha256"]) == 64


class TestStateDigest:
    def _count_state_bytes(self, monkeypatch) -> list:
        from repro.serve import service as service_module

        calls: list = []
        real = service_module.canonical_state_bytes

        def counting(database):
            calls.append(database)
            return real(database)

        monkeypatch.setattr(service_module, "canonical_state_bytes", counting)
        return calls

    def test_scrapes_between_commits_hash_once(self, durable_service, monkeypatch):
        calls = self._count_state_bytes(monkeypatch)
        first = durable_service.stats()["databases"]["main"]["store"]["state_sha256"]
        second = durable_service.stats()["databases"]["main"]["store"]["state_sha256"]
        assert first == second
        assert len(calls) == 1

    def test_update_changes_the_digest_to_a_fresh_one(
        self, durable_service, monkeypatch
    ):
        import hashlib

        from repro.store import canonical_state_bytes

        before = durable_service.stats()["databases"]["main"]["store"]["state_sha256"]
        durable_service.update("main", asserts={"E": [["c", "d"]]}).raise_for_status()
        calls = self._count_state_bytes(monkeypatch)
        after = durable_service.stats()["databases"]["main"]["store"]["state_sha256"]
        assert len(calls) == 1
        assert after != before
        database = durable_service.session("main").database
        assert after == hashlib.sha256(canonical_state_bytes(database)).hexdigest()

    def test_digest_survives_restart(self, tmp_path):
        data_dir = str(tmp_path / "data")
        service = QueryService(
            {"main": graph_db([("a", "b")])},
            workers=1, data_dir=data_dir, sync=False,
        )
        service.stats()  # memoize the pre-update digest
        service.update("main", asserts={"E": [["b", "c"]]}).raise_for_status()
        sha = service.stats()["databases"]["main"]["store"]["state_sha256"]
        service.close()
        recovered = QueryService(
            workers=1, data_dir=data_dir, sync=False
        )
        try:
            assert (
                recovered.stats()["databases"]["main"]["store"]["state_sha256"]
                == sha
            )
        finally:
            recovered.close()


class TestDurableLifecycle:
    def test_restart_recovers_identical_state(self, tmp_path):
        data_dir = str(tmp_path / "data")
        service = QueryService(
            {"main": graph_db([("a", "b")])},
            workers=1, data_dir=data_dir, sync=False,
        )
        service.update("main", asserts={"E": [["b", "c"]]}).raise_for_status()
        sha = service.stats()["databases"]["main"]["store"]["state_sha256"]
        answer = repr(service.query("main", TC).raise_for_status())
        service.close()

        recovered = QueryService(
            workers=1, data_dir=data_dir, sync=False
        )
        try:
            stats = recovered.stats()
            assert list(stats["databases"]) == ["main"]
            assert stats["databases"]["main"]["store"]["state_sha256"] == sha
            assert stats["metrics"]["store.recoveries"] == 1
            assert repr(recovered.query("main", TC).raise_for_status()) == answer
        finally:
            recovered.close()

    def test_disk_wins_over_seed_on_restart(self, tmp_path):
        data_dir = str(tmp_path / "data")
        service = QueryService(
            {"main": graph_db([("a", "b")])},
            workers=1, data_dir=data_dir, sync=False,
        )
        service.update("main", asserts={"E": [["b", "c"]]}).raise_for_status()
        sha = service.stats()["databases"]["main"]["store"]["state_sha256"]
        service.close()

        reseeded = QueryService(
            {"main": graph_db([("z", "z")])},  # ignored: disk wins
            workers=1, data_dir=data_dir, sync=False,
        )
        try:
            assert (
                reseeded.stats()["databases"]["main"]["store"]["state_sha256"]
                == sha
            )
        finally:
            reseeded.close()

    def test_load_refuses_replace_when_durable(self, durable_service):
        from repro.serve.service import ServeError

        with pytest.raises(ServeError, match="replace"):
            durable_service.load("main", graph_db([]), replace=True)

    def test_loaded_database_becomes_durable(self, durable_service):
        durable_service.load("extra", graph_db([("x", "y")]))
        assert "extra" in durable_service.store.names()
        outcome = durable_service.update("extra", asserts={"E": [["y", "z"]]})
        assert outcome.raise_for_status()["durable"] is True
