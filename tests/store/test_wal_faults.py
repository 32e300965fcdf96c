"""Failed WAL appends: a commit that fails leaves no record behind.

Faults are injected into single appends: a write that puts half the
record into the file and then raises, and an fsync that raises.  A
failed write is undone and the next commit succeeds; a failed fsync is
undone too, and fail-stops the log until the store is reopened.
"""

import random

import pytest

from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.serve.service import QueryService
from repro.store import apply_ops
from repro.store.codec import rows_from_json
from repro.store.durable import DurableDatabase
from repro.store.snapshot import canonical_state_bytes
from repro.store.wal import WalError, WriteAheadLog, read_records


class _TornWrite:
    """A file handle whose next write stores half its bytes, then raises."""

    def __init__(self, handle):
        self._handle = handle
        self.armed = True

    def write(self, data):
        if self.armed:
            self.armed = False
            self._handle.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


class _FailingFsync:
    """Replaces ``os.fsync`` in the log module; raises while ``failing``."""

    def __init__(self, real):
        self.real = real
        self.failing = False
        self.calls = 0

    def __call__(self, fd):
        self.calls += 1
        if self.failing:
            raise OSError(5, "Input/output error")
        return self.real(fd)


@pytest.fixture()
def fsync(monkeypatch):
    import repro.store.wal as wal

    fake = _FailingFsync(wal.os.fsync)
    monkeypatch.setattr(wal.os, "fsync", fake)
    return fake


def _lsns(path):
    records, valid = read_records(path)
    assert valid == path.stat().st_size  # no torn or stray bytes left
    return [record.lsn for record in records]


class TestLogFaults:
    def test_failed_write_leaves_nothing_and_next_append_succeeds(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal.log", sync=False)
        log.open()
        log.append(1, {"n": 1})
        size = log.size()
        log._handle = _TornWrite(log._handle)
        with pytest.raises(WalError):
            log.append(2, {"n": 2})
        assert log.size() == size
        assert log.appends == 1
        log.append(2, {"n": 2})
        log.close()
        assert _lsns(log.path) == [1, 2]

    def test_failed_fsync_truncates_and_fail_stops(self, tmp_path, fsync):
        log = WriteAheadLog(tmp_path / "wal.log", sync=True)
        log.open()
        log.append(1, {"n": 1})
        size = log.size()
        fsync.failing = True
        with pytest.raises(WalError):
            log.append(2, {"n": 2})
        assert log.size() == size
        fsync.failing = False
        calls = fsync.calls
        for _ in range(3):
            with pytest.raises(WalError, match="fail-stopped"):
                log.append(2, {"n": 2})
        with pytest.raises(WalError, match="fail-stopped"):
            log.reset()
        assert fsync.calls == calls  # never retried
        log.close()
        assert _lsns(log.path) == [1]
        reopened = WriteAheadLog(log.path, sync=True)
        reopened.open()
        reopened.append(2, {"n": 2})
        reopened.close()
        assert _lsns(log.path) == [1, 2]


def _seed():
    schema = Schema({"E": parse_type("[U, U]")})
    return Database(schema, {"E": set()})


def _edges(*pairs):
    return {"E": rows_from_json([list(pair) for pair in pairs], _seed().schema.rtype("E"), "E")}


def _transactions(rng, count):
    """``(asserts, retracts)`` of one random edge each, mostly asserts."""
    for _ in range(count):
        edges = _edges((rng.choice("abcdef"), rng.choice("abcdef")))
        yield (edges, None) if rng.random() < 0.7 else (None, edges)


class TestDurableFaults:
    """Seeded fault positions over a generated transaction sequence: the
    recovered state is exactly the acknowledged commits."""

    @pytest.mark.parametrize("seed", range(6))
    def test_recovered_state_is_the_acknowledged_commits(self, tmp_path, fsync, seed):
        rng = random.Random(seed)
        directory = tmp_path / "db"
        durable = DurableDatabase.create(directory, _seed(), sync=True)
        shadow = durable.database
        acknowledged = failed = 0
        for asserts, retracts in _transactions(rng, 30):
            fault = rng.choice([None, None, None, "write", "fsync"])
            if fault == "write":
                durable.wal._handle = _TornWrite(durable.wal._handle)
            fsync.failing = fault == "fsync"
            before = durable.database
            try:
                commit = durable.apply(asserts, retracts)
            except WalError:
                failed += 1
                assert durable.database is before
                if fault == "write":
                    durable.wal._handle = durable.wal._handle._handle
                    continue
                # A failed fsync fail-stops the store until it is reopened.
                fsync.failing = False
                with pytest.raises(WalError, match="fail-stopped"):
                    durable.apply(_edges(("z", "z")))
                durable.close()
                durable = DurableDatabase.open(directory, sync=True)
                assert canonical_state_bytes(durable.database) == (
                    canonical_state_bytes(shadow)
                )
                continue
            fsync.failing = False
            if fault == "write":  # an empty delta appends nothing
                durable.wal._handle = durable.wal._handle._handle
            shadow, _ = apply_ops(shadow, asserts, retracts)
            assert commit.database == shadow
            acknowledged += 1
        durable.close()
        recovered = DurableDatabase.open(directory, sync=True)
        assert canonical_state_bytes(recovered.database) == canonical_state_bytes(shadow)
        lsns = _lsns(directory / DurableDatabase.WAL_NAME)
        assert lsns == sorted(set(lsns))  # strictly increasing
        assert recovered.lsn == lsns[-1]
        recovered.close()
        assert acknowledged and failed


class TestServiceFaults:
    def test_failed_update_is_an_error_and_queries_still_serve(self, tmp_path, fsync):
        service = QueryService(
            {"main": _seed()}, workers=2, data_dir=str(tmp_path / "data")
        )
        try:
            durable = service.store.get("main")
            durable.wal._handle = _TornWrite(durable.wal._handle)
            outcome = service.update("main", asserts={"E": [["a", "b"]]})
            assert outcome.status == "error" and "No space left" in outcome.error
            durable.wal._handle = durable.wal._handle._handle
            # After a failed write, the next commit succeeds.
            assert service.update("main", asserts={"E": [["a", "b"]]}).status == "ok"
            fsync.failing = True
            outcome = service.update("main", asserts={"E": [["b", "c"]]})
            assert outcome.status == "error"
            fsync.failing = False
            # Fail-stopped: every later commit fails until reopen ...
            for edge in (["b", "c"], ["c", "d"]):
                outcome = service.update("main", asserts={"E": [edge]})
                assert outcome.status == "error" and "fail-stopped" in outcome.error
            # ... while queries are still served, from the acknowledged state.
            result = service.query("main", "{ [x, y] | E([x, y]) }")
            assert result.status == "ok"
            assert len(result.value) == 1
            assert service.stats()["metrics"]["serve.queries.failed"] == 4
        finally:
            service.close()  # asserts the drain invariant
        recovered = QueryService(workers=1, data_dir=str(tmp_path / "data"))
        try:
            state = recovered.query("main", "{ [x, y] | E([x, y]) }")
            assert len(state.value) == 1
            assert recovered.update("main", asserts={"E": [["b", "c"]]}).status == "ok"
        finally:
            recovered.close()
