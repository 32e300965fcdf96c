"""One durable database: snapshot + WAL + crash recovery.

Directory layout (one directory per named database)::

    snapshot-<lsn>.json   canonical checkpoints (newest wins)
    wal.log               transactions committed after the newest snapshot

**Commit protocol.**  ``apply`` validates and applies the transaction
to the in-memory immutable database, then appends the *effective*
delta to the WAL (fsync-gated).  The commit point is the WAL append —
when ``apply`` returns, the transaction survives a crash.  Empty
effective deltas (all no-ops) append nothing.

**Recovery invariant.**  ``open`` loads the newest snapshot, replays
every valid WAL record with an LSN above the snapshot's, truncates any
torn tail, and yields a database whose
:func:`~repro.store.snapshot.canonical_state_bytes` are identical to
the state at the last durable commit.  Records at or below the
snapshot LSN are skipped, which makes a crash *between* snapshot
rename and log truncation harmless.
"""

from __future__ import annotations

import pathlib
from typing import Mapping

from ..errors import ReproError
from ..model.schema import Database
from ..obs.span import span
from .codec import rows_from_json, rows_to_json
from .snapshot import (
    CompactionPolicy,
    latest_snapshot,
    load_snapshot,
    prune_snapshots,
    write_snapshot,
)
from .tx import FactDelta, apply_ops
from .wal import WriteAheadLog, read_records

__all__ = ["CommitResult", "DurableDatabase", "StoreError", "StoreStats"]


class StoreError(ReproError):
    """The store directory is missing, already in use, or corrupt."""


class StoreStats:
    """Counters one durable database accumulates (folded into the serve
    layer's STATS)."""

    __slots__ = (
        "wal_appends",
        "wal_bytes",
        "snapshots",
        "recoveries",
        "replayed_records",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class CommitResult:
    """What one ``apply`` did: the new database, the effective delta,
    the commit LSN, and whether compaction ran."""

    __slots__ = ("database", "delta", "lsn", "bytes_appended", "compacted")

    def __init__(
        self,
        database: Database,
        delta: FactDelta,
        lsn: int,
        bytes_appended: int,
        compacted: bool,
    ):
        self.database = database
        self.delta = delta
        self.lsn = lsn
        self.bytes_appended = bytes_appended
        self.compacted = compacted

    def __repr__(self) -> str:
        return f"CommitResult(lsn={self.lsn}, delta={self.delta!r})"


def delta_to_payload(delta: FactDelta, database: Database) -> dict:
    """A WAL payload (plain JSON) for one effective delta."""
    schema = database.schema
    payload: dict = {}
    for key, batches in (("assert", delta.asserted), ("retract", delta.retracted)):
        if batches:
            payload[key] = {
                name: rows_to_json(facts, schema.rtype(name))
                for name, facts in sorted(batches.items())
            }
    return payload


def payload_to_ops(payload: dict, database: Database) -> tuple:
    """``(asserts, retracts)`` decoded from one WAL payload."""
    schema = database.schema
    decoded = []
    for key in ("assert", "retract"):
        batches = payload.get(key, {})
        if not isinstance(batches, Mapping):
            raise StoreError(f"malformed WAL payload: {key!r} is not an object")
        ops = {}
        for name, rows in batches.items():
            if name not in schema:
                raise StoreError(f"WAL names unknown predicate {name!r}")
            ops[name] = rows_from_json(rows, schema.rtype(name), name)
        decoded.append(ops)
    return decoded[0], decoded[1]


class DurableDatabase:
    """A mutable, restart-safe database over an immutable value.

    Not thread-safe by itself — the serve layer serializes writers per
    database (single-writer); standalone users do the same.
    """

    WAL_NAME = "wal.log"

    __slots__ = (
        "directory",
        "database",
        "wal",
        "policy",
        "stats",
        "lsn",
        "records_since_snapshot",
    )

    def __init__(
        self,
        directory: pathlib.Path,
        database: Database,
        wal: WriteAheadLog,
        lsn: int,
        policy: CompactionPolicy | None,
        stats: StoreStats,
        records_since_snapshot: int,
    ):
        self.directory = directory
        self.database = database
        self.wal = wal
        self.lsn = lsn
        self.policy = policy or CompactionPolicy()
        self.stats = stats
        self.records_since_snapshot = records_since_snapshot

    # -- lifecycle ----------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: pathlib.Path | str,
        database: Database,
        sync: bool = True,
        policy: CompactionPolicy | None = None,
    ) -> "DurableDatabase":
        """Initialise *directory* with snapshot-0 of *database*."""
        directory = pathlib.Path(directory)
        if latest_snapshot(directory) is not None:
            raise StoreError(f"{directory} already holds a database")
        directory.mkdir(parents=True, exist_ok=True)
        write_snapshot(directory, 0, database)
        wal = WriteAheadLog(directory / cls.WAL_NAME, sync=sync)
        wal.open()
        stats = StoreStats()
        stats.snapshots += 1
        return cls(directory, database, wal, 0, policy, stats, 0)

    @classmethod
    def open(
        cls,
        directory: pathlib.Path | str,
        sync: bool = True,
        policy: CompactionPolicy | None = None,
    ) -> "DurableDatabase":
        """Recover the database at *directory* (snapshot + WAL tail)."""
        directory = pathlib.Path(directory)
        newest = latest_snapshot(directory)
        if newest is None:
            raise StoreError(f"{directory} holds no snapshot to recover from")
        lsn, database = load_snapshot(newest)
        records, valid_length = read_records(directory / cls.WAL_NAME)
        stats = StoreStats()
        replayed = 0
        for record in records:
            if record.lsn <= lsn:
                continue  # already folded into the snapshot
            asserts, retracts = payload_to_ops(record.payload, database)
            database, _ = apply_ops(database, asserts, retracts)
            lsn = record.lsn
            replayed += 1
        wal = WriteAheadLog(directory / cls.WAL_NAME, sync=sync)
        wal.open(truncate_at=valid_length)
        stats.recoveries += 1
        stats.replayed_records += replayed
        return cls(directory, database, wal, lsn, policy, stats, replayed)

    def close(self) -> None:
        self.wal.close()

    # -- the write path -----------------------------------------------

    def apply(
        self,
        asserts: Mapping[str, list] | None = None,
        retracts: Mapping[str, list] | None = None,
    ) -> CommitResult:
        """Commit one transaction; durable when this returns."""
        new_database, delta = apply_ops(self.database, asserts, retracts)
        if delta.empty():
            return CommitResult(self.database, delta, self.lsn, 0, False)
        lsn = self.lsn + 1
        with span("store.commit", db=self.directory.name, lsn=lsn):
            appended = self.wal.append(lsn, delta_to_payload(delta, new_database))
            self.database = new_database
            self.lsn = lsn
            self.records_since_snapshot += 1
            self.stats.wal_appends += 1
            self.stats.wal_bytes += appended
            compacted = False
            if self.policy.should_compact(
                self.records_since_snapshot, self.wal.size()
            ):
                self.snapshot()
                compacted = True
        return CommitResult(new_database, delta, lsn, appended, compacted)

    def snapshot(self) -> pathlib.Path:
        """Checkpoint now: write the canonical snapshot, truncate the
        WAL, drop superseded snapshot files."""
        with span("store.snapshot", db=self.directory.name, lsn=self.lsn):
            path = write_snapshot(self.directory, self.lsn, self.database)
            self.wal.reset()
            self.records_since_snapshot = 0
            self.stats.snapshots += 1
            prune_snapshots(self.directory, keep=1)
        return path
