"""repro.store — durable, mutable, restart-safe databases.

The serving layer (PR 5/7) runs named databases behind a worker pool,
but until this subsystem every database was an immutable blob: ``LOAD``
replaced it wholesale and nothing survived a restart.  ``repro.store``
turns the query engine into a database:

* :mod:`repro.store.codec` — the type-directed JSON codec (one codec
  shared by the wire ``LOAD`` op, the write-ahead log, and snapshots);
* :mod:`repro.store.tx` — transactions (``ASSERT``/``RETRACT`` fact
  batches) and their effective :class:`~repro.store.tx.FactDelta`;
* :mod:`repro.store.wal` — the append-only, CRC-checked write-ahead
  log (fsync-configurable, torn-tail tolerant);
* :mod:`repro.store.snapshot` — canonical checkpoints and the
  size/record-count compaction policy;
* :mod:`repro.store.durable` — one durable database: WAL + snapshots +
  crash recovery, proving byte-identical canonical state;
* :mod:`repro.store.store` — a directory of named durable databases.
"""

from .codec import (
    CodecError,
    database_from_spec,
    database_to_spec,
    value_from_json,
    value_to_json,
)
from .durable import CommitResult, DurableDatabase, StoreError, StoreStats
from .snapshot import CompactionPolicy, canonical_state_bytes
from .store import Store
from .tx import FactDelta, apply_ops
from .wal import WalRecord, WriteAheadLog, read_records

__all__ = [
    "CodecError",
    "CommitResult",
    "CompactionPolicy",
    "DurableDatabase",
    "FactDelta",
    "Store",
    "StoreError",
    "StoreStats",
    "WalRecord",
    "WriteAheadLog",
    "apply_ops",
    "canonical_state_bytes",
    "database_from_spec",
    "database_to_spec",
    "read_records",
    "value_from_json",
    "value_to_json",
]
