"""repro.serve — the concurrent query service.  DESIGN.md §2.11.

The serving layer the ROADMAP's north star asks for: many clients, one
shared engine.  Pieces:

* :mod:`~repro.serve.service` — :class:`QueryService`: named-database
  registry, shared per-database sessions (thread-safe plan LRU + memo
  cache + interner), a bounded worker pool behind an admission
  controller (queue-depth cap → fast retryable rejection, FIFO within
  priority classes), and per-request wall-clock deadlines carried by
  :class:`~repro.engine.deadline.DeadlineBudget` sub-budgets; one
  admission path and one completion path per request;
* observability lives in :mod:`repro.obs` — the metrics registry
  (namespaced dotted names), span tracing, and the bounded trace log of
  per-request records (with physical operator trees) whose slow view is
  the slow-query log;
* :mod:`~repro.serve.protocol` / :mod:`~repro.serve.server` /
  :mod:`~repro.serve.client` — the newline-delimited JSON wire
  protocol (PING / QUERY / EXPLAIN / LOAD / STATS / METRICS / UPDATE /
  SNAPSHOT), the threaded TCP front end, and a retrying client with
  exponential backoff + jitter;
* ``python -m repro.serve`` — the CLI entry point; ``--data-dir``
  attaches the :mod:`repro.store` durability layer (WAL commits,
  snapshots, crash recovery) and
  ``--slow-query-ms N`` arms the slow-query view.
"""

from ..obs.trace import RequestTrace, TraceLog
from .client import RetriesExhausted, ServeClient, ServeClientError
from .protocol import PROTOCOL_VERSION, ProtocolError, database_from_spec
from .server import ServeServer, serve
from .service import (
    AdmissionRejected,
    QueryFailed,
    QueryService,
    RequestOutcome,
    RequestTimeout,
    ServeError,
    ServiceClosed,
    StoreUnavailable,
    UnknownDatabase,
)

__all__ = [
    "AdmissionRejected",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryFailed",
    "QueryService",
    "RequestOutcome",
    "RequestTimeout",
    "RequestTrace",
    "RetriesExhausted",
    "ServeClient",
    "ServeClientError",
    "ServeError",
    "ServeServer",
    "ServiceClosed",
    "StoreUnavailable",
    "TraceLog",
    "UnknownDatabase",
    "database_from_spec",
    "serve",
]
