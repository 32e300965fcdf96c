"""The embedded concurrent query service.

:class:`QueryService` is the serving layer's core: a named-database
registry where each database gets one long-lived
:class:`~repro.query.session.Session` whose thread-safe plan LRU
(:data:`PLAN_ENTRIES`) and genericity-aware memo cache
(:data:`MEMO_ENTRIES`) are **shared by every request** against that
database, so warm queries amortise across clients.

Around that shared state sit the three things a service needs that a
library call does not:

* **Admission control** — a bounded priority queue.  A request arriving
  when the queue is full is rejected *immediately* with the retryable
  :class:`AdmissionRejected` (fail fast and let the client back off,
  rather than building an unbounded backlog).  Within a priority class
  the queue is FIFO (a monotone sequence number breaks ties), and a
  smaller priority number always dequeues first.
* **Per-request deadlines** — each admitted request carries an absolute
  wall-clock deadline covering queue wait *and* execution.  Workers are
  threads, where the runner's SIGALRM trick is unavailable, so the
  deadline rides the request's budget as a
  :class:`~repro.engine.deadline.DeadlineBudget`: every evaluator
  charge checks the clock, and expiry surfaces as the typed
  :class:`RequestTimeout`.  A request whose deadline passes while still
  queued is timed out without running at all.
* **Observability** — a :class:`~repro.obs.metrics.MetricsRegistry`
  (lifecycle counters, queue-wait and execution-latency histograms,
  queue-depth and in-flight gauges, all under namespaced dotted
  names), and one :class:`~repro.obs.trace.RequestTrace` per admitted
  request, kept by a bounded :class:`~repro.obs.trace.TraceLog` whose
  slow view holds the requests over a configurable threshold with
  their physical operator trees.  The request's root span
  (:mod:`repro.obs.span`) links to that record by ``request_id``.
  Every request enters through one admission path and leaves through
  one completion path, the only place a terminal outcome is counted.
  :meth:`QueryService.stats` renders it all from one
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.

Every request runs under a *child* of the service budget (the
:meth:`~repro.budget.Budget.child` splitting the engine runner already
uses), so a runaway query exhausts its own allowance, not the
service's.

With a *data_dir*, the registry is backed by a
:class:`~repro.store.store.Store` of durable databases: seeds become
snapshot-0, databases found on disk are crash-recovered at startup,
and ``UPDATE`` requests commit through each database's write-ahead log
before the session switches to the new state.  Writes are serialized
**per database** (single-writer) while queries against other databases
proceed; the store's counters (``store.wal.appends``,
``store.wal.bytes``, ``store.snapshots``, ``store.recoveries``) surface
in STATS next to a ``state_sha256`` of each database's canonical bytes.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import threading
import time
import weakref

from ..budget import DEFAULT_LIMITS, Budget
from ..engine.deadline import DeadlineBudget, DeadlineExceeded
from ..errors import BudgetExceeded, ReproError, UNDEFINED
from ..model.intern import INTERNER
from ..model.schema import Database
from ..catalog import Catalog
from ..catalog.policy import priority_hint
from ..obs.metrics import MetricsRegistry
from ..obs.span import span
from ..obs.trace import RequestTrace, TraceLog
from ..query.explain import render, render_plan
from ..query.session import Session
from ..model.values import Value
from ..store import Store, apply_ops, canonical_state_bytes
from ..store.codec import rows_from_json

__all__ = [
    "AdmissionRejected",
    "QueryFailed",
    "QueryService",
    "RequestOutcome",
    "RequestTimeout",
    "ServeError",
    "ServiceClosed",
    "StoreUnavailable",
    "UnknownDatabase",
]


#: Per-database result memo capacity (entries).
MEMO_ENTRIES = 512
#: Per-database plan LRU capacity (entries).
PLAN_ENTRIES = 256


class ServeError(ReproError):
    """Base class for typed serving-layer errors.

    ``code`` is the stable wire identifier; ``retryable`` tells clients
    whether backing off and resending the identical request can
    succeed (admission rejections are the canonical case).
    """

    code = "serve-error"
    retryable = False


class AdmissionRejected(ServeError):
    """The request queue is at capacity; back off and retry."""

    code = "rejected"
    retryable = True

    def __init__(self, depth: int):
        super().__init__(f"admission rejected: queue at capacity ({depth})")
        self.depth = depth


class RequestTimeout(ServeError):
    """The request's deadline passed (while queued or mid-execution)."""

    code = "timeout"

    def __init__(self, seconds: float, where: str):
        super().__init__(f"deadline of {seconds:.3f}s exceeded ({where})")
        self.seconds = seconds
        self.where = where


class UnknownDatabase(ServeError):
    """The request names a database the registry does not hold."""

    code = "unknown-database"

    def __init__(self, name: str, known):
        super().__init__(
            f"unknown database {name!r} (registered: {', '.join(sorted(known)) or 'none'})"
        )
        self.name = name


class ServiceClosed(ServeError):
    """The service is shutting down and no longer accepts requests."""

    code = "closed"

    def __init__(self):
        super().__init__("service closed")


class QueryFailed(ServeError):
    """The evaluator raised; carries the underlying error string."""

    code = "error"

    def __init__(self, error: str):
        super().__init__(error)
        self.error = error


class StoreUnavailable(ServeError):
    """A durability op (SNAPSHOT) needs a store the service lacks."""

    code = "no-store"

    def __init__(self, name: str):
        super().__init__(
            f"database {name!r} has no durable store "
            "(start the service with a data_dir)"
        )
        self.name = name


class RequestOutcome:
    """What became of one admitted request.

    ``result`` is the query's value (possibly ``?``) when ``ok``;
    ``trace`` is the request's :class:`~repro.obs.trace.RequestTrace`,
    which holds the verdict: ``status`` (``"ok"`` / ``"timeout"`` /
    ``"error"`` / ``"closed"``) and ``error`` read through to it.
    ``seconds`` is the request's deadline allowance.
    """

    __slots__ = ("result", "trace", "seconds")

    def __init__(self, trace: RequestTrace, result, seconds: float | None):
        self.trace = trace
        self.result = result
        self.seconds = seconds

    @property
    def status(self) -> str:
        return self.trace.outcome

    @property
    def error(self) -> str | None:
        return self.trace.error

    @property
    def value(self):
        return self.result

    def raise_for_status(self):
        """Return the result, or raise the outcome's typed error."""
        if self.status == "ok":
            return self.result
        if self.status == "timeout":
            raise RequestTimeout(self.seconds or 0.0, self.trace.cause or "execution")
        if self.status == "closed":
            raise ServiceClosed()
        raise QueryFailed(self.error or "query failed")


def _decode_batches(schema, batches: dict | None) -> dict:
    """Normalize one UPDATE batch map to decoded fact values.

    Rows already decoded (the wire path) pass through; plain JSON rows
    decode type-directedly against *schema*.  Typed errors surface at
    admission, before anything queues.
    """
    decoded: dict = {}
    for name, rows in (batches or {}).items():
        if name not in schema:
            raise ServeError(f"update names unknown predicate {name!r}")
        rows = list(rows)
        if all(isinstance(row, Value) for row in rows):
            decoded[name] = rows
        else:
            decoded[name] = rows_from_json(rows, schema.rtype(name), name)
    return decoded


class _Pending:
    """A minimal completion future for one ticket."""

    __slots__ = ("_event", "outcome")

    def __init__(self):
        self._event = threading.Event()
        self.outcome: RequestOutcome | None = None

    def complete(self, outcome: RequestOutcome) -> None:
        self.outcome = outcome
        self._event.set()

    def wait(self, timeout: float | None = None) -> RequestOutcome:
        if not self._event.wait(timeout):
            raise TimeoutError("request still pending")
        return self.outcome


class _Ticket:
    """One admitted request waiting for (or holding) a worker.

    The database and text live on its ``trace``.  ``kind`` is
    ``"query"`` or ``"update"``; updates carry their ``(asserts,
    retracts)`` fact batches in ``payload``.
    """

    __slots__ = (
        "trace", "seconds", "deadline", "pending", "kind", "backend",
        "payload",
    )

    def __init__(self, trace, seconds, deadline, kind, backend=None, payload=None):
        self.trace = trace
        self.seconds = seconds
        self.deadline = deadline
        self.pending = _Pending()
        self.kind = kind
        self.backend = backend
        self.payload = payload


# The terminal counter ``serve.queries.<name>`` of each outcome status.
_TERMINAL = {
    "ok": "completed", "timeout": "timed_out", "error": "failed",
    "closed": "closed",
}


class QueryService:
    """A concurrent query service over a registry of named databases.

    Parameters:

    *databases* — initial ``name -> Database`` registry (more can be
    loaded later with :meth:`load`).  *workers* — worker-thread count.
    *max_queue_depth* — admission cap on *waiting* requests; beyond it
    :class:`AdmissionRejected`.  *default_timeout* — per-request
    deadline in seconds when the request does not bring its own
    (``None`` disables).  *budget* — the service budget each request
    gets a child of.  *data_dir* — root directory of the durable
    :class:`~repro.store.store.Store`; seeds in *databases* become
    snapshot-0, databases already on disk are crash-recovered (disk
    wins over a same-named seed), and UPDATE commits through the WAL.
    *sync* — fsync every WAL append.  *slow_query_ms* arms the trace
    log's slow view.
    """

    def __init__(
        self,
        databases: dict | None = None,
        *,
        workers: int = 4,
        max_queue_depth: int = 64,
        default_timeout: float | None = 30.0,
        budget: Budget | None = None,
        data_dir: str | None = None,
        sync: bool = True,
        slow_query_ms: float | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")
        self.workers = workers
        self.max_queue_depth = max_queue_depth
        self.default_timeout = default_timeout
        self._budget = budget or Budget()

        self.metrics = MetricsRegistry()
        self.traces = TraceLog(slow_query_ms)
        # Instruments exist from the start so STATS shows zeros, not
        # gaps (see README "Observability" for the schema table).
        for name in (
            "serve.queries.accepted", "serve.queries.rejected",
            "serve.queries.started", "serve.queries.completed",
            "serve.queries.timed_out", "serve.queries.failed",
            "serve.queries.closed", "serve.queries.slow",
            "serve.updates.applied",
            "deductive.kernels.hits", "deductive.kernels.misses",
            "deductive.kernels.invalidations",
            "store.wal.appends", "store.wal.bytes", "store.snapshots",
            "store.recoveries",
            "engine.ops.rows_in", "engine.ops.rows_out", "engine.ops.probes",
            "engine.ops.index_builds", "engine.ops.rounds",
        ):
            self.metrics.counter(name)
        self.metrics.histogram("serve.queue.wait_seconds")
        self.metrics.histogram("serve.execution_seconds")
        self.metrics.gauge("serve.queue.depth")
        self.metrics.gauge("serve.in_flight")
        # Subsystems with their own thread-safe counters report through
        # pull-time collectors — one sink, no double accounting.
        self.metrics.register_collector(
            "engine.intern", lambda: INTERNER.stats().as_dict()
        )

        self.store = Store(data_dir, sync=sync) if data_dir is not None else None
        self._sessions: dict = {}
        self._writer_locks: dict = {}
        self._registry_lock = threading.RLock()
        #: name -> (weakref to a database, its ``state_sha256``): a
        #: commit makes a new database object, so a stale digest can
        #: never match, and scrapes between commits hash nothing.
        self._state_digests: dict = {}
        seeds = dict(databases or {})
        if self.store is not None:
            # Disk wins: recover everything on disk, seed the rest.
            for name in sorted(set(seeds) | set(self.store.discovered())):
                self.load(name, seeds.get(name))
            for counters in self.store.stats().values():
                for key in ("recoveries", "snapshots"):
                    self.metrics.counter(f"store.{key}").inc(counters[key])
        else:
            for name, database in seeds.items():
                self.load(name, database)

        self._queue: list = []  # heap of (priority, seq, ticket)
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-serve-{index}", daemon=True
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- registry -------------------------------------------------------

    def load(
        self,
        name: str,
        database: Database | None = None,
        replace: bool = False,
    ) -> None:
        """Register *database* under *name* (its own shared session).

        With a durable store attached, the name's on-disk state is
        recovered when present (disk wins — *database* was only the
        seed) and snapshot-0 is written otherwise; ``replace`` is
        refused, since a durable database's truth lives on disk.
        """
        with self._registry_lock:
            if name in self._sessions and not replace:
                raise ServeError(f"database {name!r} already registered")
            if self.store is not None:
                if replace:
                    raise ServeError(
                        f"cannot replace durable database {name!r}"
                    )
                database = self.store.open_or_create(name, seed=database).database
            if not isinstance(database, Database):
                raise TypeError(
                    f"expected a Database, got {type(database).__name__}"
                )
            session = Session(
                database,
                budget=self._budget,
                memo_entries=MEMO_ENTRIES,
                plan_entries=PLAN_ENTRIES,
            )
            self._sessions[name] = session
            # The session's caches report through the registry: one
            # dotted-key schema serves STATS, the Prometheus dump, and
            # the per-database section of :meth:`stats` alike.
            self.metrics.register_collector(
                f"db.{name}", session.counters
            )

    def session(self, db: str) -> Session:
        with self._registry_lock:
            try:
                return self._sessions[db]
            except KeyError:
                raise UnknownDatabase(db, self._sessions.keys()) from None

    def databases(self) -> tuple:
        with self._registry_lock:
            return tuple(sorted(self._sessions))

    def _writer_lock(self, db: str) -> threading.Lock:
        """The single-writer lock for one database (created lazily)."""
        with self._registry_lock:
            return self._writer_locks.setdefault(db, threading.Lock())

    # -- admission ------------------------------------------------------

    def submit(
        self,
        db: str,
        text: str,
        *,
        backend: str | None = None,
        timeout: float | None | object = "default",
        priority: int | None = None,
    ) -> _Pending:
        """Admit one request; returns a waitable pending handle.

        Raises :class:`AdmissionRejected` when the queue is full,
        :class:`ServiceClosed` after :meth:`close`, and
        :class:`UnknownDatabase` for an unregistered name — all before
        any work is queued (fast rejection is the admission
        controller's contract).

        With no explicit *priority*, the estimated cost of the plan's
        chosen backend picks the admission class
        (:func:`~repro.catalog.policy.priority_hint`): cheap
        interactive queries dequeue ahead of expensive analytical ones
        admitted moments earlier.
        """
        self.session(db)  # typed error before queueing
        if priority is None:
            priority = self._cost_priority(db, text)
        return self._admit(db, text, priority, timeout, "query", backend=backend)

    def _admit(self, db, text, priority, timeout, kind, **fields) -> _Pending:
        """Queue one request, or reject it before it gets a trace."""
        seconds = self.default_timeout if timeout == "default" else timeout
        now = time.monotonic()
        with self._cond:
            if self._closed:
                raise ServiceClosed()
            if len(self._queue) >= self.max_queue_depth:
                self.metrics.counter("serve.queries.rejected").inc()
                raise AdmissionRejected(self.max_queue_depth)
            ticket = _Ticket(
                self.traces.begin(db, text, priority, now),
                seconds,
                (now + seconds) if seconds else None,
                kind,
                **fields,
            )
            heapq.heappush(self._queue, (priority, next(self._seq), ticket))
            self.metrics.counter("serve.queries.accepted").inc()
            self.metrics.gauge("serve.queue.depth").set(len(self._queue))
            self._cond.notify()
        return ticket.pending

    def query(
        self,
        db: str,
        text: str,
        *,
        backend: str | None = None,
        timeout: float | None | object = "default",
        priority: int | None = None,
    ) -> RequestOutcome:
        """Admit, wait, and return the request's outcome.

        Raises the typed admission errors immediately; timeout and
        evaluator failures come back in the outcome (use
        :meth:`RequestOutcome.raise_for_status` to raise those too).
        """
        pending = self.submit(
            db, text, backend=backend, timeout=timeout, priority=priority
        )
        return pending.wait()

    def submit_update(
        self,
        db: str,
        asserts: dict | None = None,
        retracts: dict | None = None,
        *,
        timeout: float | None | object = "default",
        priority: int = 0,
    ) -> _Pending:
        """Admit one UPDATE transaction; returns a waitable handle.

        Updates ride the same admission queue as queries (one bounded
        backlog, one rejection story) and are serialized per database
        by the writer lock when a worker picks them up.

        Batches map predicate names to fact rows — either decoded
        :class:`~repro.model.values.Value` objects (the wire path
        decodes before admission) or plain JSON rows, decoded
        type-directedly here; malformed batches raise *before* anything
        queues.
        """
        schema = self.session(db).database.schema
        asserts = _decode_batches(schema, asserts)
        retracts = _decode_batches(schema, retracts)
        summary = "UPDATE assert={} retract={}".format(
            sum(len(facts) for facts in asserts.values()),
            sum(len(facts) for facts in retracts.values()),
        )
        return self._admit(
            db, summary, priority, timeout, "update", payload=(asserts, retracts)
        )

    def update(
        self,
        db: str,
        asserts: dict | None = None,
        retracts: dict | None = None,
        *,
        timeout: float | None | object = "default",
        priority: int = 0,
    ) -> RequestOutcome:
        """Admit one transaction, wait, and return its outcome.

        An ``ok`` outcome's ``result`` is the commit summary dict
        (``asserted``/``retracted`` effective counts, ``durable`` and
        ``lsn``); the transaction is durable when the outcome arrives if
        the service has a store.
        """
        pending = self.submit_update(
            db, asserts, retracts, timeout=timeout, priority=priority
        )
        return pending.wait()

    def snapshot(self, db: str) -> dict:
        """Checkpoint *db* now: write the canonical snapshot, truncate
        its WAL.  Runs inline under the writer lock (an operator tool,
        like EXPLAIN).  Requires a durable store."""
        self.session(db)  # typed UnknownDatabase first
        if self.store is None:
            raise StoreUnavailable(db)
        with self._writer_lock(db):
            durable = self.store.get(db)
            path = durable.snapshot()
            self.metrics.counter("store.snapshots").inc()
            return {
                "db": db,
                "lsn": durable.lsn,
                "snapshot": path.name,
                "wal_bytes": durable.wal.size(),
            }

    # -- workers --------------------------------------------------------

    def _next_ticket(self) -> _Ticket | None:
        with self._cond:
            while not self._queue and not self._closed:
                self._cond.wait()
            if not self._queue:
                return None  # closed and drained
            _, _, ticket = heapq.heappop(self._queue)
            self.metrics.gauge("serve.queue.depth").set(len(self._queue))
            return ticket

    def _worker(self) -> None:
        while True:
            ticket = self._next_ticket()
            if ticket is None:
                return
            self.metrics.gauge("serve.in_flight").inc()
            try:
                self._run_ticket(ticket)
            finally:
                self.metrics.gauge("serve.in_flight").dec()

    def _request_budget(self, ticket: _Ticket) -> Budget:
        child = self._budget.child()
        if ticket.deadline is None:
            return child
        return DeadlineBudget(
            ticket.deadline,
            ticket.seconds,
            **{resource: getattr(child, resource) for resource in DEFAULT_LIMITS},
        )

    def _run_ticket(self, ticket: _Ticket) -> None:
        trace = ticket.trace
        now = time.monotonic()
        trace.started_at = self.traces.relative(now)
        self.metrics.counter("serve.queries.started").inc()
        self.metrics.histogram("serve.queue.wait_seconds").observe(
            trace.queue_wait()
        )
        if ticket.deadline is not None and now >= ticket.deadline:
            trace.cause = "queue"
            self._finish(ticket, "timeout")
        elif ticket.kind == "update":
            self._finish(ticket, *self._run_update(ticket))
        else:
            self._finish(ticket, *self._run_query(ticket))

    def _finish(self, ticket: _Ticket, status: str, result=UNDEFINED, error=None):
        """Settle one admitted request: the single place a terminal
        outcome is recorded, counted, and handed to the waiter."""
        trace = ticket.trace
        trace.outcome = status
        trace.error = error
        if self.traces.finish(trace, time.monotonic()):
            self.metrics.counter("serve.queries.slow").inc()
        execution = trace.execution_seconds()
        if execution is not None and trace.cause != "queue":  # it ran
            self.metrics.histogram("serve.execution_seconds").observe(execution)
        self.metrics.counter(f"serve.queries.{_TERMINAL[status]}").inc()
        ticket.pending.complete(RequestOutcome(trace, result, ticket.seconds))

    def _run_query(self, ticket: _Ticket) -> tuple:
        trace = ticket.trace
        session = self.session(trace.db)
        budget = self._request_budget(ticket)
        status, result, error = "ok", UNDEFINED, None
        try:
            with span(
                "serve.request", db=trace.db, kind="query",
                request_id=trace.request_id,
            ):
                result, report = session.run(
                    trace.text, backend=ticket.backend, budget=budget
                )
            trace.backend = report.backend
            trace.cached = report.cached
            trace.physical = report.trace
            trace.spent = report.spent
            kernel_cache = report.kernel_cache
            if kernel_cache:
                # Per-request compiled-kernel cache traffic, aggregated
                # service-wide so warm-kernel wins show up in STATS.
                self.metrics.counter("deductive.kernels.hits").inc(
                    kernel_cache["hits"]
                )
                self.metrics.counter("deductive.kernels.misses").inc(
                    kernel_cache["misses"]
                )
                self.metrics.counter("deductive.kernels.invalidations").inc(
                    kernel_cache["invalidations"]
                )
            if report.op_totals:
                # Per-request physical-operator traffic, aggregated
                # service-wide (the Scan/HashJoin/Fixpoint OpStats
                # blocks EXPLAIN renders per query).
                for key, value in report.op_totals.items():
                    if value:
                        self.metrics.counter(f"engine.ops.{key}").inc(value)
        except DeadlineExceeded:
            status = "timeout"
            trace.cause = "execution"
        except BudgetExceeded as exc:
            # Budget exhaustion *is* the bounded semantics' answer: the
            # computation is observed as ? (same as the engine runner).
            trace.cause = f"budget:{exc.resource}"
        except ServeError as exc:
            status = "error"
            error = str(exc)
        except Exception as exc:  # noqa: BLE001 — reported, not swallowed
            status = "error"
            error = f"{type(exc).__name__}: {exc}"
        return status, result, error

    def _run_update(self, ticket: _Ticket) -> tuple:
        """Commit one transaction: WAL append (when durable), then
        switch the session to the new state.

        The writer lock serializes transactions *per database* — the
        WAL append and the session's database swap are one atomic unit
        from any other writer's point of view.  Readers are never
        blocked: queries snapshot the session's database reference on
        entry.
        """
        trace = ticket.trace
        db = trace.db
        asserts, retracts = ticket.payload
        try:
            session = self.session(db)
            durable = self.store.get(db) if self.store is not None else None
            with self._writer_lock(db), span(
                "serve.commit", db=db, durable=durable is not None,
                request_id=trace.request_id,
            ):
                if durable is not None:
                    commit = durable.apply(asserts, retracts)
                    new_database, delta, lsn = (
                        commit.database, commit.delta, commit.lsn,
                    )
                    if commit.bytes_appended:
                        self.metrics.counter("store.wal.appends").inc()
                        self.metrics.counter("store.wal.bytes").inc(
                            commit.bytes_appended
                        )
                    if commit.compacted:
                        self.metrics.counter("store.snapshots").inc()
                else:
                    new_database, delta = apply_ops(
                        session.database, asserts, retracts
                    )
                    lsn = None
                session.apply_delta(new_database)
            plus, minus = delta.counts()
            self.metrics.counter("serve.updates.applied").inc()
            trace.backend = "store" if durable is not None else "memory"
        except ReproError as exc:
            return "error", UNDEFINED, str(exc)
        except Exception as exc:  # noqa: BLE001 — reported, not swallowed
            return "error", UNDEFINED, f"{type(exc).__name__}: {exc}"
        result = {
            "asserted": plus,
            "retracted": minus,
            "durable": durable is not None,
            "lsn": lsn,
        }
        return "ok", result, None

    # -- explain / stats ------------------------------------------------

    def explain(
        self,
        db: str,
        text: str,
        *,
        run: bool = False,
        backend: str | None = None,
    ) -> str:
        """The EXPLAIN transcript for *text* on database *db*.

        Runs inline on the calling thread (admission control governs
        QUERY traffic; EXPLAIN is an operator tool).  Thread-safe: uses
        the race-free :meth:`~repro.query.session.Session.run` entry,
        never the session's ``last_report``.
        """
        session = self.session(db)
        plan = session.plan(text)
        if not run:
            return render_plan(plan)
        _, report = session.run(text, backend=backend)
        return render(plan, report, counters=session.counter_snapshot())

    def _cost_priority(self, db: str, text: str) -> int:
        """The admission class of *text*'s estimated plan cost.

        Planning is served by the session's thread-safe plan LRU, so
        repeat texts cost one cache hit.  Any planning failure (parse
        error, schema error — which will surface as a typed failure
        when the request runs) falls back to the default class 0.
        """
        try:
            plan = self.session(db).plan(text)
            return priority_hint(plan.chosen.cost)
        except Exception:
            return 0

    def stats(self, trace_limit: int | None = 16) -> dict:
        """One JSON-ready snapshot of the whole service's state.

        Every counter lives under ``"metrics"``, the flat dotted-key
        schema of one :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
        call (per-database memo and plan counters as ``db.<name>.*``).
        ``databases[name]`` carries the database's shape, its catalog,
        and, when durable, its ``store`` section.
        """
        with self._cond:
            queue_depth = len(self._queue)
            accepting = not self._closed
        snapshot = self.metrics.snapshot()
        databases = {}
        with self._registry_lock:
            sessions = dict(self._sessions)
        for name, session in sorted(sessions.items()):
            catalog = Catalog.for_database(session.database)
            profile = catalog.profile()
            databases[name] = {
                "facts": profile["total_facts"],
                "adom": profile["adom"],
                "max_depth": profile["max_depth"],
                "catalog": catalog.snapshot(),
            }
            if self.store is not None and name in self.store.names():
                durable = self.store.get(name)
                databases[name]["store"] = {
                    **durable.stats.as_dict(),
                    "lsn": durable.lsn,
                    "wal_size": durable.wal.size(),
                    "state_sha256": self._state_sha256(name, session.database),
                }
        return {
            "service": {
                "workers": self.workers,
                "max_queue_depth": self.max_queue_depth,
                "default_timeout": self.default_timeout,
                "slow_query_ms": self.traces.slow_query_ms,
                "queue_depth": queue_depth,
                "accepting": accepting,
            },
            "metrics": snapshot,
            "databases": databases,
            "slow_queries": self.traces.tail(trace_limit, slow=True),
            "traces": self.traces.tail(trace_limit),
        }

    def _state_sha256(self, name: str, database: Database) -> str:
        """The sha256 of *database*'s canonical state bytes, computed
        once per database object (held weakly, so no superseded state
        is pinned)."""
        entry = self._state_digests.get(name)
        if entry is not None and entry[0]() is database:
            return entry[1]
        digest = hashlib.sha256(canonical_state_bytes(database)).hexdigest()
        self._state_digests[name] = (weakref.ref(database), digest)
        return digest

    # -- lifecycle ------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop admission and shut the worker pool down.

        With ``drain`` (the default) queued requests still execute;
        otherwise they complete immediately with a ``"closed"``
        outcome (counted under ``serve.queries.closed``).  Idempotent;
        blocks until every worker exits.  Both paths end with
        :meth:`verify_drained`: every accepted request must by then be
        accounted for by exactly one terminal outcome counter.
        """
        with self._cond:
            if not self._closed:
                self._closed = True
                if not drain:
                    while self._queue:
                        self._finish(heapq.heappop(self._queue)[2], "closed")
                    self.metrics.gauge("serve.queue.depth").set(0)
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        if self.store is not None:
            self.store.close()
        self.verify_drained()

    def verify_drained(self) -> None:
        """Assert the terminal-outcome invariant of a quiesced service.

        Once the workers have exited (either :meth:`close` path), every
        accepted request must be accounted for::

            accepted == completed + timed_out + failed + closed

        Raises :class:`AssertionError` with both sides rendered when an
        outcome was dropped — the drain-path regression this guards
        against is a queued ticket discarded without a terminal counter.
        """
        accepted = self.metrics.counter("serve.queries.accepted").value
        outcomes = {
            name: self.metrics.counter(f"serve.queries.{name}").value
            for name in _TERMINAL.values()
        }
        settled = sum(outcomes.values())
        assert accepted == settled, (
            f"drain invariant violated: accepted={accepted} != "
            + " + ".join(f"{name}={value}" for name, value in outcomes.items())
            + f" ({settled})"
        )

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
