"""Per-request trace records — the one record of an admitted request.

Each request the :class:`~repro.serve.service.QueryService` admits gets
one :class:`RequestTrace` carrying its whole lifecycle: admission
timestamps, queue wait, execution latency, the backend the planner
chose, cache behaviour, budget spend, the verdict (including a
budget-exhausted ``?`` as ``cause="budget:<resource>"``), and — when
the backend ran on the :mod:`repro.engine.ops` kernel — the rendered
:class:`~repro.engine.exec.PhysicalTrace` operator tree.

:class:`TraceLog` keeps the most recent :data:`TRACE_ENTRIES` records
and, when armed with a slow-query threshold, a second bounded view of
*the same objects* for the requests whose execution time was at or over
it (:data:`SLOW_ENTRIES` of them, so slow offenders outlive fast
traffic).  STATS ships both views as ``traces`` and ``slow_queries``;
an entry in one is the entry in the other, ``request_id`` and all.

Timestamps are ``time.monotonic()`` readings relative to the trace
log's epoch, so exported traces order correctly without exposing wall
clock — and the *derived* fields (queue wait, execution seconds) are
what the metrics histograms aggregate.  :mod:`repro.obs.span` spans
link to this record by ``request_id`` rather than copying its fields.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

__all__ = ["RequestTrace", "SLOW_ENTRIES", "TRACE_ENTRIES", "TraceLog"]

TRACE_ENTRIES = 256
SLOW_ENTRIES = 64


@dataclass
class RequestTrace:
    """The lifecycle of one admitted request.

    ``outcome`` is one of ``"ok"`` (completed; the result may still be
    the paper's ``?``), ``"timeout"`` (its deadline passed, in queue or
    mid-execution), ``"error"`` (the evaluator raised), or ``"closed"``
    (settled unrun by ``close(drain=False)``).  Rejected requests never
    get a trace — they were never admitted; the
    ``serve.queries.rejected`` counter is their record.
    """

    request_id: int
    db: str
    text: str
    priority: int
    enqueued_at: float
    started_at: float | None = None
    finished_at: float | None = None
    backend: str | None = None
    outcome: str | None = None
    cached: bool = False
    cause: str | None = None
    error: str | None = None
    spent: dict = field(default_factory=dict)
    physical: str | None = None

    def queue_wait(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.enqueued_at

    def execution_seconds(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def as_dict(self) -> dict:
        wait = self.queue_wait()
        execution = self.execution_seconds()
        return {
            "request_id": self.request_id,
            "db": self.db,
            "text": self.text,
            "priority": self.priority,
            "enqueued_at": round(self.enqueued_at, 6),
            "queue_wait": round(wait, 6) if wait is not None else None,
            "execution_seconds": (
                round(execution, 6) if execution is not None else None
            ),
            "backend": self.backend,
            "outcome": self.outcome,
            "cached": self.cached,
            "cause": self.cause,
            "error": self.error,
            "spent": self.spent,
            "physical": self.physical,
        }


class TraceLog:
    """A bounded, thread-safe log of the most recent request traces.

    *slow_query_ms* arms the slow view: :meth:`finish` keeps every trace
    whose execution took at least that many milliseconds.  ``None`` (the
    default) keeps none, at the cost of one ``None`` check.
    """

    def __init__(self, slow_query_ms: float | None = None):
        if slow_query_ms is not None and slow_query_ms < 0:
            raise ValueError("slow_query_ms must be >= 0")
        self.slow_query_ms = slow_query_ms
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=TRACE_ENTRIES)
        self._slow: deque = deque(maxlen=SLOW_ENTRIES)
        self._next_id = 0
        self._epoch: float | None = None

    def begin(self, db: str, text: str, priority: int, now: float) -> RequestTrace:
        """Open a trace at admission time (``now`` is monotonic)."""
        with self._lock:
            if self._epoch is None:
                self._epoch = now
            trace = RequestTrace(
                request_id=self._next_id,
                db=db,
                text=text,
                priority=priority,
                enqueued_at=now - self._epoch,
            )
            self._next_id += 1
            self._entries.append(trace)
            return trace

    def relative(self, now: float) -> float:
        """*now* (monotonic) shifted to this log's epoch."""
        with self._lock:
            if self._epoch is None:
                self._epoch = now
            return now - self._epoch

    def finish(self, trace: RequestTrace, now: float) -> bool:
        """Stamp *trace* finished at *now* (monotonic); True if slow.

        A slow trace — execution at or over the threshold — is also
        kept in the slow view.  A trace that never started has no
        execution time and is never slow.
        """
        trace.finished_at = self.relative(now)
        threshold = self.slow_query_ms
        execution = trace.execution_seconds()
        if threshold is None or execution is None:
            return False
        if execution * 1000.0 < threshold:
            return False
        with self._lock:
            self._slow.append(trace)
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def tail(self, limit: int | None = None, *, slow: bool = False) -> list:
        """The most recent traces as dicts (all retained when no limit);
        with ``slow``, the most recent slow ones.

        ``limit=0`` means none — not all, which is what a bare
        ``entries[-0:]`` slice would give.
        """
        with self._lock:
            entries = list(self._slow if slow else self._entries)
        if limit is not None:
            entries = entries[-limit:] if limit > 0 else []
        return [trace.as_dict() for trace in entries]
