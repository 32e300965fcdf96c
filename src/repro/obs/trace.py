"""Per-request trace records.

Each request the :class:`~repro.serve.service.QueryService` admits gets
one :class:`RequestTrace` carrying its whole lifecycle: admission
timestamps, queue wait, execution latency, the backend the planner
chose, cache behaviour, budget spend, and — when the backend ran on the
:mod:`repro.engine.ops` kernel — the rendered
:class:`~repro.engine.exec.PhysicalTrace` operator tree.  A bounded
:class:`TraceLog` keeps the most recent records and exports them as
JSON for offline inspection (the TCP server's STATS op includes a
configurable tail of it).

Timestamps are ``time.monotonic()`` readings relative to the trace
log's epoch, so exported traces order correctly without exposing wall
clock — and the *derived* fields (queue wait, execution seconds) are
what the metrics histograms aggregate.  :mod:`repro.obs.span`
generalises this flat per-request record to a tree of timed phases
across every entry point; the request trace stays the wire-visible
shape STATS consumers read.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field

__all__ = ["RequestTrace", "TraceLog"]


@dataclass
class RequestTrace:
    """The lifecycle of one admitted request.

    ``outcome`` is one of ``"ok"`` (completed; the result may still be
    the paper's ``?``), ``"timeout"`` (its deadline passed, in queue or
    mid-execution), or ``"error"`` (the evaluator raised).  Rejected
    requests never get a trace — they were never admitted; the
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
    """A bounded, thread-safe log of the most recent request traces."""

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=max_entries)
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

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def tail(self, limit: int | None = None) -> list:
        """The most recent traces as dicts (all retained when no limit).

        ``limit=0`` means none — not all, which is what a bare
        ``entries[-0:]`` slice would give.
        """
        with self._lock:
            entries = list(self._entries)
        if limit is not None:
            entries = entries[-limit:] if limit > 0 else []
        return [trace.as_dict() for trace in entries]

    def to_json(self, limit: int | None = None) -> str:
        return json.dumps(self.tail(limit), indent=2, sort_keys=True)
