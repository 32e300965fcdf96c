"""Lightweight span tracing for every entry point.

The serving layer's :class:`~repro.obs.trace.TraceLog` keeps the one
flat lifecycle record of each admitted request, whether or not tracing
is on; a request's root span links to it by ``request_id`` instead of
copying its fields.  Spans generalise that record to a *tree* of timed
phases across every entry point, including embedded
:meth:`~repro.query.session.Session.run` calls that never touch the
serving layer: ``request → session.run → parse → plan → execute →
fixpoint-round*`` and ``commit`` on the write path, each with monotonic
start/end times, free-form attributes (backend, budget spend, round
numbers), and a parent link.

Design constraints, in order:

* **A no-op fast path.**  Tracing is off by default; with no recorder
  installed, :func:`span` returns a shared no-op context manager —
  one global read, no allocation beyond the argument dict, no lock.
  The hot-path overhead budget (≤5%, ``benchmarks/bench_obs.py``)
  is met by *not doing anything*, not by doing something cheaply.
* **Deterministic sampling.**  ``sample_every=N`` keeps every Nth root
  span (a monotone counter, never a PRNG — reproducible under any
  ``PYTHONHASHSEED``).  A child span always follows its root's
  decision, so a sampled trace is complete and an unsampled one is
  free: suppression is recorded on the thread-local stack and children
  short-circuit against it.
* **Bounded memory.**  The recorder keeps the most recent
  ``max_entries`` finished spans in a deque, like ``TraceLog``: old
  spans fall off the front, ``len`` never exceeds the cap, and the cap
  is validated at construction.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from itertools import count

__all__ = [
    "Span",
    "SpanRecorder",
    "span",
    "enable_tracing",
    "disable_tracing",
    "get_recorder",
    "tracing",
]


class Span:
    """One timed phase: name, monotonic start/end, attrs, parent link."""

    __slots__ = ("name", "span_id", "parent_id", "started_at", "ended_at", "attrs")

    def __init__(self, name: str, span_id: int, parent_id: int | None, started_at: float):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.started_at = started_at
        self.ended_at: float | None = None
        self.attrs: dict = {}

    def duration(self) -> float | None:
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at

    def as_dict(self) -> dict:
        duration = self.duration()
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": round(self.started_at, 6),
            "duration": round(duration, 6) if duration is not None else None,
            "attrs": dict(sorted(self.attrs.items())),
        }


class _NoopSpan:
    """The shared do-nothing span: context manager and attr sink."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()

#: Stack sentinel for an unsampled root: children of a suppressed span
#: are suppressed without consuming sample slots of their own.
_SUPPRESSED = object()


class _ActiveSpan:
    """A live recorded span: closes and commits itself on exit."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "SpanRecorder", span_: Span):
        self._recorder = recorder
        self._span = span_

    def set(self, **attrs) -> None:
        self._span.attrs.update(attrs)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._recorder._finish(self._span)
        return False


class SpanRecorder:
    """A bounded, thread-safe buffer of finished spans.

    ``sample_every=1`` keeps every root span, ``N`` keeps each Nth, and
    ``0`` keeps none (the recorder stays installed but records nothing
    — the shape the overhead benchmark measures).  Only *finished*
    spans enter the buffer, in completion order; the buffer holds the
    most recent ``max_entries`` (TraceLog cap semantics).
    """

    def __init__(self, max_entries: int = 1024, sample_every: int = 1):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=max_entries)
        self.max_entries = max_entries
        self.sample_every = sample_every
        self._ids = count()
        self._roots_seen = 0
        self._sampled = 0
        self._dropped = 0
        self._local = threading.local()
        self._epoch = time.monotonic()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, attrs: dict):
        stack = self._stack()
        if stack:
            parent = stack[-1]
            if parent is _SUPPRESSED:
                stack.append(_SUPPRESSED)
                return _StackPop(self)
            parent_id = parent.span_id
        else:
            with self._lock:
                self._roots_seen += 1
                keep = (
                    self.sample_every > 0
                    and (self._roots_seen - 1) % self.sample_every == 0
                )
                if keep:
                    self._sampled += 1
                else:
                    self._dropped += 1
            if not keep:
                stack.append(_SUPPRESSED)
                return _StackPop(self)
            parent_id = None
        span_ = Span(
            name,
            span_id=next(self._ids),
            parent_id=parent_id,
            started_at=time.monotonic() - self._epoch,
        )
        if attrs:
            span_.attrs.update(attrs)
        stack.append(span_)
        return _ActiveSpan(self, span_)

    def _finish(self, span_: Span) -> None:
        span_.ended_at = time.monotonic() - self._epoch
        stack = self._stack()
        if stack and stack[-1] is span_:
            stack.pop()
        with self._lock:
            self._entries.append(span_)

    def _pop_suppressed(self) -> None:
        stack = self._stack()
        if stack and stack[-1] is _SUPPRESSED:
            stack.pop()

    # -- inspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def tail(self, limit: int | None = None) -> list:
        """The most recent finished spans as dicts (``limit=0`` → none)."""
        with self._lock:
            entries = list(self._entries)
        if limit is not None:
            entries = entries[-limit:] if limit > 0 else []
        return [span_.as_dict() for span_ in entries]

    def stats(self) -> dict:
        with self._lock:
            return {
                "roots_seen": self._roots_seen,
                "sampled": self._sampled,
                "dropped": self._dropped,
                "buffered": len(self._entries),
                "max_entries": self.max_entries,
                "sample_every": self.sample_every,
            }


class _StackPop:
    """Exit handler for suppressed (unsampled) spans: pop and forget."""

    __slots__ = ("_recorder",)

    def __init__(self, recorder: SpanRecorder):
        self._recorder = recorder

    def set(self, **attrs) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._recorder._pop_suppressed()
        return False


# ---------------------------------------------------------------------------
# The process-wide recorder
# ---------------------------------------------------------------------------

_state_lock = threading.Lock()
_recorder: SpanRecorder | None = None


def span(name: str, **attrs):
    """A context manager timing one phase under the active recorder.

    The fast path: with tracing off (the default) this is one global
    read returning the shared no-op span.  Instrumented code never
    checks whether tracing is on — it always writes ``with
    span("plan"): ...`` and the cost collapses when nobody listens.
    """
    recorder = _recorder
    if recorder is None:
        return NOOP_SPAN
    return recorder.start(name, attrs)


def enable_tracing(max_entries: int = 1024, sample_every: int = 1) -> SpanRecorder:
    """Install (or return the existing) process-wide span recorder."""
    global _recorder
    with _state_lock:
        if _recorder is None:
            _recorder = SpanRecorder(
                max_entries=max_entries, sample_every=sample_every
            )
        return _recorder


def disable_tracing() -> None:
    """Remove the process-wide recorder (spans become no-ops again)."""
    global _recorder
    with _state_lock:
        _recorder = None


def get_recorder() -> SpanRecorder | None:
    return _recorder


class tracing:
    """Scoped tracing: install a fresh recorder inside, restore after.

    ::

        with obs.tracing(sample_every=1) as recorder:
            session.run("{ x | S(x) }")
        assert recorder.tail()
    """

    def __init__(self, max_entries: int = 1024, sample_every: int = 1):
        self._recorder = SpanRecorder(
            max_entries=max_entries, sample_every=sample_every
        )
        self._previous: SpanRecorder | None = None

    def __enter__(self) -> SpanRecorder:
        global _recorder
        with _state_lock:
            self._previous = _recorder
            _recorder = self._recorder
        return self._recorder

    def __exit__(self, exc_type, exc, tb) -> None:
        global _recorder
        with _state_lock:
            _recorder = self._previous
