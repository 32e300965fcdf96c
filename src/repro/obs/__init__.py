"""repro.obs — the one observability layer.  DESIGN.md §2.15.

Before this package the system's telemetry was five incompatible
ad-hoc surfaces: ``engine/ops.OpStats``, the interner's ``InternStats``,
the memo/plan-LRU counters in ``query/session.py``, the kernel-cache
counters in ``deductive/kernels.py``, the store counters, and the
serving layer's private metrics and trace records — each with its own
naming, snapshot shape, and thread-safety story.  ``repro.obs`` is the single
subsystem they all report into:

* :mod:`~repro.obs.metrics` — the thread-safe
  :class:`MetricsRegistry`: counters / gauges / histograms under
  namespaced dotted names (``serve.queries.accepted``,
  ``engine.intern.hits``) — one name per reading — and pull-time
  *collectors* so subsystems with their own counters never
  double-account.  :func:`flatten` / :func:`nest` are
  the only bridge between nested stats dicts and the dotted schema.
* :mod:`~repro.obs.span` — lightweight span tracing: ``parse → plan →
  execute → fixpoint-round`` and ``commit`` spans with monotonic
  timings, budget spend, and parent links, deterministically sampled
  and bounded, with a no-op fast path when tracing is off.
* :mod:`~repro.obs.trace` — the per-request :class:`RequestTrace`, the
  one record of an admitted request, and the bounded :class:`TraceLog`
  that keeps the recent ones plus a slow view of those over a
  configurable threshold, EXPLAIN ANALYZE physical tree attached
  (``python -m repro.serve --slow-query-ms N``); STATS ships both.
* :mod:`~repro.obs.export` — one snapshot, two renderings: the
  canonical-JSON dump the STATS wire op embeds, and a Prometheus-style
  text dump (the METRICS wire op / CLI shutdown dump).

The schema (every dotted name and who owns it) is documented in the
README's "Observability" section.
"""

from .export import render_json, render_prometheus, sanitize_name
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    flatten,
    nest,
)
from .span import (
    NOOP_SPAN,
    Span,
    SpanRecorder,
    disable_tracing,
    enable_tracing,
    get_recorder,
    span,
    tracing,
)
from .trace import RequestTrace, TraceLog

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "RequestTrace",
    "Span",
    "SpanRecorder",
    "TraceLog",
    "disable_tracing",
    "enable_tracing",
    "flatten",
    "get_recorder",
    "nest",
    "render_json",
    "render_prometheus",
    "sanitize_name",
    "span",
    "tracing",
]
