"""The metrics registry — the one sink every subsystem of a service
reports into.

Three instrument kinds, the minimum a query service needs to be
operable:

* :class:`Counter` — monotone event counts (queries started, completed,
  rejected, timed out);
* :class:`Gauge` — instantaneous levels (queue depth, in-flight
  requests);
* :class:`Histogram` — latency distributions over fixed bucket
  boundaries (queue wait, execution time), recording count / sum /
  min / max plus cumulative bucket counts, Prometheus-style.

Every instrument is thread-safe (one lock per instrument, so hot
counters on different metrics never contend with each other), and every
snapshot is a plain dict of numbers — JSON-exportable, deterministic key
order, no wall-clock readings of its own.  The registry creates
instruments on first use and returns the same instance for the same
name afterwards; mixing kinds under one name is an error, not a silent
shadowing.

Names are **namespaced dotted paths** (``serve.queries.accepted``,
``engine.intern.hits``, ``store.wal.appends``) — the one schema every
exporter renders from (README "Observability" documents the full
table); each reading appears under exactly one name.  Subsystems that
already keep their own thread-safe counters (the interner, the memo
cache, the plan LRU, a durable store) register a zero-argument
**collector** under a prefix instead of double-counting into
instruments; :meth:`MetricsRegistry.snapshot` polls them and merges
their readings under ``prefix.*`` dotted keys.  Collection happens at
snapshot time only — the hot path pays nothing.

:func:`flatten` and :func:`nest` convert between nested stats dicts and
the flat dotted-key schema; they are the *only* bridge, so every
rendering (STATS wire op, ``Catalog.snapshot``, EXPLAIN's counter
block, the Prometheus dump) derives from one shape.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "flatten",
    "nest",
]

#: Default histogram bucket upper bounds (seconds) — spans sub-ms cache
#: hits to multi-second machine simulations.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value


class Gauge:
    """An instantaneous level that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount=1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value


class Histogram:
    """A distribution over fixed bucket boundaries.

    ``buckets`` are upper bounds; an observation lands in every bucket
    whose bound it does not exceed (cumulative counts), plus the
    implicit ``+Inf`` bucket tracked by ``count``.
    """

    __slots__ = ("_lock", "buckets", "_bucket_counts", "count", "total", "min", "max")

    def __init__(self, buckets: tuple = DEFAULT_BUCKETS):
        self._lock = threading.Lock()
        self.buckets = tuple(sorted(buckets))
        self._bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._bucket_counts[index] += 1

    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Bucket-resolution quantile estimate (the bound of the first
        bucket whose cumulative count reaches ``q``), ``None`` when
        empty.  Good enough for operational p50/p99 readouts."""
        with self._lock:
            if not self.count:
                return None
            target = q * self.count
            for bound, cumulative in zip(self.buckets, self._bucket_counts):
                if cumulative >= target:
                    return bound
            return self.max

    def bucket_counts(self) -> list:
        """``(bound, cumulative count)`` pairs under one lock hold."""
        with self._lock:
            return list(zip(self.buckets, self._bucket_counts))

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "count": self.count,
                "sum": round(self.total, 6),
                "min": round(self.min, 6) if self.min is not None else None,
                "max": round(self.max, 6) if self.max is not None else None,
                "mean": round(self.total / self.count, 6) if self.count else 0.0,
                "buckets": {
                    repr(bound): cumulative
                    for bound, cumulative in zip(self.buckets, self._bucket_counts)
                },
            }


def flatten(prefix: str, mapping: Mapping) -> dict:
    """Nested stats dicts → the flat dotted-key schema.

    ``flatten("query.memo", {"hits": 3, "sub": {"a": 1}})`` is
    ``{"query.memo.hits": 3, "query.memo.sub.a": 1}``.  An empty prefix
    flattens in place.  An empty nested mapping stays as an empty-dict
    leaf, so :func:`nest` is an exact inverse."""
    flat: dict = {}
    for key, value in mapping.items():
        dotted = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping) and value:
            flat.update(flatten(dotted, value))
        elif isinstance(value, Mapping):
            flat[dotted] = {}
        else:
            flat[dotted] = value
    return flat


def nest(flat: Mapping, prefix: str = "") -> dict:
    """The inverse bridge: dotted keys (optionally filtered to those
    under *prefix*) back to a nested dict, sorted key order."""
    if prefix and not prefix.endswith("."):
        prefix += "."
    nested: dict = {}
    for dotted in sorted(flat):
        if prefix:
            if not dotted.startswith(prefix):
                continue
            path = dotted[len(prefix):]
        else:
            path = dotted
        parts = path.split(".")
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                # A leaf already claimed this path; keep the leaf.
                break
        else:
            node[parts[-1]] = flat[dotted]
    return nested


class MetricsRegistry:
    """Named instruments plus polled collectors, snapshot as one dict.

    Instruments are created on first use under their dotted name.
    Collectors are zero-argument callables returning a (possibly
    nested) stats dict, polled at snapshot time and merged under their
    prefix.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict = {}
        self._collectors: dict = {}

    def _instrument(self, name: str, kind, *args):
        with self._lock:
            instrument = self._metrics.get(name)
            if instrument is None:
                instrument = self._metrics[name] = kind(*args)
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(name, Gauge)

    def histogram(self, name: str, buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        return self._instrument(name, Histogram, buckets)

    def register_collector(self, prefix: str, collect: Callable[[], Mapping]) -> None:
        """Poll *collect* at snapshot time, merged under ``prefix.*``.

        Re-registering a prefix replaces the previous collector (the
        serving layer re-registers per-database collectors on reload).
        """
        if not prefix:
            raise ValueError("collector prefix must be non-empty")
        with self._lock:
            self._collectors[prefix] = collect

    def unregister_collector(self, prefix: str) -> None:
        with self._lock:
            self._collectors.pop(prefix, None)

    def instruments(self) -> list:
        """``(name, instrument)`` pairs, sorted by name."""
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self) -> dict:
        """Every instrument and collector reading, sorted by key.

        Collector output is flattened under the collector's prefix.
        """
        with self._lock:
            items = sorted(self._metrics.items())
            collectors = sorted(self._collectors.items())
        snap = {name: instrument.snapshot() for name, instrument in items}
        # Collectors run outside the registry lock: they read other
        # subsystems' locks and must never nest inside ours.
        for prefix, collect in collectors:
            snap.update(flatten(prefix, collect()))
        return dict(sorted(snap.items()))
