"""Exporters: one snapshot, two renderings.

Both renderings derive from :meth:`~repro.obs.metrics.MetricsRegistry.
snapshot`'s dotted-key schema — there is no second accounting path:

* :func:`render_json` — the canonical JSON dump: sorted keys, compact
  separators, deterministic under any ``PYTHONHASHSEED`` (snapshots
  carry no wall-clock readings of their own).  This is the exact
  object the STATS wire op embeds under ``"metrics"``.
* :func:`render_prometheus` — a Prometheus-style text dump.  Dotted
  names sanitise to underscore-separated metric families
  (``serve.queries.accepted`` → ``repro_serve_queries_accepted``);
  counters and gauges render one sample line, histograms render
  cumulative ``_bucket{le="..."}`` lines plus ``_sum`` and ``_count``.
  Collector readings render as untyped samples (numbers only;
  non-numeric collector leaves are skipped — Prometheus has no string
  samples).
"""

from __future__ import annotations

import json

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["render_json", "render_prometheus", "sanitize_name"]

#: Every exported family carries this prefix, namespacing the process's
#: metrics against whatever else a scrape target exposes.
PROMETHEUS_PREFIX = "repro_"


def sanitize_name(name: str) -> str:
    """A dotted metric name as a Prometheus family name."""
    cleaned = "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return PROMETHEUS_PREFIX + cleaned


def render_json(registry: MetricsRegistry) -> str:
    """The canonical-JSON snapshot: sorted keys, compact, byte-stable."""
    return json.dumps(
        registry.snapshot(), sort_keys=True, separators=(",", ":")
    )


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus exposition-format text."""
    lines: list = []
    seen: set = set()
    for name, instrument in registry.instruments():
        family = sanitize_name(name)
        seen.add(name)
        if isinstance(instrument, Counter):
            lines.append(f"# TYPE {family} counter")
            lines.append(f"{family} {instrument.value}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {family} gauge")
            lines.append(f"{family} {_format_value(instrument.value)}")
        elif isinstance(instrument, Histogram):
            lines.append(f"# TYPE {family} histogram")
            cumulative = 0
            for bound, cumulative in instrument.bucket_counts():
                lines.append(
                    f'{family}_bucket{{le="{_format_value(float(bound))}"}} '
                    f"{cumulative}"
                )
            lines.append(f'{family}_bucket{{le="+Inf"}} {instrument.count}')
            lines.append(f"{family}_sum {_format_value(instrument.total)}")
            lines.append(f"{family}_count {instrument.count}")
    # Collector readings (and nothing already rendered above): numeric
    # leaves only, exported as untyped samples.
    snapshot = registry.snapshot()
    for name in sorted(snapshot):
        if name in seen:
            continue
        value = snapshot[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        family = sanitize_name(name)
        lines.append(f"# TYPE {family} untyped")
        lines.append(f"{family} {_format_value(value)}")
    return "\n".join(lines) + "\n"
