"""Exporters: canonical JSON and the Prometheus text dump."""

import json

from repro.obs import MetricsRegistry, render_json, render_prometheus, sanitize_name


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("serve.queries.accepted").inc(3)
    registry.gauge("serve.in_flight").set(1)
    registry.histogram("serve.execution_seconds", buckets=(0.1, 1.0)).observe(0.05)
    registry.register_collector(
        "db.main", lambda: {"memo": {"hits": 2}, "label": "not-a-number"}
    )
    return registry


class TestJson:
    def test_canonical_bytes(self):
        registry = populated_registry()
        text = render_json(registry)
        assert text == json.dumps(
            registry.snapshot(), sort_keys=True, separators=(",", ":")
        )
        # Deterministic across renders of the same state.
        assert render_json(registry) == text


class TestPrometheus:
    def test_family_names_are_sanitised_and_prefixed(self):
        assert sanitize_name("serve.queries.accepted") == (
            "repro_serve_queries_accepted"
        )
        assert sanitize_name("9lives") == "repro__9lives"

    def test_counter_gauge_histogram_families(self):
        text = render_prometheus(populated_registry())
        assert "# TYPE repro_serve_queries_accepted counter" in text
        assert "repro_serve_queries_accepted 3" in text
        assert "# TYPE repro_serve_in_flight gauge" in text
        assert "# TYPE repro_serve_execution_seconds histogram" in text
        assert 'repro_serve_execution_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_serve_execution_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_serve_execution_seconds_count 1" in text

    def test_each_family_exported_once(self):
        text = render_prometheus(populated_registry())
        families = [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")]
        assert len(families) == len(set(families))
        assert text.count("repro_serve_queries_accepted 3") == 1

    def test_collector_numeric_leaves_export_untyped(self):
        text = render_prometheus(populated_registry())
        assert "# TYPE repro_db_main_memo_hits untyped" in text
        assert "repro_db_main_memo_hits 2" in text
        # Strings have no Prometheus representation; skipped, not mangled.
        assert "label" not in text

    def test_ends_with_newline(self):
        assert render_prometheus(MetricsRegistry()).endswith("\n")
