"""The observability redesign, end to end through the serving layer.

One registry snapshot feeds STATS, the per-database sections, EXPLAIN's
counter block, and the Prometheus dump; the drain invariant holds after
both close() paths; slow queries are captured with their physical
trees; spans cover the request lifecycle.
"""

import time

import pytest

from repro.obs import tracing
from repro.obs.export import render_prometheus
from repro.obs.metrics import nest
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.serve.service import QueryService
from repro.workloads import serve_databases

from tests.serve.test_service import _blocked_service


def _assert_one_metric_schema(service):
    metrics = service.stats()["metrics"]
    flat = sorted(key for key in metrics if "." not in key)
    assert not flat, f"undotted metric keys: {flat}"
    families = [
        line.split()[2]
        for line in render_prometheus(service.metrics).splitlines()
        if line.startswith("# TYPE ")
    ]
    repeated = sorted({family for family in families if families.count(family) > 1})
    assert not repeated, f"families rendered twice: {repeated}"
    return metrics


class TestUnifiedStats:
    def test_one_metric_schema_on_a_durable_service(self, tmp_path):
        data_dir = str(tmp_path / "data")
        service = QueryService(
            serve_databases(), workers=1, data_dir=data_dir, sync=False
        )
        try:
            service.query("main", "{ x | S(x) }").raise_for_status()
            service.update("main", asserts={"S": ["z"]}).raise_for_status()
            service.snapshot("main")
            metrics = _assert_one_metric_schema(service)
            assert metrics["serve.updates.applied"] == 1
            assert metrics["store.wal.appends"] == 1
            assert metrics["store.snapshots"] >= 1
        finally:
            service.close()

        restarted = QueryService(workers=1, data_dir=data_dir, sync=False)
        try:
            restarted.query("main", "{ x | S(x) }").raise_for_status()
            metrics = _assert_one_metric_schema(restarted)
            assert metrics["store.recoveries"] >= 1
        finally:
            restarted.close()

    def test_database_section_carries_shape_and_catalog(self):
        service = QueryService(serve_databases(), workers=1)
        try:
            service.query("main", "{ x | S(x) }")
            stats = service.stats()
            assert "interner" not in stats
            section = stats["databases"]["main"]
            assert sorted(section) == ["adom", "catalog", "facts", "max_depth"]
            # Per-database counters live in the metrics schema only.
            derived = nest(stats["metrics"], "db.main")
            assert {"memo", "plans"} <= set(derived)
        finally:
            service.close()

    def test_engine_op_totals_aggregate(self):
        service = QueryService(serve_databases(), workers=1)
        try:
            service.query("main", "{ x | S(x) }")
            metrics = service.stats()["metrics"]
            assert metrics["engine.ops.rows_out"] > 0
        finally:
            service.close()


class TestDrainInvariant:
    def test_holds_after_graceful_close(self):
        service = QueryService(serve_databases(), workers=2)
        service.query("main", "{ x | S(x) }")
        service.query("main", "nonsense ((")
        service.close()  # raises AssertionError on a dropped outcome
        metrics = service.metrics.snapshot()
        assert metrics["serve.queries.accepted"] == 2
        assert metrics["serve.queries.closed"] == 0

    def test_holds_after_close_without_drain(self):
        service, blocker = _blocked_service(workers=1, max_queue_depth=8)
        occupier = service.submit("block", "x")
        time.sleep(0.05)
        queued = [service.submit("main", "{ x | S(x) }") for _ in range(3)]
        blocker.release.set()
        service.close(drain=False)
        assert occupier.wait(timeout=5) is not None
        for pending in queued:
            assert pending.wait(timeout=5) is not None
        metrics = service.metrics.snapshot()
        settled = sum(
            metrics[f"serve.queries.{name}"]
            for name in ("completed", "timed_out", "failed", "closed")
        )
        assert metrics["serve.queries.accepted"] == settled

    def test_verify_drained_reports_a_dropped_outcome(self):
        service = QueryService(serve_databases(), workers=1)
        try:
            service.query("main", "{ x | S(x) }")
            service.metrics.counter("serve.queries.accepted").inc()  # orphan
            with pytest.raises(AssertionError, match="drain invariant"):
                service.verify_drained()
        finally:
            service.metrics.counter("serve.queries.completed").inc()
            service.close()


class TestSlowQueries:
    def test_threshold_zero_captures_every_query(self):
        service = QueryService(
            serve_databases(), workers=1, slow_query_ms=0.0
        )
        try:
            service.query("main", "{ x | S(x) }")
            stats = service.stats()
            (entry,) = stats["slow_queries"]
            assert entry["db"] == "main"
            assert entry["text"] == "{ x | S(x) }"
            assert entry["outcome"] == "ok"
            assert entry["physical"] and "Scan(" in entry["physical"]
            assert stats["metrics"]["serve.queries.slow"] == 1
            assert stats["service"]["slow_query_ms"] == 0.0
        finally:
            service.close()

    def test_slow_entry_is_the_trace_entry(self):
        service = QueryService(
            serve_databases(), workers=1, slow_query_ms=0.0
        )
        try:
            outcome = service.query("main", "{ x | S(x) }")
            stats = service.stats()
            (slow,) = stats["slow_queries"]
            (trace,) = stats["traces"]
            assert slow["request_id"] == trace["request_id"]
            assert slow["request_id"] == outcome.trace.request_id
            assert slow == trace
        finally:
            service.close()

    def test_updates_pass_the_slow_filter(self):
        service = QueryService(
            serve_databases(), workers=1, slow_query_ms=0.0
        )
        try:
            service.update("main", asserts={"S": ["z"]}).raise_for_status()
            (entry,) = service.stats()["slow_queries"]
            assert entry["text"] == "UPDATE assert=1 retract=0"
            assert entry["outcome"] == "ok"
            assert entry["backend"] == "memory"
            assert service.metrics.counter("serve.queries.slow").value == 1
        finally:
            service.close()

    def test_disabled_by_default(self):
        service = QueryService(serve_databases(), workers=1)
        try:
            service.query("main", "{ x | S(x) }")
            stats = service.stats()
            assert stats["slow_queries"] == []
            assert stats["metrics"]["serve.queries.slow"] == 0
            assert stats["service"]["slow_query_ms"] is None
        finally:
            service.close()


class TestRequestSpans:
    def test_request_span_tree(self):
        service = QueryService(serve_databases(), workers=1)
        try:
            with tracing() as recorder:
                service.query("main", "{ x | S(x) }")
            spans = recorder.tail()
            by_name = {}
            for entry in spans:
                by_name.setdefault(entry["name"], entry)
            request = by_name["serve.request"]
            assert request["parent_id"] is None
            assert request["attrs"]["db"] == "main"
            # The span links to the request's one record, not a copy.
            assert "backend" not in request["attrs"]
            (trace,) = [
                entry
                for entry in service.stats()["traces"]
                if entry["request_id"] == request["attrs"]["request_id"]
            ]
            assert trace["backend"]
            run = by_name["session.run"]
            assert run["parent_id"] == request["span_id"]
        finally:
            service.close()

    def test_commit_span_on_updates(self):
        service = QueryService(serve_databases(), workers=1)
        try:
            with tracing() as recorder:
                outcome = service.update("main", asserts={"S": ["z"]})
            assert outcome.status == "ok"
            commits = [
                entry for entry in recorder.tail() if entry["name"] == "serve.commit"
            ]
            assert [entry["attrs"]["request_id"] for entry in commits] == [
                outcome.trace.request_id
            ]
        finally:
            service.close()

    def test_no_recorder_means_no_spans_recorded(self):
        from repro.obs import get_recorder

        service = QueryService(serve_databases(), workers=1)
        try:
            assert get_recorder() is None
            service.query("main", "{ x | S(x) }")
            assert get_recorder() is None
        finally:
            service.close()


class TestMetricsWireOp:
    def test_metrics_text_over_the_wire(self):
        service = QueryService(serve_databases(), workers=2)
        server = ServeServer(service, port=0)
        server.start()
        try:
            host, port = server.address
            with ServeClient(host, port, seed=0) as client:
                client.query("main", "{ x | S(x) }")
                text = client.metrics_text()
            assert "# TYPE repro_serve_queries_accepted counter" in text
            assert "repro_serve_queries_completed 1" in text
            assert render_prometheus(service.metrics).splitlines()[0] in text
        finally:
            server.stop()

    def test_explain_over_wire_renders_unified_counter_block(self):
        service = QueryService(serve_databases(), workers=2)
        server = ServeServer(service, port=0)
        server.start()
        try:
            host, port = server.address
            with ServeClient(host, port, seed=0) as client:
                text = client.explain("main", "{ x | S(x) }", run=True)
            assert "memo cache: hits=" in text
            assert "plan cache: hits=" in text
        finally:
            server.stop()
