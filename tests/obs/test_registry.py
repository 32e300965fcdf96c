"""The registry: one name per instrument, collectors, the flatten/nest
bridge, and the package surface that exports it."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import flatten, nest

REPO_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


class TestNames:
    def test_snapshot_emits_one_key_per_instrument(self):
        registry = MetricsRegistry()
        registry.counter("serve.queries.accepted").inc(3)
        registry.counter("serve.queries.accepted").inc()
        assert registry.snapshot() == {"serve.queries.accepted": 4}


class TestCollectors:
    def test_collector_output_flattens_under_prefix(self):
        registry = MetricsRegistry()
        registry.register_collector("db.main", lambda: {"memo": {"hits": 2}, "views": 1})
        snap = registry.snapshot()
        assert snap["db.main.memo.hits"] == 2
        assert snap["db.main.views"] == 1

    def test_collector_is_polled_fresh_each_snapshot(self):
        registry = MetricsRegistry()
        state = {"n": 0}

        def collect():
            state["n"] += 1
            return {"n": state["n"]}

        registry.register_collector("c", collect)
        assert registry.snapshot()["c.n"] == 1
        assert registry.snapshot()["c.n"] == 2

    def test_reregistering_a_prefix_replaces(self):
        registry = MetricsRegistry()
        registry.register_collector("p", lambda: {"v": 1})
        registry.register_collector("p", lambda: {"v": 2})
        assert registry.snapshot()["p.v"] == 2

    def test_unregister(self):
        registry = MetricsRegistry()
        registry.register_collector("p", lambda: {"v": 1})
        registry.unregister_collector("p")
        assert "p.v" not in registry.snapshot()

    def test_empty_prefix_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.register_collector("", dict)


class TestBridge:
    def test_flatten_nest_round_trip(self):
        nested = {
            "memo": {"hits": 3, "misses": 1},
            "views": 2,
            "empty": {},
        }
        flat = flatten("db.main", nested)
        assert flat == {
            "db.main.memo.hits": 3,
            "db.main.memo.misses": 1,
            "db.main.views": 2,
            "db.main.empty": {},
        }
        assert nest(flat, "db.main") == nested

    def test_nest_filters_by_prefix(self):
        flat = {"a.x": 1, "b.y": 2}
        assert nest(flat, "a") == {"x": 1}

    def test_nest_without_prefix_rebuilds_everything(self):
        flat = {"a.x": 1, "b": 2}
        assert nest(flat) == {"a": {"x": 1}, "b": 2}


class TestSnapshot:
    def test_snapshot_is_canonical_json_material(self):
        registry = MetricsRegistry()
        registry.counter("b.z").inc()
        registry.gauge("a.y").set(4)
        registry.histogram("c.w").observe(0.2)
        registry.register_collector("d", lambda: {"k": 1})
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)


class TestPackageSurface:
    def test_serve_package_does_not_warn(self):
        # A subprocess keeps this hermetic: reloading ``repro.serve``
        # in-process would desync the package object other tests hold.
        proc = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                "import repro.serve",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr

    def test_top_level_exports(self):
        import repro

        for name in (
            "QueryService",
            "ServeClient",
            "DurableDatabase",
            "Store",
            "Catalog",
            "MetricsRegistry",
            "enable_tracing",
            "render_prometheus",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__
