"""Shared helpers for the experiment benchmarks (E1-E14).

Each ``bench_eNN_*.py`` file regenerates one row-group of the paper's
"results" (EXPERIMENTS.md): a pytest-benchmark measurement plus shape
assertions (who wins / how fast it grows), never absolute numbers.

``bench_engine.py`` and ``bench_query.py`` additionally record
before/after timings of the :mod:`repro.engine` paths (naive vs
semi-naive fixpoints, kernel hash join vs nested loop, planner vs
fallback) through the session-scoped
:func:`engine_record` fixture; when any were recorded, the session
merges them into ``BENCH_engine.json`` at the repository root (smoke
runs under ``--benchmark-disable`` never write).
"""

import json
import pathlib

import pytest

from repro.budget import Budget

#: name -> measurement dict, filled by the ``engine_record`` fixture.
_ENGINE_RECORDS: dict = {}


@pytest.fixture
def unlimited():
    def make() -> Budget:
        return Budget(
            steps=None, objects=None, iterations=None, facts=None, stages=None
        )

    return make


@pytest.fixture(scope="session")
def engine_record():
    """Record one engine before/after measurement for BENCH_engine.json."""

    def record(name: str, **fields) -> None:
        _ENGINE_RECORDS[name] = fields

    return record


def pytest_sessionfinish(session, exitstatus):
    if not _ENGINE_RECORDS:
        return
    if getattr(session.config.option, "benchmark_disable", False):
        # Smoke runs (CI's --benchmark-disable pass) measure nothing
        # meaningful; never let them clobber the committed numbers.
        return
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    merged: dict = {}
    if out.exists():
        try:
            merged = json.loads(out.read_text())
        except (ValueError, OSError):
            merged = {}
    # Merge: a partial run (one bench file) refreshes only its own
    # entries, so the regression gate keeps seeing the full set.
    merged.update(_ENGINE_RECORDS)
    out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
