"""End-to-end smoke of ``python -m repro.serve`` (the CI satellite).

Boots the real CLI in a subprocess with the slow-query log armed,
drives PING / QUERY / STATS / METRICS over the wire, then SIGTERMs it
and checks the shutdown dump: the STATS JSON snapshot followed by the
Prometheus metrics text.
"""

import json
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.serve.client import ServeClient

REPO_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

REQUIRED_FAMILIES = (
    "repro_serve_queries_accepted",
    "repro_serve_queries_completed",
    "repro_serve_queries_slow",
    "repro_serve_queue_wait_seconds",
    "repro_serve_execution_seconds",
    "repro_engine_ops_rows_out",
)


@pytest.fixture()
def cli_server():
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--slow-query-ms",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
    )
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("repro.serve listening on "), banner
        host, _, port = banner.rpartition(" ")[2].rpartition(":")
        yield proc, host, int(port)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)


class TestServeCliSmoke:
    def test_full_lifecycle(self, cli_server):
        proc, host, port = cli_server
        with ServeClient(host, port, seed=0) as client:
            assert client.ping()
            result = client.query("main", "{ x | S(x) }")
            assert result["op"] == "QUERY"

            stats = client.stats()
            assert stats["metrics"]["serve.queries.completed"] == 1
            # --slow-query-ms 0 records every finished query.
            assert stats["metrics"]["serve.queries.slow"] == 1
            (slow,) = stats["slow_queries"]
            assert slow["text"] == "{ x | S(x) }"
            assert "Scan(" in slow["physical"]

            scrape = client.metrics_text()
            for family in REQUIRED_FAMILIES:
                assert family in scrape, family

        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 0, stderr
        assert "shutting down..." in stdout

        # Shutdown dump: a STATS JSON object, then the Prometheus text.
        json_start = stdout.index("{")
        decoder = json.JSONDecoder()
        snapshot, end = decoder.raw_decode(stdout[json_start:])
        assert snapshot["metrics"]["serve.queries.accepted"] >= 1
        assert snapshot["traces"] == []  # trace_limit=0 in the dump
        prom = stdout[json_start + end :]
        for family in REQUIRED_FAMILIES:
            assert family in prom, family
