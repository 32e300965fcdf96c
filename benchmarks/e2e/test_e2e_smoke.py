"""Smoke test of the end-to-end benchmark: every workload, 1-s windows.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

Runs ``run.py`` on each workload, untraced and traced, and checks that
every answer, state and premise check passes and that every metric
``BENCHMARK.json`` names is emitted with its unit.  Takes about 1.5
minutes on two cores.
"""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_its_checks_and_emits_every_metric(workload, trace, tmp_path):
    out = tmp_path / "runs.json"
    proc = _run(
        "run.py", "--seed", "7", "--workload", workload,
        "--seconds", "1", "--trace", str(trace), "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }

    (run,) = json.loads(out.read_text())["runs"]
    assert run["workload"] == workload and run["problems"] == []
    for metric in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
        assert run["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f" {metric['name']} " in proc.stdout

    compared = _run("compare.py", str(out), str(out))
    assert compared.returncode == 0, compared.stderr
    assert "regressed" not in compared.stdout
