"""Compare two sets of end-to-end benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are files that ``run.py --out`` appended runs
to, typically ten seeds of one commit each (A the parent, B the change).
For every (workload, metric) present in both, one row gives each side's
median and quartiles, B's change against A's median, and a verdict:

* ``unresolved`` -- a side's run-to-run spread (quartile distance over
  median) exceeds the metric's bound, and not every B run reads better
  than every A run;
* ``regressed`` -- otherwise, B's median is worse than A's by more than
  the bound;
* ``ok`` -- otherwise;
* ``-`` -- a per-layer metric, which has no bound.

Bounds and directions come from ``BENCHMARK.json``.  The end-to-end
metrics measured on ``durable_mixed`` alone, which ``BENCHMARK.json``
cannot list because each of its end-to-end metrics must be measured on
every workload, take theirs from :data:`EXTRA_BOUNDS`.  Exits 1 when any
metric regressed.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: name -> (better, bound) for end-to-end metrics missing from
#: BENCHMARK.json, bounded like its query latencies; error_rate may not
#: increase at all.
EXTRA_BOUNDS = {
    "update_p50_ms": ("lower", 0.20),
    "update_p99_ms": ("lower", 0.20),
    "stats_p50_ms": ("lower", 0.20),
    "error_rate": ("lower", 0.0),
}


def load_runs(path: pathlib.Path) -> dict:
    """``(workload, metric) -> [values]`` over every run in *path*."""
    values: dict = {}
    for run in json.loads(path.read_text())["runs"]:
        for metric, entry in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(entry["value"])
    return values


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else math.inf


def verdict(a: list, b: list, better: str, bound: float | None) -> tuple:
    """``(change, verdict)``: B's median against A's, signed so that a
    positive change is a worsening."""
    sign = 1 if better == "lower" else -1
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    if median_a:
        change = sign * (median_b - median_a) / abs(median_a)
    else:
        change = 0.0 if median_b == median_a else sign * math.copysign(math.inf, median_b)
    if bound is None:
        return change, "-"
    every_run_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if max(spread(a), spread(b)) > bound and not every_run_better:
        return change, "unresolved"
    return change, "regressed" if change > bound else "ok"


def main(argv: list | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update(EXTRA_BOUNDS)
    rules.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    side_a, side_b = (load_runs(pathlib.Path(path)) for path in args)

    def show(values: list) -> str:
        q1, median, q3 = quartiles(values)
        return f"{median:11.4f} [{q1:.4f}, {q3:.4f}]"

    print(f"{'workload':<14} {'metric':<40} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'change':>8} {'bound':>6}  verdict")
    regressed = False
    for key in sorted(side_a.keys() & side_b.keys()):
        workload, metric = key
        if metric not in rules:
            continue
        better, bound = rules[metric]
        change, outcome = verdict(side_a[key], side_b[key], better, bound)
        regressed |= outcome == "regressed"
        print(f"{workload:<14} {metric:<40} {show(side_a[key]):<36} {show(side_b[key]):<36} "
              f"{change:>+8.1%} {'-' if bound is None else f'{bound:.2f}':>6}  {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
