"""End-to-end serving benchmark: the real server, over TCP, answers checked.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed N [--workload NAME] [--seconds S]
                                  [--trace [0|1]] [--out FILE.json]

(``PYTHONPATH=src python -m benchmarks.e2e.run ...`` is the same.)

For each workload (all four when ``--workload`` is omitted) this

1. spawns ``python -m repro.serve`` as a separate process and measures
   ``setup_s``, spawn until the first PING succeeds, as the median of
   three spawns after one untimed spawn (``src`` is byte-compiled
   first);
2. primes the caches where the workload needs it;
3. runs 3 s of untimed warm-up;
4. runs the measured window of ``--seconds`` (default 20) as a closed
   loop: two client threads, one ``ServeClient`` connection each, every
   caller waiting for its reply before sending again, ``retry=False``;
5. reads STATS before and after the window and the server's ``VmHWM``;
6. stops the server with SIGTERM (``durable_mixed`` first checks its
   state hash, SIGKILLs the server, and checks the hash again after a
   restart on the same data directory).

With ``--trace 1`` a second, traced pass follows, with the server
started through ``benchmarks/e2e/server.py``, which times each layer.

The server is pinned to the first CPU and the load generator to the
second.  Every time is divided by the slowdown of the server's CPU
when it was measured (see ``speed.py``), so times read as on an
uncontended reference machine; ``machine.slowdown`` reports the factor.

Every metric is printed as ``workload  metric  value  unit  n=samples``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics
of ``BENCHMARK.json``, or its ``per_layer`` metrics under ``--trace 1``.
The exit code is 1 when any answer, state, or premise check fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if not (SRC / "repro" / "serve" / "__main__.py").is_file():
    sys.exit(f"{__file__}: no repro sources under {SRC}; run from a full checkout")
sys.path[:0] = [str(SRC), str(ROOT)]

from repro.errors import ReproError  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

from benchmarks.e2e.server import LAYERS  # noqa: E402
from benchmarks.e2e.speed import SpeedProbe  # noqa: E402
from benchmarks.e2e.workloads import BUILDERS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAUNCHER = pathlib.Path(__file__).resolve().parent / "server.py"
WORK = ROOT / ".e2e_work"

#: Fixed server settings; the remaining ones (queue depth 64, memo 512
#: entries, plan LRU 256 entries, fsync per commit, default compaction)
#: are the server's defaults.
SERVER_ARGS = ["--host", "127.0.0.1", "--port", "0", "--workers", "2"]
CONNECTIONS = 2
SETUP_SPAWNS = 3
WARMUP_S = 3.0
CALL_TIMEOUT_S = 30.0
SPAWN_TIMEOUT_S = 60.0
#: Sample-rate premise: 1000 QUERY (and, durable, UPDATE) samples per
#: 20 s of window, so at least ten samples lie beyond the p99.
MIN_RATE_PER_S = 50
#: Share of ``Workload.must_hit`` replies that must be memo hits.
MUST_HIT_SHARE = 0.95


class Sample(NamedTuple):
    """One request as the client saw it."""

    op: str
    rtt_s: float
    error: str | None  # None: the reply was ok and its answer right
    cached: bool
    queue_wait: float | None
    execution: float | None
    key: tuple | None
    end: float  # time.monotonic() when the reply arrived


class Server:
    """One spawned server process with a connected client."""

    def __init__(self, argv: list, cpu: int | None):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
        self.client: ServeClient | None = None
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        if cpu is not None:
            # Before the server starts its threads, which inherit it.
            os.sched_setaffinity(self.proc.pid, {cpu})
        watchdog = threading.Timer(SPAWN_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("repro.serve listening on "):
                raise RuntimeError(f"server did not start (first line {line!r})")
            host, _, port = line.split()[-1].rpartition(":")
            self.address = (host, int(port))
            self.client = self.connect()
            self.client.call({"op": "PING"}, retry=False)
        except BaseException:
            self.kill()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - started

    def connect(self) -> ServeClient:
        return ServeClient(*self.address, call_timeout=CALL_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM, wait for the graceful shutdown; the exit code."""
        if self.client is not None:
            self.client.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=SPAWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode

    def kill(self) -> None:
        if self.client is not None:
            self.client.close()
        self.proc.kill()
        self.proc.communicate()


class Phase(NamedTuple):
    samples: list
    start_ns: int
    end_ns: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def interval(self) -> tuple:
        """``(start, end)`` in ``time.monotonic()`` seconds."""
        return self.start_ns / 1e9, self.end_ns / 1e9


class Pass:
    """One spawn-to-shutdown measurement of one workload."""

    def __init__(
        self, workload: Workload, workdir: pathlib.Path, traced: bool, server_cpu: int | None
    ):
        self.workload = workload
        self.server_cpu = server_cpu
        self.workdir = workdir
        self.traced = traced
        self.failures: Counter = Counter()
        self.problems: list = []
        self.attempted = 0
        self._seen: dict = {}
        self._spawns = 0
        self.data_dir: pathlib.Path | None = None
        self.db_args = []
        for name, spec in sorted(workload.specs.items()):
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(spec))
            self.db_args += ["--db", f"{name}={path}"]

    def spawn(self, data_dir: pathlib.Path | None = None) -> Server:
        argv = [sys.executable]
        if self.traced:
            argv += [str(LAUNCHER), "--trace-dir", str(self.workdir)]
        else:
            argv += ["-m", "repro.serve"]
        argv += SERVER_ARGS + self.db_args
        if self.workload.durable:
            if data_dir is None:  # a fresh store, seeded from --db
                self._spawns += 1
                data_dir = self.workdir / f"data{self._spawns}"
            self.data_dir = data_dir
            argv += ["--data-dir", str(data_dir)]
        return Server(argv, self.server_cpu)

    # -- requests ---------------------------------------------------------

    def check(self, message: dict, reply: dict) -> str | None:
        """Why *reply* is wrong for *message*, or None."""
        if message["op"] == "UPDATE":
            changed = reply["asserted"] + reply["retracted"]
            return None if changed == 1 else f"update changed {changed} facts"
        if message["op"] != "QUERY":
            return None
        key = (message["db"], message["query"])
        result = reply["result"]
        expected = self.workload.expected.get(key)
        if expected is not None:
            return None if result in expected else "wrong answer"
        first = self._seen.setdefault(key, result)
        return None if first == result else "answer differs from an earlier reply"

    def call(self, client: ServeClient, message: dict) -> Sample:
        key = (message["db"], message["query"]) if message["op"] == "QUERY" else None
        start = time.perf_counter()
        try:
            reply = client.call(message, retry=False)
        except ReproError as exc:
            rtt = time.perf_counter() - start
            return Sample(message["op"], rtt, getattr(exc, "type", None) or "error",
                          False, None, None, key, time.monotonic())
        rtt = time.perf_counter() - start
        return Sample(
            message["op"], rtt, self.check(message, reply), bool(reply.get("cached")),
            reply.get("queue_wait"), reply.get("execution_seconds"), key, time.monotonic(),
        )

    def record(self, samples: list) -> None:
        self.attempted += len(samples)
        self.failures.update(s.error for s in samples if s.error is not None)

    def phase(self, clients: list, streams: list, seconds: float) -> Phase:
        """Each client sends from its stream until *seconds* pass."""
        start_ns = time.monotonic_ns()
        until = time.monotonic() + seconds
        outputs = [[] for _ in clients]

        def loop(client, stream, out):
            while time.monotonic() < until:
                out.append(self.call(client, next(stream)))

        threads = [
            threading.Thread(target=loop, args=args, daemon=True)
            for args in zip(clients, streams, outputs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + CALL_TIMEOUT_S + 5)
            if thread.is_alive():
                raise RuntimeError("a client thread did not finish")
        end_ns = time.monotonic_ns()
        samples = [sample for out in outputs for sample in out]
        self.record(samples)
        return Phase(samples, start_ns, end_ns)

    def stats(self, client: ServeClient) -> dict:
        self.attempted += 1
        return client.call({"op": "STATS", "trace_limit": 0}, retry=False)["stats"]

    # -- the pass ---------------------------------------------------------

    def run(self, seconds: float) -> dict:
        """Measure; returns the metrics as ``name -> (value, unit, n)``."""
        self.probe = SpeedProbe(self.server_cpu)
        try:
            return self._run(seconds)
        finally:
            self.probe.close()

    def _run(self, seconds: float) -> dict:
        if not self.traced:
            self.spawn().stop()  # untimed: warms the file cache
        setup_start = time.monotonic()
        setup = []
        for _ in range(0 if self.traced else SETUP_SPAWNS - 1):
            server = self.spawn()
            setup.append(server.setup_s)
            server.stop()
        server = self.spawn()
        setup.append(server.setup_s)
        setup_slowdown = self.probe.over(setup_start, time.monotonic())
        clients = [server.client] + [server.connect() for _ in range(CONNECTIONS - 1)]
        try:
            streams = self.workload.make_streams()
            self.record([self.call(clients[0], message) for message in self.workload.prime])
            self.phase(clients, streams, WARMUP_S)
            before = self.stats(clients[0])
            window = self.phase(clients, streams, seconds)
            after = self.stats(clients[0])
            rss = server.peak_rss_mb()
            if self.traced:
                (self.workdir / "window.json").write_text(
                    json.dumps({"start_ns": window.start_ns, "end_ns": window.end_ns})
                )
            if self.workload.durable:
                self.check_durable_state(server, after, writer=streams[0])
        except BaseException:
            server.kill()
            raise
        finally:
            for client in clients[1:]:
                client.close()
        if server.proc.returncode is None and server.stop() != 0:
            self.problems.append(f"server exited with code {server.proc.returncode}")
        metrics = self.window_metrics(window, before, after, seconds)
        if self.traced:
            metrics.update(self.layer_metrics(window))
        else:
            metrics["setup_s"] = (statistics.median(setup) / setup_slowdown, "s", len(setup))
            metrics["server_rss_mb"] = (rss, "MB", 1)
        return metrics

    def check_durable_state(self, server: Server, stats: dict, writer) -> None:
        """The store's state hash must equal the replayed writer ops,
        before and (untraced) after a SIGKILL and restart."""
        want = writer.state_sha256()
        hashes = {"after the window": self._state_sha(stats)}
        if not self.traced:
            server.kill()
            restarted = self.spawn(self.data_dir)
            try:
                hashes["after SIGKILL and restart"] = self._state_sha(self.stats(restarted.client))
            finally:
                if restarted.stop() != 0:
                    self.problems.append("restarted server did not exit cleanly")
        for when, sha in hashes.items():
            if sha != want:
                self.failures[f"state_sha256 {when} differs from the replayed writes"] += 1

    @staticmethod
    def _state_sha(stats: dict) -> str:
        (section,) = stats["databases"].values()
        return section["store"]["state_sha256"]

    # -- metrics ----------------------------------------------------------

    def window_metrics(self, window: Phase, before: dict, after: dict, seconds: float) -> dict:
        samples = window.samples
        slowdown = self.probe.per_slice(*window.interval)
        good = [s for s in samples if s.error is None]
        by_op = {op: [s for s in good if s.op == op] for op in ("QUERY", "UPDATE", "STATS")}
        queries, updates = by_op["QUERY"], by_op["UPDATE"]

        def ms(chosen: list, quantile: float) -> tuple:
            """The *quantile* round trip of *chosen* (nearest rank)."""
            if not chosen:
                return (0.0, "ms", 0)
            ordered = sorted(s.rtt_s * 1e3 / slowdown(s.end) for s in chosen)
            return (ordered[math.ceil(quantile * len(ordered)) - 1], "ms", len(ordered))

        metrics = {
            # A slice that ran k times slower than the reference did its
            # work in 1/k of the reference time: each reply counts k.
            "throughput_rps": (
                sum(slowdown(s.end) for s in good) / window.seconds, "req/s", len(good)
            ),
            "query_p50_ms": ms(queries, 0.50),
            "query_p99_ms": ms(queries, 0.99),
            "error_rate": (_ratio(len(samples) - len(good), len(samples)), "ratio", len(samples)),
            "machine.slowdown": (self.probe.over(*window.interval), "x", len(samples)),
        }
        if self.workload.durable:
            metrics["update_p50_ms"] = ms(updates, 0.50)
            metrics["update_p99_ms"] = ms(updates, 0.99)
            metrics["stats_p50_ms"] = ms(by_op["STATS"], 0.50)

        # Layers seen from the reply: server-side queue wait and
        # execution, and the rest of the round trip (wire, JSON, handler).
        parts = [
            (s.queue_wait * 1e3, s.execution * 1e3, s.rtt_s * 1e3, slowdown(s.end))
            for s in queries
        ]
        for name, values in (
            ("serve.service.queue_wait_ms", [wait / k for wait, _, _, k in parts]),
            ("serve.service.execution_ms", [run / k for _, run, _, k in parts]),
            ("serve.wire_residual_ms", [(rtt - wait - run) / k for wait, run, rtt, k in parts]),
        ):
            metrics[name] = (_median(values), "ms", len(values))

        # Layers seen from STATS: counter deltas over the window.
        def delta(suffix: str) -> int:
            return sum(
                value - before["metrics"].get(key, 0)
                for key, value in after["metrics"].items()
                if key == suffix or (key.startswith("db.") and key.endswith("." + suffix))
            )

        for layer, counters in (
            ("query.memo", "memo"),
            ("query.plans", "plans"),
            ("deductive.kernels", "deductive.kernels"),
        ):
            hits, misses = delta(f"{counters}.hits"), delta(f"{counters}.misses")
            metrics[f"{layer}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio", hits + misses)
        n_queries = sum(1 for s in samples if s.op == "QUERY")
        for counter in ("rounds", "probes", "rows_in", "index_builds"):
            metrics[f"engine.ops.{counter}_per_query"] = (
                _ratio(delta(f"engine.ops.{counter}"), n_queries), "count", n_queries
            )
        n_updates = sum(1 for s in samples if s.op == "UPDATE")
        metrics["store.wal.bytes_per_update"] = (
            _ratio(delta("store.wal.bytes"), n_updates), "B", n_updates
        )
        metrics["store.snapshots_per_1k_updates"] = (
            1000 * _ratio(delta("store.snapshots"), n_updates), "count", n_updates
        )
        metrics["store.invalidations_per_update"] = (
            _ratio(delta("store.invalidations"), n_updates), "count", n_updates
        )

        self.check_premises(metrics, samples, seconds)
        return metrics

    def check_premises(self, metrics: dict, samples: list, seconds: float) -> None:
        low, high = self.workload.memo_hit_ratio
        ratio = metrics["query.memo.hit_ratio"][0]
        if not low <= ratio <= high:
            self.problems.append(f"memo hit ratio {ratio:.4f} outside [{low}, {high}]")
        if self.workload.must_hit:
            hits = [s.cached for s in samples if s.key in self.workload.must_hit]
            share = _ratio(sum(hits), len(hits))
            if share < MUST_HIT_SHARE:
                self.problems.append(
                    f"only {share:.4f} of {len(hits)} footprint-disjoint queries were memo hits"
                )
        if self.traced:
            return  # tracing slows the server; the rate premise is the untraced pass's
        needed = math.ceil(MIN_RATE_PER_S * seconds)
        for op in ("QUERY", "UPDATE") if self.workload.durable else ("QUERY",):
            count = sum(1 for s in samples if s.op == op)
            if count < needed:
                self.problems.append(f"{count} {op} samples in the window, fewer than {needed}")

    def layer_metrics(self, window: Phase) -> dict:
        """Mean self ms per request of each layer, from the launcher's
        ``trace.json`` (written when the traced server exits)."""
        layers = json.loads((self.workdir / "trace.json").read_text())
        requests = len(window.samples)
        slowdown = self.probe.over(*window.interval)
        metrics = {
            layer: (totals["self_ms"] / requests / slowdown, "ms", totals["calls"])
            for layer, totals in layers.items()
        }
        rtt_mean = statistics.fmean(s.rtt_s for s in window.samples) * 1e3 / slowdown
        attributed = sum(value for value, _, _ in metrics.values())
        metrics["trace.unattributed_ms"] = (rtt_mean - attributed, "ms", requests)
        return metrics


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pin_load_generator() -> int | None:
    """Pin this process to the second CPU and return the first, for the
    server; None (and no pinning) on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[1]})
    return cpus[0]


def run_workload(name: str, seed: int, seconds: float, trace: bool, server_cpu: int | None) -> dict:
    """One workload's untraced pass and, with *trace*, its traced pass."""
    workload = BUILDERS[name](seed)
    passes, metrics = [], {}
    for traced in (False, True) if trace else (False,):
        WORK.mkdir(exist_ok=True)
        workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            measured = Pass(workload, workdir, traced, server_cpu)
            passes.append(measured)
            result = measured.run(seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if not traced:
            metrics = result
            continue
        # Reply and STATS layers come from the untraced pass; only the
        # timed layers come from the traced one.
        for layer in (*LAYERS, "trace.unattributed_ms"):
            metrics[layer] = result[layer]
        untraced_rps, traced_rps = metrics["throughput_rps"][0], result["throughput_rps"][0]
        metrics["trace.overhead_pct"] = (
            100 * (untraced_rps - traced_rps) / untraced_rps, "%", result["throughput_rps"][2]
        )
    failures = Counter()
    for measured in passes:
        failures.update(measured.failures)
    problems = [f"{count} x {reason}" for reason, count in sorted(failures.items())]
    problems += [problem for measured in passes for problem in measured.problems]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "attempted": sum(measured.attempted for measured in passes),
        "failed": sum(failures.values()),
        "problems": problems,
        "metrics": {
            metric: {"value": value, "unit": unit, "samples": samples}
            for metric, (value, unit, samples) in sorted(metrics.items())
        },
    }


def append_run(path: pathlib.Path, reports: list) -> None:
    """Add *reports* to the ``runs`` list of the JSON file at *path*."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    path.write_text(json.dumps({"runs": runs + reports}, indent=1) + "\n")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(BUILDERS))
    parser.add_argument(
        "--seconds", "--duration", type=float, default=SPEC["run_seconds"],
        help="measured window per workload (default: %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also make the traced pass and report the per-layer metrics",
    )
    parser.add_argument("--out", type=pathlib.Path, help="append the results to this JSON file")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(BUILDERS)
    # Every server then starts from bytecode, whether or not this
    # environment lets the interpreter write it: set-up time and peak
    # memory do not depend on which modules happened to be compiled.
    compileall.compile_dir(SRC, quiet=1)
    server_cpu = pin_load_generator()
    reports = [
        run_workload(name, args.seed, args.seconds, bool(args.trace), server_cpu)
        for name in names
    ]
    try:
        WORK.rmdir()
    except OSError:
        pass
    for report in reports:
        for metric, entry in report["metrics"].items():
            print(
                f"{report['workload']:<14} {metric:<40} {entry['value']:>12.4f} "
                f"{entry['unit']:<6} n={entry['samples']}"
            )
        for problem in report["problems"]:
            print(f"{report['workload']}: FAILED {problem}", file=sys.stderr)
    if args.out:
        append_run(args.out, reports)

    chosen = SPEC["per_layer" if args.trace else "end_to_end"]
    summary = {}
    for report in reports:
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        for entry in chosen:
            measured = report["metrics"].get(entry["name"])
            if measured is None or measured["unit"] != entry["unit"]:
                sys.exit(f"BENCHMARK.json metric {entry['name']} ({entry['unit']}) not measured")
            summary[prefix + entry["name"]] = {"value": measured["value"], "unit": entry["unit"]}
    correct = all(report["correct"] for report in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": summary,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
