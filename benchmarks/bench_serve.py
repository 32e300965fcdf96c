"""Serving layer — closed-loop concurrency, cache effect, admission.

Three measurements of :class:`repro.serve.QueryService`, each doubling
as a correctness assertion from the serving acceptance criteria:

* a **16-thread closed loop** over the request-stream generator is
  byte-identical to serial execution of the same stream and sustains
  real throughput with shared-cache hits across threads;
* the **shared memo/plan caches** make a warm pass over the query bank
  measurably faster than cold one-session-per-query execution (this is
  the recorded ``speedup`` the regression gate tracks — cache lookups
  versus evaluation, a stable contrast);
* an **over-capacity burst** against a saturated service is shed with
  retryable rejections, quickly, and without losing admitted work.
"""

import threading
import time

from repro.query.session import Session
from repro.serve.service import AdmissionRejected, QueryService
from repro.workloads import request_stream, serve_databases

THREADS = 16
STREAM = request_stream(96, seed=11)


def _best_of(fn, repeats: int = 3) -> float:
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    return best


def _serial_results(stream) -> dict:
    """Cold serial baseline: a fresh Session per request, no caches."""
    results = {}
    for request in stream:
        result, _ = Session(serve_databases()[request.db]).run(request.text)
        results[(request.db, request.text)] = repr(result)
    return results


def _closed_loop(service, stream, threads) -> dict:
    """Drive *stream* through *service* from *threads* closed loops."""
    results: dict = {}
    lock = threading.Lock()

    def drive(chunk):
        for request in chunk:
            outcome = service.query(
                request.db, request.text, priority=request.priority
            )
            with lock:
                results[(request.db, request.text)] = repr(outcome.result)

    pool = [
        threading.Thread(target=drive, args=(stream[index::threads],))
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return results


def test_closed_loop_16_threads_matches_serial(benchmark, engine_record):
    expected = _serial_results(STREAM)
    service = QueryService(
        serve_databases(),
        workers=8,
        max_queue_depth=len(STREAM) + 8,
        default_timeout=None,
    )
    try:
        warm = benchmark(lambda: _closed_loop(service, STREAM, THREADS))
        assert warm == expected  # byte-identical: repr is canonical

        elapsed = _best_of(lambda: _closed_loop(service, STREAM, THREADS))
        stats = service.stats()
        memo_hits = sum(stats["metrics"][f"db.{name}.memo.hits"] for name in stats["databases"])
        plan_hits = sum(stats["metrics"][f"db.{name}.plans.hits"] for name in stats["databases"])
        assert memo_hits > 0 and plan_hits > 0
        metrics = service.metrics
        assert (
            metrics.counter("serve.queries.started").value
            == metrics.counter("serve.queries.completed").value
        )
        engine_record(
            "serve_closed_loop_16_threads",
            workload=f"{len(STREAM)}-request stream, {THREADS} closed-loop "
            f"clients, 8 workers",
            throughput_rps=round(len(STREAM) / elapsed, 1),
            seconds=round(elapsed, 4),
            memo_hits=memo_hits,
            plan_hits=plan_hits,
            byte_identical=True,
        )
    finally:
        service.close()


def test_warm_service_beats_cold_sessions(benchmark, engine_record):
    service = QueryService(serve_databases(), workers=4, default_timeout=None)
    try:
        # Prime every (db, query) pair once, then measure the warm pass
        # (memo + plan hits) against cold one-session-per-query runs.
        for request in STREAM:
            service.query(request.db, request.text)

        def warm_pass():
            for request in STREAM:
                service.query(request.db, request.text)

        benchmark(warm_pass)
        warm = _best_of(warm_pass)
        cold = _best_of(lambda: _serial_results(STREAM))
        engine_record(
            "serve_warm_cache_vs_cold",
            workload=f"{len(STREAM)}-request stream, shared caches vs "
            "fresh session per query",
            warm_seconds=round(warm, 4),
            cold_seconds=round(cold, 4),
            speedup=round(cold / warm, 2),
        )
        assert warm < cold  # the shared caches pay for themselves
    finally:
        service.close()


def test_admission_burst_sheds_load(benchmark, engine_record):
    release = threading.Event()

    class _Stuck:
        def run(self, text, backend=None, budget=None, database=None):
            release.wait(timeout=30)
            from repro.errors import UNDEFINED
            from repro.query.planner import ExecutionReport

            return UNDEFINED, ExecutionReport("stuck", UNDEFINED, spent={})

    def burst():
        service = QueryService(workers=2, max_queue_depth=8)
        service._sessions["stuck"] = _Stuck()
        admitted, rejected = [], 0
        started = time.perf_counter()
        for _ in range(64):
            try:
                admitted.append(service.submit("stuck", "x"))
            except AdmissionRejected as exc:
                assert exc.retryable
                rejected += 1
        shed_seconds = time.perf_counter() - started
        release.set()
        for pending in admitted:
            assert pending.wait(timeout=30) is not None  # nothing lost
        service.close()
        release.clear()
        return len(admitted), rejected, shed_seconds

    admitted_count, rejected_count, shed_seconds = benchmark(burst)
    assert rejected_count > 0
    assert admitted_count + rejected_count == 64
    # Shedding is fast: rejections never wait on the stuck workers.
    assert shed_seconds < 5.0
    engine_record(
        "serve_admission_burst",
        workload="64-request burst at 2 workers / depth-8 queue",
        admitted=admitted_count,
        rejected=rejected_count,
        shed_seconds=round(shed_seconds, 4),
        retryable=True,
    )
