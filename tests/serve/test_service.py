"""QueryService: concurrency correctness, admission control, deadlines.

The acceptance harness for the serving layer: a 16-thread closed-loop
client run over the full 31-query differential bank must produce
byte-identical results to serial execution, with shared-cache hits
across threads, accurate metrics, and typed rejection/timeout errors —
no deadlock, no crash.
"""

import threading
import time

import pytest

from repro.budget import Budget
from repro.errors import UNDEFINED, is_undefined
from repro.query.planner import ExecutionReport
from repro.query.session import Session
from repro.serve.service import (
    AdmissionRejected,
    QueryFailed,
    QueryService,
    RequestTimeout,
    ServeError,
    ServiceClosed,
    UnknownDatabase,
)
from repro.workloads import SERVE_QUERY_BANK, request_stream, serve_databases

from tests.query.test_differential import BANK, DATABASES


class _BlockingSession:
    """A session stand-in whose run() blocks until released."""

    def __init__(self):
        self.release = threading.Event()
        self.calls = 0

    def run(self, text, backend=None, budget=None, database=None):
        self.calls += 1
        if not self.release.wait(timeout=30):
            raise RuntimeError("blocking session never released")
        return UNDEFINED, ExecutionReport("fake", UNDEFINED, spent={}, cached=False)


class _BurningSession:
    """A session stand-in that charges the budget until it is stopped."""

    def run(self, text, backend=None, budget=None, database=None):
        while True:
            budget.charge("steps")


def _blocked_service(workers=1, max_queue_depth=4, **kwargs):
    service = QueryService(
        serve_databases(),
        workers=workers,
        max_queue_depth=max_queue_depth,
        **kwargs,
    )
    blocker = _BlockingSession()
    service._sessions["block"] = blocker
    return service, blocker


class TestBasics:
    def test_query_matches_direct_session(self):
        service = QueryService(serve_databases(), workers=2)
        try:
            for db_key, text in SERVE_QUERY_BANK:
                outcome = service.query(db_key, text)
                assert outcome.status == "ok"
                direct, _ = Session(serve_databases()[db_key]).run(text)
                assert repr(outcome.result) == repr(direct)
        finally:
            service.close()

    def test_unknown_database_is_typed_and_immediate(self):
        service = QueryService(serve_databases(), workers=1)
        try:
            with pytest.raises(UnknownDatabase):
                service.submit("nope", "{ 1 }")
        finally:
            service.close()

    def test_evaluator_failure_surfaces_as_query_failed(self):
        service = QueryService(serve_databases(), workers=1)
        try:
            outcome = service.query("main", "{ x | Zzz(x) }")
            assert outcome.status == "error"
            with pytest.raises(QueryFailed):
                outcome.raise_for_status()
        finally:
            service.close()

    def test_load_and_replace(self):
        service = QueryService(workers=1)
        try:
            database = serve_databases()["atoms"]
            service.load("d", database)
            assert service.databases() == ("d",)
            with pytest.raises(ServeError):
                service.load("d", database)
            service.load("d", database, replace=True)
            outcome = service.query("d", "{ x | R(x) }")
            assert outcome.status == "ok"
        finally:
            service.close()

    def test_budget_exhaustion_is_undefined_not_error(self):
        # ? is the bounded semantics' answer, not a service failure:
        # a starved real query comes back ok/UNDEFINED ...
        service = QueryService(
            serve_databases(), workers=1, budget=Budget(steps=2),
            default_timeout=None,
        )
        try:
            outcome = service.query(
                "main", "{ [x, z] | some y / U : R([x, y]) and R([y, z]) }"
            )
            assert outcome.status == "ok"
            assert is_undefined(outcome.result)
            assert service.metrics.counter("serve.queries.failed").value == 0
        finally:
            service.close()

    def test_budget_exceeded_escaping_an_evaluator_is_still_ok(self):
        # ... and a BudgetExceeded that escapes an evaluator (the
        # calculus backend lets it propagate) is absorbed by the
        # service as ok/UNDEFINED with the resource recorded.
        from repro.errors import BudgetExceeded

        service = QueryService(workers=1, default_timeout=None)

        class _Starved:
            def run(self, text, backend=None, budget=None, database=None):
                raise BudgetExceeded("steps", 5)

        service._sessions["starved"] = _Starved()
        try:
            outcome = service.query("starved", "x")
            assert outcome.status == "ok"
            assert is_undefined(outcome.result)
            assert outcome.trace.cause == "budget:steps"
            assert service.metrics.counter("serve.queries.failed").value == 0
        finally:
            service.close()


class TestAdmissionControl:
    def test_over_capacity_burst_rejected_retryable(self):
        service, blocker = _blocked_service(workers=2, max_queue_depth=3)
        try:
            # Occupy both workers, then fill the queue to its cap.
            occupiers = [service.submit("block", "x") for _ in range(2)]
            time.sleep(0.05)  # let the workers dequeue the occupiers
            queued = [service.submit("block", "x") for _ in range(3)]
            with pytest.raises(AdmissionRejected) as exc_info:
                service.submit("block", "x")
            assert exc_info.value.retryable
            assert exc_info.value.code == "rejected"
            assert service.metrics.counter("serve.queries.rejected").value == 1
            # Release: everything admitted still completes — no deadlock.
            blocker.release.set()
            for pending in occupiers + queued:
                assert pending.wait(timeout=30) is not None
        finally:
            blocker.release.set()
            service.close()

    def test_priority_classes_fifo_within_class(self):
        service, blocker = _blocked_service(workers=1, max_queue_depth=16)
        try:
            occupier = service.submit("block", "x")
            time.sleep(0.05)
            # Enqueue batch first, then interactive: interactive starts first.
            batch = [
                service.submit("main", "{ x | S(x) }", priority=1)
                for _ in range(2)
            ]
            interactive = [
                service.submit("main", "{ x | S(x) }", priority=0)
                for _ in range(2)
            ]
            blocker.release.set()
            outcomes_batch = [p.wait(timeout=30) for p in batch]
            outcomes_interactive = [p.wait(timeout=30) for p in interactive]
            occupier.wait(timeout=30)
            latest_interactive = max(
                o.trace.started_at for o in outcomes_interactive
            )
            earliest_batch = min(o.trace.started_at for o in outcomes_batch)
            assert latest_interactive <= earliest_batch
            # FIFO within each class: request ids start in order.
            for outcomes in (outcomes_interactive, outcomes_batch):
                starts = [o.trace.started_at for o in outcomes]
                ids = [o.trace.request_id for o in outcomes]
                assert starts == sorted(starts)
                assert ids == sorted(ids)
        finally:
            blocker.release.set()
            service.close()

    def test_close_rejects_new_and_completes_queued(self):
        service, blocker = _blocked_service(workers=1, max_queue_depth=8)
        occupier = service.submit("block", "x")
        time.sleep(0.05)
        queued = service.submit("main", "{ x | S(x) }")
        closer = threading.Thread(target=service.close)
        closer.start()
        time.sleep(0.05)
        with pytest.raises(ServiceClosed):
            service.submit("main", "{ 1 }")
        blocker.release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert occupier.wait(timeout=5).status == "ok"
        assert queued.wait(timeout=5).status == "ok"

    def test_close_without_drain_marks_queued_closed(self):
        service, blocker = _blocked_service(workers=1, max_queue_depth=8)
        occupier = service.submit("block", "x")
        time.sleep(0.05)
        queued = service.submit("main", "{ x | S(x) }")
        blocker.release.set()
        service.close(drain=False)
        assert occupier.wait(timeout=5) is not None
        outcome = queued.wait(timeout=5)
        if outcome.status == "closed":
            with pytest.raises(ServiceClosed):
                outcome.raise_for_status()


class TestDeadlines:
    def test_queue_expired_request_times_out_without_running(self):
        service, blocker = _blocked_service(workers=1)
        try:
            occupier = service.submit("block", "x")
            time.sleep(0.05)
            doomed = service.submit("main", "{ x | S(x) }", timeout=0.01)
            time.sleep(0.1)
            blocker.release.set()
            outcome = doomed.wait(timeout=30)
            assert outcome.status == "timeout"
            assert outcome.trace.cause == "queue"
            with pytest.raises(RequestTimeout):
                outcome.raise_for_status()
            occupier.wait(timeout=30)
            assert service.metrics.counter("serve.queries.timed_out").value == 1
        finally:
            blocker.release.set()
            service.close()

    def test_execution_deadline_stops_a_burning_query(self):
        service = QueryService(
            serve_databases(),
            workers=1,
            budget=Budget.unlimited(),
        )
        service._sessions["burn"] = _BurningSession()
        try:
            started = time.monotonic()
            outcome = service.query("burn", "x", timeout=0.1)
            elapsed = time.monotonic() - started
            assert outcome.status == "timeout"
            assert outcome.trace.cause == "execution"
            assert elapsed < 10
            assert is_undefined(outcome.result)
        finally:
            service.close()

    def test_deadline_budget_reaches_nested_evaluators(self):
        # The budget the service hands a request must propagate its
        # deadline through child() splits (Session.run makes one).
        service = QueryService(
            serve_databases(), workers=1, budget=Budget.unlimited()
        )

        class _ChildBurner:
            def run(self, text, backend=None, budget=None, database=None):
                child = budget.child()
                while True:
                    child.charge("steps")

        service._sessions["nested"] = _ChildBurner()
        try:
            outcome = service.query("nested", "x", timeout=0.1)
            assert outcome.status == "timeout"
        finally:
            service.close()


class TestClosedLoopConcurrency:
    THREADS = 16

    def _serial_expected(self):
        expected = {}
        for db_key, text in BANK:
            result, _ = Session(DATABASES[db_key]).run(text)
            expected[(db_key, text)] = repr(result)
        return expected

    def test_16_threads_byte_identical_to_serial(self):
        expected = self._serial_expected()
        service = QueryService(
            DATABASES,
            workers=8,
            max_queue_depth=len(BANK) * self.THREADS + 8,
            default_timeout=None,
        )
        failures: list = []
        lock = threading.Lock()

        def closed_loop(thread_index: int):
            # Each thread walks the whole bank in a seeded order: a
            # closed loop (next request only after the previous reply).
            import random

            order = list(BANK)
            random.Random(thread_index).shuffle(order)
            for db_key, text in order:
                outcome = service.query(db_key, text)
                got = repr(outcome.result) if outcome.status == "ok" else outcome.status
                if got != expected[(db_key, text)]:
                    with lock:
                        failures.append((db_key, text, got))

        try:
            threads = [
                threading.Thread(target=closed_loop, args=(index,))
                for index in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=600)
            assert not any(thread.is_alive() for thread in threads), "deadlock"
            assert not failures, failures[:5]

            total = self.THREADS * len(BANK)
            metrics = service.metrics
            assert metrics.counter("serve.queries.accepted").value == total
            assert metrics.counter("serve.queries.started").value == total
            assert metrics.counter("serve.queries.completed").value == total
            assert metrics.counter("serve.queries.timed_out").value == 0
            assert metrics.counter("serve.queries.failed").value == 0
            assert metrics.counter("serve.queries.rejected").value == 0
            assert metrics.histogram("serve.execution_seconds").count == total

            # The shared caches did real cross-thread work.
            stats = service.stats()
            metrics = stats["metrics"]
            memo_hits = sum(metrics[f"db.{name}.memo.hits"] for name in stats["databases"])
            plan_hits = sum(metrics[f"db.{name}.plans.hits"] for name in stats["databases"])
            assert memo_hits > 0
            assert plan_hits > 0
            assert metrics["engine.intern.hits"] > 0
        finally:
            service.close()

    def test_request_stream_mix_accounting(self):
        stream = request_stream(120, seed=3)
        assert stream == request_stream(120, seed=3)  # deterministic
        service = QueryService(
            serve_databases(),
            workers=4,
            max_queue_depth=256,
            default_timeout=None,
        )
        try:
            outcomes: list = []
            lock = threading.Lock()

            def drive(chunk):
                for request in chunk:
                    outcome = service.query(
                        request.db, request.text, priority=request.priority
                    )
                    with lock:
                        outcomes.append(outcome)

            chunks = [stream[index::8] for index in range(8)]
            threads = [
                threading.Thread(target=drive, args=(chunk,)) for chunk in chunks
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=600)
            assert len(outcomes) == len(stream)
            assert all(outcome.status == "ok" for outcome in outcomes)
            started = service.metrics.counter("serve.queries.started").value
            completed = service.metrics.counter("serve.queries.completed").value
            timed_out = service.metrics.counter("serve.queries.timed_out").value
            failed = service.metrics.counter("serve.queries.failed").value
            assert started == len(stream)
            assert started == completed + timed_out + failed
        finally:
            service.close()


class TestStats:
    def test_stats_shape(self):
        service = QueryService(serve_databases(), workers=1)
        try:
            service.query("main", "{ x | S(x) }")
            service.query("main", "{ x | S(x) }")
            stats = service.stats()
            assert stats["service"]["accepting"]
            assert stats["service"]["workers"] == 1
            assert stats["metrics"]["serve.queries.completed"] == 2
            assert stats["metrics"]["db.main.memo.hits"] >= 1
            assert stats["metrics"]["db.main.plans.hits"] >= 1
            assert {key for key in stats["metrics"] if key.startswith("engine.intern.")} == {
                f"engine.intern.{name}"
                for name in ("hits", "misses", "skips", "size", "hit_rate")
            }
            assert stats["metrics"]["engine.intern.hits"] > 0
            traces = stats["traces"]
            assert len(traces) == 2
            assert traces[-1]["cached"] is True
            assert traces[0]["physical"] and "Scan(" in traces[0]["physical"]
            import json

            json.dumps(stats)
        finally:
            service.close()
