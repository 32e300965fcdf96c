"""Wall-clock deadline budgets, and the runner timeout off main thread.

SIGALRM only arms on the main thread; before this mechanism existed,
``run_suite(..., use_processes=False)`` called from a worker thread
silently ran with *no* timeout at all.  The regression test at the
bottom pins the fix: a burning task in a non-main thread must still
time out, via :class:`~repro.engine.deadline.DeadlineBudget`.
"""

import threading
import time

import pytest

from repro.budget import Budget
from repro.engine.deadline import DeadlineBudget, DeadlineExceeded, with_deadline
from repro.engine.runner import RunTask, run_suite
from repro.errors import BudgetExceeded, is_undefined


def _far_future():
    return time.monotonic() + 3600.0


class TestDeadlineBudget:
    def test_charge_raises_once_deadline_passes(self):
        budget = DeadlineBudget(time.monotonic() - 0.001, 0.001)
        assert budget.expired()
        with pytest.raises(DeadlineExceeded) as exc_info:
            budget.charge("steps")
        assert exc_info.value.seconds == 0.001

    def test_charge_passes_before_deadline(self):
        budget = DeadlineBudget(_far_future(), 3600.0, steps=10)
        budget.charge("steps", 5)
        assert budget.remaining("steps") == 5
        assert not budget.expired()
        assert budget.remaining_seconds() > 3000

    def test_resource_limits_still_enforced(self):
        budget = DeadlineBudget(_far_future(), 3600.0, steps=3)
        budget.charge("steps", 3)
        with pytest.raises(BudgetExceeded):
            budget.charge("steps")

    def test_not_a_budget_exceeded(self):
        # Evaluators catch BudgetExceeded and return ?; a deadline must
        # NOT be swallowed that way — it is an operational abort.
        assert not issubclass(DeadlineExceeded, BudgetExceeded)

    def test_child_carries_the_same_absolute_deadline(self):
        deadline = _far_future()
        parent = DeadlineBudget(deadline, 3600.0, steps=100)
        child = parent.child(steps=10)
        assert isinstance(child, DeadlineBudget)
        assert child.deadline == deadline
        grandchild = child.child()
        assert grandchild.deadline == deadline

    def test_expired_parent_means_expired_children(self):
        parent = DeadlineBudget(time.monotonic() - 0.001, 5.0)
        child = parent.child()
        with pytest.raises(DeadlineExceeded):
            child.charge("steps")


class TestWithDeadline:
    def test_wraps_remaining_allowances(self):
        base = Budget(steps=100)
        base.charge("steps", 40)
        bounded = with_deadline(base, 60.0)
        assert isinstance(bounded, DeadlineBudget)
        assert bounded.remaining("steps") == 60
        assert base.remaining("steps") == 60  # input not mutated

    @pytest.mark.parametrize("seconds", [None, 0, -1.0])
    def test_passthrough_without_seconds(self, seconds):
        base = Budget(steps=100)
        assert with_deadline(base, seconds) is base

    def test_none_budget_defaults(self):
        bounded = with_deadline(None, 1.0)
        assert isinstance(bounded, DeadlineBudget)
        assert with_deadline(None, None) is not None


def _burner(budget=None):
    while True:
        budget.charge("steps")


class TestRunnerOffMainThread:
    """The satellite-2 regression: timeouts must work in worker threads."""

    def _run_in_thread(self, fn):
        box = {}

        def target():
            try:
                box["value"] = fn()
            except BaseException as exc:  # pragma: no cover — surfaced below
                box["error"] = exc

        thread = threading.Thread(target=target)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "runner deadlocked off main thread"
        if "error" in box:
            raise box["error"]
        return box["value"]

    def test_burning_task_times_out_in_a_worker_thread(self):
        def invoke():
            return run_suite(
                [RunTask("burn", _burner, budget=Budget.unlimited())],
                timeout=0.1,
                use_processes=False,
            )

        started = time.monotonic()
        report = self._run_in_thread(invoke)
        elapsed = time.monotonic() - started
        [task] = report.tasks
        assert task.timed_out
        assert task.cause == "timeout"
        assert is_undefined(task.result)
        assert elapsed < 30

    def test_completing_task_is_untouched_off_main_thread(self):
        def quick(budget=None):
            budget.charge("steps")
            return 42

        def invoke():
            return run_suite(
                [RunTask("quick", quick)],
                timeout=30.0,
                use_processes=False,
            )

        report = self._run_in_thread(invoke)
        [task] = report.tasks
        assert task.result == 42
        assert not task.timed_out

    def test_main_thread_serial_path_still_times_out(self):
        # On the main thread SIGALRM arms as before; either mechanism
        # may fire, but the report must say timeout either way.
        report = run_suite(
            [RunTask("burn", _burner, budget=Budget.unlimited())],
            timeout=0.1,
            use_processes=False,
        )
        [task] = report.tasks
        assert task.timed_out
        assert task.cause == "timeout"
