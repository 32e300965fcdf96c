"""A parallel run harness for experiment suites.

Every experiment in this repository is a call ``fn(*args, budget=...)``
that either returns a value or observes divergence as ``?``.  The
runner executes a batch of such calls across worker processes, giving
each task

* its own **sub-budget** (:meth:`repro.budget.Budget.child` of the
  suite budget, so parallel tasks never share a mutable counter),
* a **wall-clock timeout** enforced *inside* the worker with
  ``SIGALRM`` — a task that exceeds it yields ``?``, exactly like a
  budget exhaustion (both are observations of "this computation does
  not finish"), and
* the task's share of the value **interner**'s counters
  (:mod:`repro.model.intern`), which comes back with the result.

The outcome is a :class:`RunReport`: per-task results, timings, budget
spend, interner stats, plus suite-level cache statistics when a
:class:`~repro.engine.cache.MemoCache` is attached.  Reports serialise
with :meth:`RunReport.to_json` for the benchmark harness.

Process pools need picklable tasks; when a task refuses to pickle (a
closure, a ``__main__``-defined function under ``runpy``) or the pool
cannot start at all, the runner degrades to in-process serial execution
with identical semantics — ``parallel=False`` in the report says which
path ran.
"""

from __future__ import annotations

import json
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..budget import Budget
from ..errors import BudgetExceeded, UNDEFINED, is_undefined
from ..model.intern import INTERNER
from .cache import MemoCache
from .deadline import DeadlineExceeded, with_deadline

#: Default per-task wall-clock timeout (seconds).  Deliberately long —
#: budgets are the primary divergence observer; the timeout is the
#: backstop for tasks that burn wall-clock without charging.
DEFAULT_TIMEOUT = 300.0


@dataclass(frozen=True)
class RunTask:
    """One unit of work: ``fn(*args, **kwargs, budget=<sub-budget>)``.

    *fn* must be picklable (a module-level callable) for process-based
    execution; anything else still runs on the serial fallback.  Set
    ``budget`` to override the sub-budget the runner would otherwise
    derive from the suite budget, and ``timeout`` to override the
    suite-level timeout for this task.
    """

    name: str
    fn: Callable
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    budget: Budget | None = None
    timeout: float | None = None


@dataclass
class TaskReport:
    """The outcome of one task.

    ``cause`` says *why* a task's result is ``?`` when it is:
    ``"budget:<resource>"`` (the named counter ran out),
    ``"timeout"`` (wall clock), ``"error"`` (an exception, detailed in
    ``error``), or ``None`` — the task completed and its result, even
    if ``?``, is the computation's actual value.
    """

    name: str
    result: object
    elapsed: float
    spent: dict
    error: str | None = None
    timed_out: bool = False
    cause: str | None = None
    interner: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "result": repr(self.result),
            "undefined": is_undefined(self.result),
            "elapsed": round(self.elapsed, 6),
            "spent": self.spent,
            "error": self.error,
            "timed_out": self.timed_out,
            "cause": self.cause,
            "interner": self.interner,
        }


@dataclass
class RunReport:
    """The outcome of a whole suite."""

    tasks: list
    wall_time: float
    workers: int
    parallel: bool
    cache: dict = field(default_factory=dict)
    interner: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> TaskReport:
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(name)

    def results(self) -> dict:
        return {task.name: task.result for task in self.tasks}

    def spend(self) -> dict:
        """Aggregate budget spend across all tasks (resource -> units)."""
        total: dict = {}
        for task in self.tasks:
            for resource, units in task.spent.items():
                total[resource] = total.get(resource, 0) + units
        return total

    def summary(self) -> str:
        undefined = sum(1 for t in self.tasks if is_undefined(t.result))
        lines = [
            f"{len(self.tasks)} tasks in {self.wall_time:.2f}s "
            f"({'parallel' if self.parallel else 'serial'}, "
            f"{self.workers} worker{'s' if self.workers != 1 else ''}); "
            f"{undefined} undefined"
        ]
        spend = self.spend()
        if spend:
            lines.append(
                "spend: " + ", ".join(f"{k}={v}" for k, v in sorted(spend.items()))
            )
        if self.cache:
            lines.append(
                "cache: " + ", ".join(f"{k}={v}" for k, v in sorted(self.cache.items()))
            )
        if self.interner:
            lines.append(
                "intern: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.interner.items()))
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "wall_time": round(self.wall_time, 6),
                "workers": self.workers,
                "parallel": self.parallel,
                "cache": self.cache,
                "interner": self.interner,
                "spend": self.spend(),
                "tasks": [task.as_dict() for task in self.tasks],
            },
            indent=2,
            sort_keys=True,
        )


class _Timeout(Exception):
    pass


def _picklable(plans: list) -> bool:
    """Can every task round-trip to a worker process?

    Tasks built from closures or ``__main__``-defined functions (e.g.
    examples executed via ``runpy``) cannot; the suite then runs on the
    serial path rather than failing mid-pool.
    """
    import pickle

    try:
        for task, task_budget, _ in plans:
            pickle.dumps((task, task_budget))
        return True
    except Exception:
        return False


def _alarm_handler(signum, frame):
    raise _Timeout()


def _execute_task(task: RunTask, budget: Budget, timeout: float) -> TaskReport:
    """Run one task, in whatever process this is.

    Module-level so process pools can pickle it.  The SIGALRM timeout
    only arms on platforms/threads that support it (the main thread of
    a worker process does); elsewhere — the serial fallback invoked
    from a non-main thread, or platforms without ``SIGALRM`` — the
    timeout routes to a cooperative :class:`~.deadline.DeadlineBudget`
    instead of silently doing nothing: the task's budget checks the
    wall clock on every charge and raises
    :class:`~.deadline.DeadlineExceeded`, reported as ``cause
    "timeout"`` exactly like an alarm.
    """
    before = INTERNER.stats()
    armed = False
    if timeout and timeout > 0 and hasattr(signal, "SIGALRM"):
        try:
            signal.signal(signal.SIGALRM, _alarm_handler)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            armed = True
        except ValueError:
            armed = False  # not the main thread (serial fallback in a thread)
    if not armed and timeout and timeout > 0:
        budget = with_deadline(budget, timeout)
    started = time.perf_counter()
    error = None
    timed_out = False
    cause = None
    try:
        result = task.fn(*task.args, **task.kwargs, budget=budget)
    except BudgetExceeded as exc:
        result = UNDEFINED
        cause = f"budget:{exc.resource}"
    except _Timeout:
        result = UNDEFINED
        timed_out = True
        cause = "timeout"
    except DeadlineExceeded:
        result = UNDEFINED
        timed_out = True
        cause = "timeout"
    except Exception as exc:  # noqa: BLE001 — reported, not swallowed
        result = UNDEFINED
        error = f"{type(exc).__name__}: {exc}"
        cause = "error"
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
    elapsed = time.perf_counter() - started
    after = INTERNER.stats()
    return TaskReport(
        name=task.name,
        result=result,
        elapsed=elapsed,
        spent=budget.spent_all(),
        error=error,
        timed_out=timed_out,
        cause=cause,
        interner={
            "hits": after.hits - before.hits,
            "misses": after.misses - before.misses,
            "size": after.size,
        },
    )


def run_suite(
    tasks: Iterable[RunTask] | Sequence[RunTask],
    workers: int | None = None,
    budget: Budget | None = None,
    timeout: float | None = DEFAULT_TIMEOUT,
    use_processes: bool = True,
    cache: MemoCache | None = None,
) -> RunReport:
    """Run *tasks*, in parallel when possible, and report.

    *budget* is the suite budget: each task without its own budget gets
    ``budget.child()``.  *timeout* is seconds of wall clock per task
    (``None`` disables).  ``use_processes=False`` forces the serial
    in-process path (useful under profilers, or when tasks share
    in-process state such as a :class:`MemoCache` — the cache lives in
    the parent, so cached runs want the serial path to consult it).
    The report's ``interner`` sums the tasks' hits and misses; its
    ``size`` is the largest table a task finished with.
    """
    tasks = list(tasks)
    budget = budget or Budget()
    reports: list = [None] * len(tasks)
    plans = [
        (
            task,
            task.budget if task.budget is not None else budget.child(),
            task.timeout if task.timeout is not None else (timeout or 0.0),
        )
        for task in tasks
    ]
    started = time.perf_counter()
    parallel = False
    pool_workers = max(1, workers) if workers else None

    if use_processes and len(tasks) > 1 and _picklable(plans):
        try:
            with ProcessPoolExecutor(max_workers=pool_workers) as pool:
                futures = [
                    pool.submit(_execute_task, task, task_budget, task_timeout)
                    for task, task_budget, task_timeout in plans
                ]
                for index, (future, (task, _, task_timeout)) in enumerate(
                    zip(futures, plans)
                ):
                    # Parent-side backstop: in-worker SIGALRM should fire
                    # first; the margin covers pickling and scheduling.
                    backstop = (task_timeout + 30.0) if task_timeout else None
                    try:
                        reports[index] = future.result(timeout=backstop)
                    except Exception as exc:  # TimeoutError, BrokenProcessPool
                        hit_backstop = isinstance(exc, TimeoutError)
                        reports[index] = TaskReport(
                            name=task.name,
                            result=UNDEFINED,
                            elapsed=task_timeout or 0.0,
                            spent={},
                            error=f"{type(exc).__name__}: {exc}",
                            timed_out=hit_backstop,
                            cause="timeout" if hit_backstop else "error",
                        )
            parallel = True
        except OSError:
            # The pool itself could not start (sandboxes, resource
            # limits): run everything serially instead.
            reports = [None] * len(tasks)
            parallel = False

    if not parallel:
        for index, (task, task_budget, task_timeout) in enumerate(plans):
            reports[index] = _execute_task(task, task_budget, task_timeout)
    hits = sum(r.interner.get("hits", 0) for r in reports)
    misses = sum(r.interner.get("misses", 0) for r in reports)
    interner_summary = {
        "hits": hits,
        "misses": misses,
        "size": max((r.interner.get("size", 0) for r in reports), default=0),
        "hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
    }

    wall_time = time.perf_counter() - started
    actual_workers = pool_workers if (parallel and pool_workers) else (
        len(tasks) if parallel else 1
    )
    return RunReport(
        tasks=reports,
        wall_time=wall_time,
        workers=actual_workers,
        parallel=parallel,
        cache=cache.stats.as_dict() if cache is not None else {},
        interner=interner_summary,
    )
