"""run_suite: results, sub-budgets, timeouts, fallbacks, reporting."""

import itertools
import json
import time

from repro.budget import Budget
from repro.engine.cache import MemoCache
from repro.engine.runner import RunTask, run_suite
from repro.errors import UNDEFINED, is_undefined


# Module-level so tasks pickle for the process pool.
def _tc(length, budget=None):
    from repro.deductive.datalog import (
        run_datalog_stratified,
        transitive_closure_datalog,
    )
    from repro.workloads import chain_graph

    return run_datalog_stratified(
        transitive_closure_datalog(), chain_graph(length), budget
    )


_FRESH = itertools.count()


def _fresh_tc(length, budget=None):
    """``_tc`` on a chain of atoms no earlier construction built, so the
    value interner must miss."""
    from repro.deductive.datalog import (
        run_datalog_stratified,
        transitive_closure_datalog,
    )
    from repro.model.schema import Database
    from repro.model.values import SetVal, Tup
    from repro.workloads.generators import atoms, binary_schema

    nodes = atoms(length + 1, prefix=f"fresh{next(_FRESH)}-")
    rows = SetVal(Tup([nodes[i], nodes[i + 1]]) for i in range(length))
    return run_datalog_stratified(
        transitive_closure_datalog(), Database(binary_schema(), {"R": rows}), budget
    )


def _sleepy(budget=None):
    time.sleep(10)
    return "done"


def _spender(budget=None):
    budget.charge("steps", 7)
    return "spent"


def _burner(budget=None):
    while True:
        budget.charge("steps")


def _crash(budget=None):
    raise RuntimeError("boom")


class TestRunSuite:
    def test_results_by_name(self):
        report = run_suite(
            [RunTask(f"tc{n}", _tc, (n,)) for n in (3, 5)], use_processes=False
        )
        direct = {f"tc{n}": _tc(n, Budget()) for n in (3, 5)}
        assert report.results() == direct
        assert report["tc3"].result == direct["tc3"]

    def test_parallel_matches_serial(self):
        tasks = [RunTask(f"tc{n}", _tc, (n,)) for n in (3, 4, 5)]
        parallel = run_suite(tasks)
        serial = run_suite(tasks, use_processes=False)
        assert parallel.results() == serial.results()
        assert serial.parallel is False

    def test_budget_spend_reported(self):
        report = run_suite([RunTask("s", _spender)], use_processes=False)
        assert report["s"].spent["steps"] == 7
        assert report.spend()["steps"] == 7

    def test_sub_budgets_bounded_by_suite_budget(self):
        suite = Budget(steps=3)
        report = run_suite([RunTask("b", _burner)], budget=suite, use_processes=False)
        assert is_undefined(report["b"].result)
        assert report["b"].spent["steps"] == 3
        assert suite.spent("steps") == 0  # children charge independently

    def test_per_task_budget_override(self):
        report = run_suite(
            [RunTask("b", _burner, budget=Budget(steps=5))], use_processes=False
        )
        assert report["b"].spent["steps"] == 5

    def test_budget_exhaustion_is_undefined_not_error(self):
        report = run_suite(
            [RunTask("b", _burner, budget=Budget(steps=10))], use_processes=False
        )
        assert report["b"].result is UNDEFINED
        assert report["b"].error is None

    def test_budget_exhaustion_cause_names_the_resource(self):
        report = run_suite(
            [RunTask("b", _burner, budget=Budget(steps=10))], use_processes=False
        )
        assert report["b"].cause == "budget:steps"
        assert report["b"].timed_out is False

    def test_timeout_yields_undefined(self):
        report = run_suite(
            [RunTask("slow", _sleepy), RunTask("fast", _tc, (3,))], timeout=0.4
        )
        assert is_undefined(report["slow"].result)
        assert report["slow"].timed_out
        assert report["slow"].cause == "timeout"
        assert report["fast"].result == _tc(3, Budget())
        assert report["fast"].cause is None

    def test_timeout_and_budget_causes_distinguished_in_json(self):
        report = run_suite(
            [
                RunTask("slow", _sleepy, timeout=0.4),
                RunTask("broke", _burner, budget=Budget(steps=5)),
            ],
        )
        payload = {t["name"]: t for t in json.loads(report.to_json())["tasks"]}
        assert payload["slow"]["cause"] == "timeout"
        assert payload["broke"]["cause"] == "budget:steps"
        assert payload["slow"]["undefined"] and payload["broke"]["undefined"]

    def test_errors_reported_not_raised(self):
        report = run_suite([RunTask("c", _crash)], use_processes=False)
        assert is_undefined(report["c"].result)
        assert "RuntimeError" in report["c"].error
        assert report["c"].cause == "error"

    def test_unpicklable_falls_back_to_serial(self):
        captured = []

        def closure_task(budget=None):  # closures cannot cross processes
            captured.append(1)
            return "ok"

        report = run_suite(
            [RunTask("a", closure_task), RunTask("b", closure_task)],
            use_processes=True,
        )
        assert report.parallel is False
        assert report.results() == {"a": "ok", "b": "ok"}
        assert len(captured) == 2

    def test_interner_stats_in_report(self):
        report = run_suite(
            [RunTask(f"tc{n}", _fresh_tc, (n,)) for n in (4, 5)], use_processes=False
        )
        assert report.interner["misses"] > 0
        assert report.interner["hits"] == sum(
            task.interner["hits"] for task in report.tasks
        )

    def test_cache_stats_in_report(self):
        cache = MemoCache()
        cache.stats.hits = 3
        report = run_suite([RunTask("tc", _tc, (3,))], cache=cache, use_processes=False)
        assert report.cache["hits"] == 3

    def test_to_json_round_trips(self):
        report = run_suite([RunTask("tc", _tc, (3,))], use_processes=False)
        payload = json.loads(report.to_json())
        assert payload["tasks"][0]["name"] == "tc"
        assert payload["tasks"][0]["undefined"] is False
        assert "spend" in payload

    def test_summary_mentions_shape(self):
        report = run_suite([RunTask("tc", _tc, (3,))], use_processes=False)
        text = report.summary()
        assert "1 task" in text
        assert "serial" in text
