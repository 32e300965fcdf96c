"""Kernel-cache counters in the service STATS snapshot.

The fixpoint backends report their per-run compiled-kernel cache
traffic on the :class:`~repro.query.planner.ExecutionReport`; the
service folds those into service-wide counters so warm-kernel wins are
observable from ``stats()`` like every other instrument.
"""

from repro.serve.service import QueryService
from repro.workloads import serve_databases

RULES_TC = (
    "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). } answer T"
)
RULES_JOIN = "rules { Q(x, y) :- R(x, y), S(x). } answer Q"


def _kernel_counters(service) -> dict:
    metrics = service.stats(trace_limit=0)["metrics"]
    return {
        name: value
        for name, value in metrics.items()
        if name.startswith("deductive.kernels.")
    }


class TestKernelCacheCounters:
    def test_registered_from_the_start(self):
        service = QueryService(serve_databases(), workers=1)
        try:
            counters = _kernel_counters(service)
            assert counters == {
                "deductive.kernels.hits": 0,
                "deductive.kernels.misses": 0,
                "deductive.kernels.invalidations": 0,
            }
        finally:
            service.close()

    def test_rules_query_reports_cache_traffic(self):
        service = QueryService(serve_databases(), workers=1)
        try:
            outcome = service.query("main", RULES_TC)
            assert outcome.status == "ok"
            counters = _kernel_counters(service)
            # Every kernel is compiled once (misses) and the recursive
            # rule re-enters the cache on later rounds (hits).
            assert counters["deductive.kernels.misses"] > 0
            assert counters["deductive.kernels.hits"] > 0

            before = counters
            outcome = service.query("main", RULES_JOIN)
            assert outcome.status == "ok"
            after = _kernel_counters(service)
            assert after["deductive.kernels.misses"] > before["deductive.kernels.misses"]
        finally:
            service.close()

    def test_memo_hit_adds_no_kernel_traffic(self):
        service = QueryService(serve_databases(), workers=1)
        try:
            assert service.query("main", RULES_TC).status == "ok"
            before = _kernel_counters(service)
            # Same generic query again: served from the memo cache, no
            # fixpoint runs, so kernel counters must not move.
            assert service.query("main", RULES_TC).status == "ok"
            assert _kernel_counters(service) == before
        finally:
            service.close()
