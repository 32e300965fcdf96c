"""Registry correctness under contention (the hypothesis satellite).

The service's accounting discipline is *admit first, settle second*:
every worker increments ``accepted`` before it later increments exactly
one outcome counter.  Under that discipline, the outcome readings of a
snapshot can never exceed an ``accepted`` reading taken *after* the
snapshot returns (instruments lock independently, so the comparison
point must not precede the reads it bounds), and once the threads
join, the two sides are exactly equal.  Lost updates break either.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry

THREADS = 16
OUTCOMES = ("completed", "timed_out", "failed", "closed")


@settings(max_examples=20, deadline=None)
@given(
    per_thread=st.lists(
        st.integers(min_value=1, max_value=60),
        min_size=THREADS,
        max_size=THREADS,
    ),
    outcome_picks=st.lists(
        st.integers(min_value=0, max_value=len(OUTCOMES) - 1),
        min_size=THREADS,
        max_size=THREADS,
    ),
)
def test_no_lost_updates_and_consistent_snapshots(per_thread, outcome_picks):
    registry = MetricsRegistry()
    accepted = registry.counter("serve.queries.accepted")
    outcomes = {
        name: registry.counter(f"serve.queries.{name}") for name in OUTCOMES
    }
    start = threading.Barrier(THREADS + 2)  # workers + observer + main
    stop = threading.Event()
    violations = []

    def work(count, outcome):
        start.wait()
        for _ in range(count):
            accepted.inc()
            outcome.inc()

    def observe():
        start.wait()
        while not stop.is_set():
            snap = registry.snapshot()
            ceiling = accepted.value  # read strictly after the snapshot
            settled = sum(snap[f"serve.queries.{name}"] for name in OUTCOMES)
            if settled > ceiling:
                violations.append(("settled>accepted", snap, ceiling))
                return

    threads = [
        threading.Thread(target=work, args=(count, outcomes[OUTCOMES[pick]]))
        for count, pick in zip(per_thread, outcome_picks)
    ]
    observer = threading.Thread(target=observe)
    for thread in threads:
        thread.start()
    observer.start()
    start.wait()
    for thread in threads:
        thread.join()
    stop.set()
    observer.join()

    assert not violations, violations[0]
    final = registry.snapshot()
    assert final["serve.queries.accepted"] == sum(per_thread)
    assert (
        sum(final[f"serve.queries.{name}"] for name in OUTCOMES)
        == sum(per_thread)
    )
