"""Catalog statistics — planning overhead and incremental migration.

Two measurements of :mod:`repro.catalog`, each doubling as an
acceptance assertion from the catalog tentpole:

* **cold-plan overhead** — the first plan against a database now pays
  catalog registration + memoized profile construction instead of the
  legacy inline ``database_profile`` recomputation; the extra cost must
  stay within 5% of a cold plan (and repeat plans win outright, served
  from the memo);
* **incremental migrate vs cold rescan** — carrying materialised
  :class:`~repro.catalog.stats.RelStats` across a stream of commits by
  replaying each :class:`~repro.store.tx.FactDelta` against rescanning
  the extent after every commit, ending in byte-identical snapshots.
"""

import time

from repro.catalog import Catalog, RelStats
from repro.model.schema import Database
from repro.query.parser import parse
from repro.query.planner import build_plan
from repro.store.tx import apply_ops
from repro.workloads.generators import chain_graph

QUERY = "{ [x, z] | some y / U : R([x, y]) and R([y, z]) }"

#: Enough equal databases that every "cold" measurement really starts
#: from an unregistered catalog.
COLD_COPIES = 64
CHAIN = 256

#: The migration stream: single-edge commits against a sizeable extent.
MIGRATE_COMMITS = 48


def _best_of(fn, repeats: int = 3) -> float:
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    return best


def _fresh_databases(count: int = COLD_COPIES) -> list:
    return [chain_graph(CHAIN) for _ in range(count)]


def _legacy_profile(database) -> dict:
    """The pre-catalog planner behavior: recompute the whole profile
    inline on every plan (kept here as the honest baseline)."""
    sizes = {name: len(database[name].items) for name in database}
    return {
        "sizes": sizes,
        "total_facts": sum(sizes.values()),
        "adom": len(database.adom()),
        "max_depth": max((database[name].depth for name in database), default=0),
    }


def test_cold_plan_overhead_within_five_percent(benchmark, engine_record):
    query = parse(QUERY, schema=chain_graph(2).schema)

    def plan_all(databases):
        for database in databases:
            build_plan(query, database)

    cold_sets = [_fresh_databases() for _ in range(3)]
    benchmark(plan_all, cold_sets[0])

    # Profiles agree field-for-field with the legacy recomputation.
    database = chain_graph(CHAIN)
    catalog_profile = Catalog.for_database(database).profile()
    for key, value in _legacy_profile(database).items():
        assert catalog_profile[key] == value

    # Cold catalog profile vs the legacy inline recomputation, scaled
    # against a whole cold plan: the bookkeeping the catalog adds
    # (the registry insert) must be noise at plan granularity.
    # Both sides see fresh databases — ``adom()`` memoizes per value,
    # so reusing one database would flatter the baseline.
    legacy_sets = [_fresh_databases() for _ in range(3)]
    legacy = min(
        _best_of(
            lambda dbs=dbs: [_legacy_profile(db) for db in dbs], repeats=1
        )
        / COLD_COPIES
        for dbs in legacy_sets
    )
    profile_sets = [_fresh_databases() for _ in range(3)]
    cold_profile = min(
        _best_of(
            lambda dbs=dbs: [Catalog.for_database(db).profile() for db in dbs],
            repeats=1,
        )
        / COLD_COPIES
        for dbs in profile_sets
    )
    plan_time = min(
        _best_of(lambda dbs=dbs: plan_all(dbs), repeats=1) / COLD_COPIES
        for dbs in cold_sets
    )
    overhead_pct = 100.0 * max(cold_profile - legacy, 0.0) / plan_time

    # Warm plans reuse the memoized profile outright.
    warm_db = chain_graph(CHAIN)
    build_plan(query, warm_db)
    warm_profile = (
        _best_of(
            lambda: [Catalog.for_database(warm_db).profile() for _ in range(COLD_COPIES)]
        )
        / COLD_COPIES
    )

    engine_record(
        "catalog_cold_plan_overhead",
        workload=f"conjunctive 2-way join plan over chain({CHAIN}), "
        f"best of {COLD_COPIES} cold databases",
        cold_plan_seconds=round(plan_time, 6),
        legacy_profile_seconds=round(legacy, 6),
        cold_profile_seconds=round(cold_profile, 6),
        warm_profile_seconds=round(warm_profile, 6),
        overhead_percent=round(overhead_pct, 2),
    )
    assert overhead_pct <= 5.0


def test_incremental_migrate_beats_cold_rescan(benchmark, engine_record):
    def commit_stream(database):
        commits = []
        for index in range(MIGRATE_COMMITS):
            extra = Database.from_plain(
                database.schema,
                R=[(f"m{index}", f"m{index + 1}")],
            )
            commits.append({"R": list(extra["R"].items)})
        return commits

    def migrate_stream():
        database = chain_graph(CHAIN)
        Catalog.for_database(database).rel("R")  # materialise once
        keep_alive = [database]
        for batch in commit_stream(database):
            database, _ = apply_ops(database, asserts=batch)
            keep_alive.append(database)
        return Catalog.for_database(database).rel("R").snapshot()

    def rescan_stream():
        database = chain_graph(CHAIN)
        snapshot = RelStats.from_facts(database["R"].items).snapshot()
        for batch in commit_stream(database):
            database, _ = apply_ops(database, asserts=batch)
            Catalog.lookup(database)._rels.clear()  # simulate no carry
            snapshot = RelStats.from_facts(database["R"].items).snapshot()
        return snapshot

    migrated = benchmark(migrate_stream)
    rescanned = rescan_stream()
    assert migrated == rescanned  # replay is exact, never approximate

    incremental = _best_of(migrate_stream)
    rescan = _best_of(rescan_stream)
    engine_record(
        "catalog_incremental_migrate",
        workload=f"{MIGRATE_COMMITS} single-edge commits on chain({CHAIN}), "
        "materialised RelStats carried across each commit",
        incremental_seconds=round(incremental, 4),
        rescan_seconds=round(rescan, 4),
        speedup=round(rescan / incremental, 2),
    )
    assert incremental < rescan  # delta replay pays for itself
