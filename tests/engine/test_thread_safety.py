"""Shared engine state under thread contention: intern, LRU, memo.

These hammer the three structures a :class:`repro.serve.QueryService`
shares across its worker pool.  The assertions are consistency
invariants that fail when any lock is missing or too narrow: exact
counter accounting, capacity never overshot, one canonical instance
per key, correct results from concurrent memoized evaluation.
"""

import itertools
import threading

from repro.engine.cache import LRUCache, MemoCache
from repro.model.intern import INTERNER
from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.model.values import Atom, SetVal, Tup

THREADS = 8

#: Fresh label namespaces, so each test's structures are new to the table.
_FRESH = itertools.count()


def _hammer(worker, threads=THREADS):
    pool = [
        threading.Thread(target=worker, args=(index,)) for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in pool)


class TestInternerConcurrency:
    """The module interner that every value constructor consults."""

    def test_one_canonical_instance_per_key(self, monkeypatch):
        monkeypatch.setattr(INTERNER, "max_entries", None)
        tag = f"race-{next(_FRESH)}"
        labels = [f"{tag}-{label}" for label in "abcd"]
        observed = [[] for _ in range(THREADS)]
        size = len(INTERNER)

        def worker(index):
            for _ in range(500):
                observed[index].append(
                    [Tup([Atom(label), SetVal([Atom(label)])]) for label in labels]
                )

        _hammer(worker)
        # Four labels, three structures each (atom, set, tuple).
        assert len(INTERNER) - size == 12
        # However the lookup-miss → build → store races went, each
        # structure converged on ONE canonical instance: rebuilding it
        # now returns it, and every thread's later rounds saw only it.
        canonical = [Tup([Atom(label), SetVal([Atom(label)])]) for label in labels]
        for rounds in observed:
            for built in rounds[1:]:
                assert all(a is b for a, b in zip(built, canonical))
            # A first-round loser is equal, never corrupt.
            assert rounds[0] == canonical

    def test_counters_are_exact(self):
        value = Tup([Atom("x"), Atom("y")])
        before = INTERNER.stats()

        def worker(index):
            for _ in range(1_000):
                Tup(value.items)

        _hammer(worker)
        after = INTERNER.stats()
        assert after.hits - before.hits == THREADS * 1_000
        assert after.misses == before.misses
        assert after.size == before.size

    def test_capacity_is_never_overshot(self, monkeypatch):
        cap = len(INTERNER) + 16
        monkeypatch.setattr(INTERNER, "max_entries", cap)
        tag = f"cap-{next(_FRESH)}"
        before = INTERNER.stats()

        def worker(index):
            for n in range(400):
                Atom(f"{tag}-{index}-{n}")

        _hammer(worker)
        after = INTERNER.stats()
        assert len(INTERNER) <= cap
        # Everything not admitted was counted as a skip.
        assert (after.size - before.size) + (after.skips - before.skips) == (
            THREADS * 400
        )


class TestLRUCacheConcurrency:
    def test_capacity_and_counters_under_put_storm(self):
        cache = LRUCache(max_entries=32)

        def worker(index):
            for n in range(1_000):
                cache.put((index, n % 64), n)

        _hammer(worker)
        assert len(cache) <= 32
        # Inserts either stay resident or were evicted — nothing lost.
        puts = THREADS * 1_000
        assert cache.stats.evictions <= puts
        assert len(cache) + cache.stats.evictions >= 32

    def test_hit_miss_accounting_is_exact(self):
        cache = LRUCache(max_entries=8)
        for n in range(8):
            cache.put(n, n)

        def worker(index):
            for _ in range(1_000):
                assert cache.get(index % 8) == index % 8

        _hammer(worker)
        assert cache.stats.hits == THREADS * 1_000
        assert cache.stats.misses == 0

    def test_get_put_mix_never_corrupts(self):
        cache = LRUCache(max_entries=4)

        def worker(index):
            for n in range(2_000):
                key = n % 8
                cache.put(key, key)
                value = cache.get(key)
                assert value is None or value == key

        _hammer(worker)
        assert len(cache) <= 4


def _database(rows):
    schema = Schema({"R": parse_type("[U, U]")})
    instance = SetVal(Tup([Atom(a), Atom(b)]) for a, b in rows)
    return Database(schema, {"R": instance})


class _FakeProgram:
    def __repr__(self):
        return "FakeProgram()"


def _project_first(database):
    return SetVal(pair[0] for pair in database["R"])


class TestMemoCacheConcurrency:
    def test_concurrent_hits_and_misses_are_consistent(self):
        memo = MemoCache(max_entries=64)
        program = _FakeProgram()
        databases = [
            _database([("a", "b"), ("b", "c")]),
            _database([("x", "y"), ("y", "z")]),
        ]
        expected = [_project_first(database) for database in databases]
        evaluations = []
        evaluations_lock = threading.Lock()

        def counted(database):
            with evaluations_lock:
                evaluations.append(1)
            return _project_first(database)

        failures = []

        def worker(index):
            for n in range(300):
                which = (index + n) % 2
                result = memo.run(counted, program, databases[which])
                if result != expected[which]:
                    failures.append((index, n, result))

        _hammer(worker)
        assert not failures
        total = THREADS * 300
        stats = memo.stats
        # Every run was either a hit or a miss, and every miss ran fn.
        assert stats.hits + stats.misses == total
        assert len(evaluations) == stats.misses
        # Concurrent first-misses may duplicate work, but only a
        # bounded amount: far fewer evaluations than total runs.
        assert stats.misses <= THREADS * 2
        assert stats.hits >= total - THREADS * 2

    def test_generic_false_bypasses_and_counts(self):
        memo = MemoCache()
        program = _FakeProgram()
        database = _database([("a", "b")])

        def worker(index):
            for _ in range(200):
                memo.run(_project_first, program, database, generic=False)

        _hammer(worker)
        assert memo.stats.bypasses == THREADS * 200
        assert len(memo) == 0

    def test_eviction_respects_capacity_under_threads(self):
        memo = MemoCache(max_entries=4)
        program = _FakeProgram()
        # Chains of different lengths: canonicalisation cannot collapse
        # these (structure differs), so they occupy distinct keys.
        databases = [
            _database([(f"n{i}", f"n{i + 1}") for i in range(length + 1)])
            for length in range(12)
        ]

        def worker(index):
            for n in range(120):
                memo.run(_project_first, program, databases[(index + n) % 12])

        _hammer(worker)
        assert len(memo) <= 4

    def test_family_index_tracks_eviction_under_threads(self):
        """Concurrent exact hits, isomorphic hits and evicting misses:
        the family index never names an evicted entry, and its sizes
        always sum to the number of entries."""
        memo = MemoCache(max_entries=5)
        programs = ["P0", "P1"]
        # Chains of six lengths, each also under a second atom naming:
        # the renamed copy is an isomorph, so probes take the canonical
        # path as well as the exact one.
        databases = []
        for length in range(2, 8):
            for prefix in ("n", "m"):
                rows = [(f"{prefix}{i}", f"{prefix}{i + 1}") for i in range(length)]
                databases.append(_database(rows))
        violations = []
        stop = threading.Event()

        def check():
            with memo._lock:
                named = {
                    (family, database)
                    for family, members in memo._families.items()
                    for database in members
                }
                sizes = sum(len(members) for members in memo._families.values())
                if named != set(memo._entries) or sizes != len(memo._entries):
                    violations.append((len(named), sizes, len(memo._entries)))

        def checker():
            while not stop.is_set():
                check()

        watcher = threading.Thread(target=checker)
        watcher.start()
        failures = []

        def worker(index):
            for n in range(150):
                database = databases[(index * 7 + n) % len(databases)]
                program = programs[(index + n) % 2]
                result = memo.run(_project_first, program, database)
                if result != _project_first(database):
                    failures.append((index, n))

        try:
            _hammer(worker)
        finally:
            stop.set()
            watcher.join(timeout=60)
        check()
        assert not failures
        assert not violations
        assert len(memo) <= 5
        assert memo.stats.evictions > 0
        assert memo.stats.hits + memo.stats.misses == THREADS * 150
