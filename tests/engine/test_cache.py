"""MemoCache: hits across permuted-isomorphic inputs, soundness guards."""

import pytest

from repro.budget import Budget
from repro.deductive.datalog import (
    run_datalog_stratified,
    transitive_closure_datalog,
)
from repro.engine.cache import LRUCache, MemoCache, program_fingerprint
from repro.engine.canon import Renaming, canonical_atom, canonicalise_database
from repro.errors import UNDEFINED
from repro.model.genericity import Permutation
from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.model.values import Atom, SetVal, Tup
from repro.workloads import chain_graph, random_graph


def _permute(database, shift=1):
    atoms = sorted(database.adom(), key=lambda a: a.canon_key())
    mapping = {atoms[i]: atoms[(i + shift) % len(atoms)] for i in range(len(atoms))}
    return Permutation(mapping)(database)


def _run_tc(database):
    return run_datalog_stratified(
        transitive_closure_datalog(),
        database,
        Budget(steps=None, facts=None, iterations=None),
    )


class TestCanonicalisation:
    @pytest.mark.parametrize("shift", [1, 2, 5])
    def test_permuted_isomorphic_share_canonical_form(self, shift):
        database = chain_graph(8)
        permuted = _permute(database, shift)
        canon_a, _ = canonicalise_database(database)
        canon_b, _ = canonicalise_database(permuted)
        assert canon_a == canon_b

    def test_renaming_round_trips(self):
        database = random_graph(7, 12, seed=1)
        canon, renaming = canonicalise_database(database)
        assert renaming.inverse()(canon) == database

    def test_constants_stay_fixed(self):
        database = chain_graph(4)
        anchor = sorted(database.adom(), key=lambda a: a.canon_key())[0]
        canon, renaming = canonicalise_database(database, constants=(anchor,))
        assert anchor in canon.adom()
        assert anchor not in renaming.mapping

    def test_non_isomorphic_do_not_collide(self):
        schema = Schema({"R": parse_type("[U, U]")})
        a = Database(schema, {"R": {("x", "y"), ("y", "z")}})  # path
        b = Database(schema, {"R": {("x", "y"), ("x", "z")}})  # fan
        canon_a, _ = canonicalise_database(a)
        canon_b, _ = canonicalise_database(b)
        assert canon_a != canon_b

    def test_canonical_atoms_disjoint_from_input(self):
        database = chain_graph(3)
        canon, _ = canonicalise_database(database)
        assert not (set(canon.adom()) & set(database.adom()))
        assert canonical_atom(0) in canon.adom()

    def test_renaming_applies_structurally(self):
        renaming = Renaming({Atom("a"): Atom("z")})
        value = SetVal([Tup([Atom("a"), Atom("b")])])
        assert renaming(value) == SetVal([Tup([Atom("z"), Atom("b")])])


class TestMemoCache:
    def test_hit_on_permuted_isomorphic_database(self):
        program = transitive_closure_datalog()
        database = chain_graph(8)
        permuted = _permute(database, 3)
        cache = MemoCache()
        first = cache.run(_run_tc, program, database)
        second = cache.run(_run_tc, program, permuted)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        # Soundness: the cached-and-renamed answer equals a direct run.
        assert second == _run_tc(permuted)
        assert first == _run_tc(database)

    def test_same_database_hits(self):
        program = transitive_closure_datalog()
        database = chain_graph(5)
        cache = MemoCache()
        assert cache.run(_run_tc, program, database) == cache.run(
            _run_tc, program, database
        )
        assert cache.stats.hits == 1

    def test_bypass_for_non_generic_programs(self):
        program = transitive_closure_datalog()
        database = chain_graph(4)
        cache = MemoCache()
        out = cache.run(_run_tc, program, database, generic=False)
        assert out == _run_tc(database)
        assert cache.stats.bypasses == 1
        assert len(cache) == 0  # nothing was stored

    def test_different_programs_do_not_share(self):
        from repro.deductive.datalog import non_reachable_datalog

        database = chain_graph(4)
        cache = MemoCache()
        cache.run(_run_tc, transitive_closure_datalog(), database)
        cache.run(
            lambda d: run_datalog_stratified(
                non_reachable_datalog(), d, Budget(steps=None, facts=None)
            ),
            non_reachable_datalog(),
            database,
        )
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_extra_key_separates_modes(self):
        program = transitive_closure_datalog()
        database = chain_graph(4)
        cache = MemoCache()
        cache.run(_run_tc, program, database, extra_key="stratified")
        cache.run(_run_tc, program, database, extra_key="inflationary")
        assert cache.stats.misses == 2

    def test_undefined_results_are_cached(self):
        program = transitive_closure_datalog()
        database = chain_graph(6)
        cache = MemoCache()
        calls = []

        def diverging(db):
            calls.append(1)
            return UNDEFINED

        assert cache.run(diverging, program, database) is UNDEFINED
        assert cache.run(diverging, program, _permute(database, 2)) is UNDEFINED
        assert len(calls) == 1

    def test_lru_bound_evicts(self):
        program = transitive_closure_datalog()
        cache = MemoCache(max_entries=2)
        for n in (3, 4, 5):
            cache.run(_run_tc, program, chain_graph(n))
        assert len(cache) == 2
        assert cache.stats.evictions == 1

    def test_fingerprint_distinguishes_machines(self):
        from repro.gtm.library import all_machines

        machines = all_machines()
        prints = {
            program_fingerprint(machines[name][0]) for name in machines
        }
        assert len(prints) == len(machines)


class TestLRUCache:
    def test_get_put_and_eviction_order(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)


class TestExactFirst:
    """Exact keys first; canonical forms only where an isomorph can hit."""

    @staticmethod
    def _count(monkeypatch):
        from repro.engine import cache as cache_module

        calls: list = []
        real = cache_module._canonical_form

        def counting(database, constants):
            calls.append(database)
            return real(database, constants)

        monkeypatch.setattr(cache_module, "_canonical_form", counting)
        return calls

    def test_exact_hit_returns_the_stored_answer_uncanonicalised(self, monkeypatch):
        calls = self._count(monkeypatch)
        cache = MemoCache()
        database = chain_graph(6)
        first = cache.run(_run_tc, transitive_closure_datalog(), database)
        second = cache.run(_run_tc, transitive_closure_datalog(), database)
        assert second is first
        assert cache.stats.hits == 1
        assert calls == []

    def test_first_sight_of_a_family_canonicalises_nothing(self, monkeypatch):
        calls = self._count(monkeypatch)
        cache = MemoCache()
        for n in (3, 4, 5):
            cache.run(_run_tc, transitive_closure_datalog(), chain_graph(n), extra_key=n)
        assert cache.stats.misses == 3
        assert calls == []

    def test_each_stored_entry_canonicalises_at_most_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        cache = MemoCache()
        program = transitive_closure_datalog()
        stored = [chain_graph(n) for n in range(2, 7)]
        for database in stored:
            cache.run(_run_tc, program, database)
        probes = [_permute(database, 1) for database in stored]
        probes += [chain_graph(n) for n in range(7, 10)]
        for database in probes:
            assert cache.run(_run_tc, program, database) == _run_tc(database)
        # Permuted chains hit their stored isomorph; longer chains miss.
        assert cache.stats.hits == len(stored)
        for database in stored + probes:
            assert sum(1 for seen in calls if seen is database) <= 1
        # Later probes find every stored form already known.
        assert len(calls) <= len(stored) + len(probes)

    def test_isomorphic_hit_is_stored_under_the_exact_key(self, monkeypatch):
        cache = MemoCache()
        program = transitive_closure_datalog()
        database = chain_graph(6)
        permuted = _permute(database, 2)
        cache.run(_run_tc, program, database)
        cache.run(_run_tc, program, permuted)
        assert cache.stats.hits == 1 and len(cache) == 2
        calls = self._count(monkeypatch)
        assert cache.run(_run_tc, program, permuted) == _run_tc(permuted)
        assert cache.stats.hits == 2
        assert calls == []

    def test_undefined_answers_are_memoised_under_the_exact_key(self, monkeypatch):
        calls = self._count(monkeypatch)
        cache = MemoCache()
        database = chain_graph(5)
        evaluations = []

        def diverging(db):
            evaluations.append(db)
            return UNDEFINED

        for _ in range(3):
            assert cache.run(diverging, "diverges", database) is UNDEFINED
        assert len(evaluations) == 1
        assert cache.stats.hits == 2
        assert calls == []

    def test_eviction_keeps_the_family_index_in_step(self):
        cache = MemoCache(max_entries=3)
        program = transitive_closure_datalog()
        for n in range(2, 9):
            cache.run(_run_tc, program, chain_graph(n), extra_key=n % 2)
        assert len(cache) == 3
        named = [
            (family, database)
            for family, members in cache._families.items()
            for database in members
        ]
        assert len(named) == len(cache)
        assert set(named) == set(cache._entries)
        cache.clear()
        assert cache._families == {}
