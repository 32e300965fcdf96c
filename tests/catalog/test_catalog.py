"""Catalog lifecycle: registry, memoized profile, incremental
migration across commits, and the absence of any execution feedback."""

import gc

from hypothesis import given, settings, strategies as st

from repro.catalog import Catalog, RelStats
from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.store.tx import apply_ops
from repro.model.values import Atom, Tup


SCHEMA = Schema({"R": parse_type("[U, U]"), "S": parse_type("U")})


def _db(pairs=(("a", "b"), ("b", "c")), singles=("a",)):
    return Database.from_plain(SCHEMA, R=list(pairs), S=list(singles))


class TestRegistry:
    def test_same_database_same_catalog(self):
        database = _db()
        assert Catalog.for_database(database) is Catalog.for_database(database)

    def test_lookup_without_registration_is_none(self):
        assert Catalog.lookup(_db()) is None

    def test_equal_databases_keep_separate_catalogs(self):
        first, second = _db(), _db()
        assert first == second
        assert Catalog.for_database(first) is not Catalog.for_database(second)

    def test_entries_evict_when_database_is_collected(self):
        from repro.catalog import catalog as module

        database = _db(pairs=[("evict", "me")], singles=["evict"])
        key = id(database)
        Catalog.for_database(database)
        assert key in module._REGISTRY
        del database
        gc.collect()
        assert key not in module._REGISTRY


class TestProfile:
    def test_profile_matches_instances(self):
        database = _db()
        profile = Catalog.for_database(database).profile()
        assert profile["sizes"] == {"R": 2, "S": 1}
        assert profile["total_facts"] == 3
        assert profile["adom"] == 3
        assert profile["max_depth"] >= 1

    def test_base_profile_is_memoized(self):
        database = _db()
        catalog = Catalog.for_database(database)
        first = catalog.profile()
        assert catalog.profile() is first

    def test_rel_stats_are_lazy_and_cached(self):
        database = _db()
        catalog = Catalog.for_database(database)
        assert catalog.computed() == ()
        stats = catalog.rel("R")
        assert isinstance(stats, RelStats)
        assert stats.size == 2
        assert catalog.computed() == ("R",)
        assert catalog.rel("R") is stats


class TestFeedback:
    """Nothing an execution observes is written back to the catalog:
    its readings are a function of the database alone."""

    def test_snapshot_is_json_ready(self):
        import json

        database = _db()
        catalog = Catalog.for_database(database)
        catalog.rel("R")
        snapshot = catalog.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["relations"]["R"]["size"] == 2
        assert set(snapshot) == {"relations"}


class TestMigrate:
    def test_untouched_relations_share_stats_objects(self):
        database = _db()
        catalog = Catalog.for_database(database)
        r_stats, s_stats = catalog.rel("R"), catalog.rel("S")
        new_db, _ = apply_ops(
            database, asserts={"R": [Tup([Atom("c"), Atom("d")])]}
        )
        migrated = Catalog.for_database(new_db)
        assert migrated.rel("S") is s_stats  # untouched: shared
        assert migrated.rel("R") is not r_stats  # touched: replayed copy
        assert r_stats.size == 2  # predecessor stats unharmed

    def test_delta_replay_matches_cold_rescan(self):
        database = _db()
        Catalog.for_database(database).rel("R")
        new_db, _ = apply_ops(
            database,
            asserts={"R": [Tup([Atom("c"), Atom("d")])]},
            retracts={"R": [Tup([Atom("a"), Atom("b")])]},
        )
        migrated = Catalog.for_database(new_db).rel("R")
        rescanned = RelStats.from_facts(new_db["R"].items)
        assert migrated.snapshot() == rescanned.snapshot()

    def test_unmaterialised_relations_stay_lazy(self):
        database = _db()
        Catalog.for_database(database)  # no rel() calls
        new_db, _ = apply_ops(database, asserts={"S": [Atom("z")]})
        assert Catalog.for_database(new_db).computed() == ()


@st.composite
def _renaming_case(draw):
    labels = st.integers(min_value=0, max_value=6)
    pairs = draw(st.lists(st.tuples(labels, labels), min_size=1, max_size=16))
    shift = draw(st.integers(min_value=1, max_value=5))
    return pairs, shift


class TestIsomorphismInvariance:
    @given(case=_renaming_case())
    @settings(max_examples=40, deadline=None)
    def test_estimates_are_invariant_under_atom_renaming(self, case):
        """Isomorphic databases (related by a bijective atom renaming)
        produce identical profiles, relation statistics, and therefore
        identical estimates and chosen plans — cost never depends on
        *which* atoms a database mentions, only on their pattern."""
        pairs, shift = case
        rename = lambda n: n + 100 * shift  # noqa: E731 - bijection on labels
        original = Database.from_plain(
            SCHEMA,
            R=list(dict.fromkeys(pairs)),
            S=list(dict.fromkeys(a for a, _ in pairs)),
        )
        image = Database.from_plain(
            SCHEMA,
            R=[(rename(a), rename(b)) for a, b in dict.fromkeys(pairs)],
            S=list(dict.fromkeys(rename(a) for a, _ in pairs)),
        )
        first = Catalog.for_database(original)
        second = Catalog.for_database(image)
        for key in ("sizes", "total_facts", "adom", "max_depth"):
            assert first.profile()[key] == second.profile()[key]
        for name in ("R", "S"):
            assert (
                first.rel(name).snapshot() == second.rel(name).snapshot()
            )
