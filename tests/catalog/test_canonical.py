"""Per-database canonical forms and restrict views on the catalog.

The memo cache keys every generic query on the canonical form of a
database (C-genericity, paper Section 2).  Databases are immutable, so
the catalog computes that form once per constant set and the memo
reads it; restrict views are memoized the same way and carried across
commits that leave their predicates untouched.  These tests pin both
halves: the cached forms are exactly the ones a fresh
``canonicalise_database`` call returns (so no memo key changes), and
the mechanism really computes each form once, for as long as — and no
longer than — its database lives.
"""

import gc
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Catalog
from repro.catalog import catalog as catalog_module
from repro.catalog.policy import CATALOG_MEMO_ENTRIES
from repro.engine import cache as cache_module
from repro.engine.cache import MemoCache
from repro.engine.canon import canonicalise_database
from repro.model.genericity import Permutation
from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.model.values import Atom, SetVal, Tup
from repro.query.planner import Plan
from repro.query.session import Session
from repro.serve.service import QueryService
from repro.store.tx import apply_ops

# -- generated untyped databases -----------------------------------------

#: Six movable labels at most: colour refinement plus the exact
#: tie-break (6! = 720 orders) then makes the canonical form exact, so
#: every permuted isomorph must hit.
_atoms = st.sampled_from("abcdef").map(Atom)

_objects = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(Tup),
        st.lists(inner, max_size=3).map(SetVal),
    ),
    max_leaves=6,
)

UNTYPED = Schema({name: parse_type("Obj") for name in ("R", "S", "T")})


@st.composite
def untyped_databases(draw):
    """Heterogeneous, nested ``Obj`` instances over R, S and T."""
    return Database(
        UNTYPED,
        {name: draw(st.lists(_objects, max_size=4)) for name in UNTYPED.names()},
    )


@st.composite
def database_and_constants(draw):
    database = draw(untyped_databases())
    adom = sorted(database.adom(), key=lambda atom: atom.canon_key())
    constants = draw(st.lists(st.sampled_from(adom), unique=True)) if adom else []
    return database, constants


def _count_canonicalise(monkeypatch) -> list:
    """Wrap the canonicaliser at the catalog's call site; the returned
    list grows by one per call."""
    calls: list = []
    real = cache_module.canonicalise_database

    def counting(database, constants=()):
        calls.append(database)
        return real(database, constants)

    monkeypatch.setattr(cache_module, "canonicalise_database", counting)
    return calls


# -- the cache changes no key ---------------------------------------------


class TestSameKeys:
    @settings(max_examples=60, deadline=None)
    @given(database_and_constants())
    def test_catalog_form_equals_a_fresh_canonicalisation(self, drawn):
        database, constants = drawn
        canonical, renaming, inverse = Catalog.for_database(database).canonical(
            constants
        )
        fresh, fresh_renaming = canonicalise_database(database, constants)
        assert canonical == fresh
        assert renaming.mapping == fresh_renaming.mapping
        assert inverse.mapping == fresh_renaming.inverse().mapping
        # Served memoized: the same objects on the next read.
        again = Catalog.for_database(database).canonical(reversed(constants))
        assert again[0] is canonical and again[1] is renaming

    @settings(max_examples=60, deadline=None)
    @given(database_and_constants(), st.permutations("abcdef"))
    def test_atom_permuted_isomorph_still_hits(self, drawn, image):
        database, constants = drawn
        fixed = set(constants)
        movable = [Atom(label) for label in "abcdef" if Atom(label) not in fixed]
        targets = [Atom(label) for label in image if Atom(label) not in fixed]
        permuted = Permutation(dict(zip(movable, targets)))(database)
        memo = MemoCache()

        def fn(db):
            return db["R"]

        memo.run(fn, "instance R", database, constants=constants)
        result = memo.run(fn, "instance R", permuted, constants=constants)
        assert memo.stats.hits == 1
        assert result == permuted["R"]

    @settings(max_examples=60, deadline=None)
    @given(
        database_and_constants(),
        st.sampled_from(["R", "S", "T"]),
        st.lists(_objects, min_size=1, max_size=2),
    )
    def test_carried_view_equals_a_fresh_restrict(self, drawn, touched, facts):
        database, constants = drawn
        catalog = Catalog.for_database(database)
        footprints = [frozenset(p) for p in ({"R"}, {"S"}, {"T"}, {"R", "S"}, {"S", "T"})]
        views = {preds: catalog.restrict(preds) for preds in footprints}
        for view in views.values():
            Catalog.for_database(view).canonical(constants)
        new_database, delta = apply_ops(database, {touched: facts}, None)
        if delta.empty():
            return
        successor = Catalog.for_database(new_database)
        for preds, view in views.items():
            current = successor.restrict(preds)
            assert current == new_database.restrict(preds)
            if touched in preds:
                assert current is not view
            else:
                assert current is view  # carried across the commit
            canonical, renaming, _ = Catalog.for_database(current).canonical(constants)
            fresh, fresh_renaming = canonicalise_database(current, constants)
            assert canonical == fresh
            assert renaming.mapping == fresh_renaming.mapping


# -- the mechanism and its lifetime ---------------------------------------

GRAPH = Schema({"R": parse_type("[U, U]"), "E": parse_type("[U, U]")})
REACH_R = "rules { T(y) :- R('n0', y). T(z) :- T(y), R(y, z). } answer T"
SELECT_R = "R |> select(1 = 'n1') |> project(2)"


def _graph(nodes: int = 12) -> Database:
    ring = [(f"n{i}", f"n{(i + 1) % nodes}") for i in range(nodes)]
    chords = [(f"n{i}", f"n{(3 * i + 5) % nodes}") for i in range(0, nodes, 2)]
    edges = [(f"m{i}", f"m{(i + 2) % nodes}") for i in range(nodes)]
    return Database(GRAPH, {"R": set(ring + chords), "E": set(edges)})


class TestCanonicalisedOnce:
    @pytest.mark.parametrize("text", [REACH_R, SELECT_R])
    def test_warm_hits_canonicalise_once(self, monkeypatch, text):
        calls = _count_canonicalise(monkeypatch)
        session = Session(_graph())
        for _ in range(16):
            session.run(text)
        assert session.memo.stats.hits == 15
        # Exact hits: the miss met an empty family and the hits an
        # identical key, so no canonical form was ever needed.
        assert len(calls) == 0

    def test_warm_hits_fingerprint_the_plan_once(self, monkeypatch):
        calls: list = []
        real = Plan.fingerprint_payload

        def counting(plan):
            calls.append(plan)
            return real(plan)

        monkeypatch.setattr(Plan, "fingerprint_payload", counting)
        session = Session(_graph())
        session.run(REACH_R)
        for _ in range(2):
            _, report = session.run(REACH_R)
            assert report.cached
        assert len(calls) <= 1

    def test_restrict_view_is_stable(self):
        database = _graph()
        catalog = Catalog.for_database(database)
        view = catalog.restrict({"R"})
        assert catalog.restrict(["R"]) is view
        assert view == database.restrict({"R"})
        assert catalog.restrict({"R", "E"}) is database

    def test_rule_query_after_unrelated_commit_canonicalises_nothing(
        self, monkeypatch, tmp_path
    ):
        service = QueryService(
            {"g": _graph()}, workers=1,
            data_dir=str(tmp_path / "data"), sync=False,
        )
        try:
            first = service.query("g", REACH_R).raise_for_status()
            calls = _count_canonicalise(monkeypatch)
            service.update("g", asserts={"E": [["m0", "m5"]]}).raise_for_status()
            outcome = service.query("g", REACH_R)
            assert outcome.raise_for_status() == first
            assert outcome.trace.cached
            assert calls == []
        finally:
            service.close()

    def test_concurrent_hits_reply_identically(self):
        session = Session(_graph())
        catalog = Catalog.for_database(session.database)
        replies: list = []
        views: list = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            views.append(catalog.restrict({"R"}))
            for text in (REACH_R, SELECT_R) * 4:
                result, _ = session.run(text)
                replies.append((text, repr(result).encode()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(replies) == 64
        for text in (REACH_R, SELECT_R):
            assert len({reply for key, reply in replies if key == text}) == 1
        # Racing misses all receive the one stored view.
        assert all(view is views[0] for view in views)
        assert catalog.restrict({"R"}) is views[0]

    def test_per_database_cap(self):
        database = Database(
            Schema({"S": parse_type("U")}),
            {"S": [f"c{i}" for i in range(CATALOG_MEMO_ENTRIES + 1)]},
        )
        catalog = Catalog.for_database(database)
        for i in range(CATALOG_MEMO_ENTRIES + 1):
            catalog.canonical([Atom(f"c{i}")])
        assert len(catalog._canonical) == CATALOG_MEMO_ENTRIES
        assert frozenset([Atom("c0")]) not in catalog._canonical  # least recent


class TestNoSelfPinning:
    def test_database_with_no_movable_atoms_is_evicted(self):
        database = Database(Schema({"S": parse_type("U")}), {"S": ["solo"]})
        canonical, _, _ = Catalog.for_database(database).canonical([Atom("solo")])
        assert canonical is database
        key = id(database)
        del database, canonical
        gc.collect()
        assert key not in catalog_module._REGISTRY

    def test_database_restricted_to_all_predicates_is_evicted(self):
        database = _graph()
        view = Catalog.for_database(database).restrict({"R", "E"})
        assert view is database
        key = id(database)
        del database, view
        gc.collect()
        assert key not in catalog_module._REGISTRY
