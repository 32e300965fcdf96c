"""Incremental maintenance: the differential acceptance test.

A materialized view refreshed by semi-naive delta rounds must be
**byte-identical** to a from-scratch recompute after every committed
delta, on every driver the view stands in for; retractions fall back
to dropping the view, and the recompute must then be correct.
"""

import random

import pytest

from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.query.session import Session
from repro.store.codec import rows_from_json
from repro.store.maintenance import BKView, ColView, ViewRegistry, delta_safe
from repro.store.tx import apply_ops

TC = "rules { T(x, y) :- E(x, y). T(x, z) :- E(x, y), T(y, z). } answer T"
NEGATED = "rules { P(x) :- S(x), not T(x). T(x) :- E(x, x). } answer P"
BK_PRODUCT = "bk { A({x, y}) :- R(x), S(y). } answer A"

COL_DRIVERS = ("col-stratified", "col-inflationary", "col-naive")
BK_DRIVERS = ("bk-hashjoin", "bk-naive")


def graph_db(edges, nodes=()):
    schema = Schema({"E": parse_type("[U, U]"), "S": parse_type("U")})
    return Database(schema, {"E": set(edges), "S": set(nodes)})


def program_of(text, database):
    return Session(database).plan(text).query.program


def decode(database, asserts=None, retracts=None):
    schema = database.schema
    return tuple(
        {
            name: rows_from_json(rows, schema.rtype(name), name)
            for name, rows in (batch or {}).items()
        }
        for batch in (asserts, retracts)
    )


class TestDeltaSafety:
    def test_monotone_program_is_safe(self):
        database = graph_db([("a", "b")])
        assert delta_safe(program_of(TC, database))

    def test_negation_is_unsafe(self):
        database = graph_db([("a", "b")], nodes=["a"])
        assert not delta_safe(program_of(NEGATED, database))


class TestColDifferential:
    def test_incremental_equals_recompute_on_every_driver(self):
        """Random insert stream: after every commit the view's answer is
        byte-identical to a cold run on each COL driver."""
        rng = random.Random(7)
        nodes = "abcdefg"
        database = graph_db([("a", "b")])
        view = ColView(program_of(TC, database), database)
        for _ in range(12):
            edge = [rng.choice(nodes), rng.choice(nodes)]
            asserts, retracts = decode(database, {"E": [edge]})
            database, delta = apply_ops(database, asserts, retracts)
            if delta.empty():
                continue
            rounds = view.insert(database, delta)
            assert rounds >= 1
            incremental = repr(view.answer())
            for backend in COL_DRIVERS:
                cold = Session(database)
                result, report = cold.run(TC, backend=backend)
                assert report.backend == backend
                assert repr(result) == incremental, backend

    def test_view_database_tracks_commits(self):
        database = graph_db([("a", "b")])
        view = ColView(program_of(TC, database), database)
        asserts, _ = decode(database, {"E": [["b", "c"]]})
        new_database, delta = apply_ops(database, asserts, None)
        view.insert(new_database, delta)
        assert view.database == new_database


class TestBKDifferential:
    def test_incremental_equals_recompute_on_every_driver(self):
        schema = Schema({"R": parse_type("U"), "S": parse_type("U")})
        database = Database(schema, {"R": {"a"}, "S": {"x"}})
        view = BKView(program_of(BK_PRODUCT, database), database)
        rng = random.Random(11)
        for _ in range(8):
            pred = rng.choice(["R", "S"])
            label = rng.choice("abcxyz")
            asserts, retracts = decode(database, {pred: [label]})
            database, delta = apply_ops(database, asserts, retracts)
            if delta.empty():
                continue
            view.insert(database, delta)
            incremental = repr(view.answer())
            for backend in BK_DRIVERS:
                cold = Session(database)
                result, report = cold.run(BK_PRODUCT, backend=backend)
                assert report.backend == backend
                assert repr(result) == incremental, backend


class TestViewRegistry:
    def _registered(self):
        database = graph_db([("a", "b"), ("b", "c")], nodes=["a"])
        view = ColView(program_of(TC, database), database)
        registry = ViewRegistry()
        registry.register("tc", view)
        return database, view, registry

    def test_lookup_requires_currency(self):
        database, view, registry = self._registered()
        assert registry.lookup("tc", database) is view
        other = graph_db([("z", "z")])
        assert registry.lookup("tc", other) is None
        assert registry.answer("tc", database) == view.answer()
        assert registry.answer("tc", other) is None

    def test_insert_delta_refreshes(self):
        database, view, registry = self._registered()
        asserts, _ = decode(database, {"E": [["c", "d"]]})
        new_database, delta = apply_ops(database, asserts, None)
        stats = registry.apply_delta(new_database, delta)
        assert stats["refreshed"] == 1 and stats["dropped"] == 0
        assert stats["incremental_rounds"] >= 1
        assert registry.lookup("tc", new_database) is view

    def test_retraction_in_footprint_drops(self):
        database, view, registry = self._registered()
        _, retracts = decode(database, None, {"E": [["a", "b"]]})
        new_database, delta = apply_ops(database, None, retracts)
        stats = registry.apply_delta(new_database, delta)
        assert stats["dropped"] == 1 and stats["refreshed"] == 0
        assert registry.lookup("tc", new_database) is None
        # Recompute after the drop is correct: no a-paths survive.
        result, _ = Session(new_database).run(TC, backend="col-stratified")
        assert "Atom('a')" not in repr(result)

    def test_disjoint_delta_rebases(self):
        database, view, registry = self._registered()
        asserts, _ = decode(database, {"S": ["q"]})
        new_database, delta = apply_ops(database, asserts, None)
        stats = registry.apply_delta(new_database, delta)
        assert stats["rebased"] == 1
        assert stats["refreshed"] == 0 and stats["incremental_rounds"] == 0
        assert registry.lookup("tc", new_database) is view


class TestBudgetedRefresh:
    def test_exhausted_refresh_drops_the_view(self):
        from repro.budget import Budget

        database = graph_db([("a", "b")])
        view = ColView(program_of(TC, database), database)
        # Starve the view's own budget after construction.
        view.budget = Budget(facts=1)
        registry = ViewRegistry()
        registry.register("tc", view)
        asserts, _ = decode(database, {"E": [["b", "c"], ["c", "d"], ["d", "e"]]})
        new_database, delta = apply_ops(database, asserts, None)
        stats = registry.apply_delta(new_database, delta)
        assert stats["dropped"] == 1
        assert registry.lookup("tc", new_database) is None
