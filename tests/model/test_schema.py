"""Unit tests for schemas and database instances."""

import pytest

from repro.errors import SchemaError, TypeCheckError
from repro.model.schema import Database, Schema, adom, instance_of
from repro.model.types import parse_type
from repro.model.values import Atom, SetVal, Tup


class TestSchema:
    def test_names_ordered(self):
        schema = Schema([("B", parse_type("U")), ("A", parse_type("U"))])
        assert schema.names() == ("B", "A")

    def test_distinct_names(self):
        with pytest.raises(SchemaError):
            Schema([("R", parse_type("U")), ("R", parse_type("U"))])

    def test_bad_entries(self):
        with pytest.raises(SchemaError):
            Schema({"": parse_type("U")})
        with pytest.raises(SchemaError):
            Schema({"R": "not a type"})

    def test_rtype_lookup(self):
        schema = Schema({"R": parse_type("[U, U]")})
        assert schema.rtype("R") == parse_type("[U, U]")
        with pytest.raises(SchemaError):
            schema.rtype("missing")

    def test_arity(self):
        schema = Schema({"R": parse_type("[U, U, U]"), "S": parse_type("U")})
        assert schema.arity("R") == 3
        assert schema.arity("S") == 1

    def test_flatness(self):
        assert Schema({"R": parse_type("[U, U]")}).is_flat()
        assert not Schema({"R": parse_type("{U}")}).is_flat()
        assert not Schema({"R": parse_type("Obj")}).is_flat()

    def test_contains_iter_len(self):
        schema = Schema({"R": parse_type("U"), "S": parse_type("U")})
        assert "R" in schema and "T" not in schema
        assert len(schema) == 2
        assert [name for name, _ in schema] == ["R", "S"]


class TestDatabase:
    def test_coercion_from_plain_data(self, binary_db):
        assert Tup([Atom(1), Atom(2)]) in binary_db["R"]

    def test_missing_instance(self):
        schema = Schema({"R": parse_type("U"), "S": parse_type("U")})
        with pytest.raises(SchemaError):
            Database(schema, {"R": {1}})

    def test_extra_instance(self):
        schema = Schema({"R": parse_type("U")})
        with pytest.raises(SchemaError):
            Database(schema, {"R": {1}, "X": {2}})

    def test_type_validation(self):
        schema = Schema({"R": parse_type("[U, U]")})
        with pytest.raises(TypeCheckError):
            Database(schema, {"R": {(1, 2, 3)}})
        with pytest.raises(TypeCheckError):
            Database(schema, {"R": {1}})

    def test_untyped_instance_accepts_mixed(self):
        schema = Schema({"R": parse_type("{Obj}")})
        database = Database(schema, {"R": [SetVal([Atom(1), Tup([Atom(1), Atom(2)])])]})
        assert len(database["R"]) == 1

    def test_adom(self, binary_db):
        assert binary_db.adom() == frozenset({Atom(1), Atom(2), Atom(3)})

    def test_with_instance(self, binary_db):
        updated = binary_db.with_instance("R", {(9, 9)})
        assert updated["R"] == SetVal([Tup([Atom(9), Atom(9)])])
        # Original untouched (immutability).
        assert Tup([Atom(9), Atom(9)]) not in binary_db["R"]

    def test_with_instance_unknown(self, binary_db):
        with pytest.raises(SchemaError):
            binary_db.with_instance("X", {(1, 1)})

    def test_equality_and_hash(self):
        schema = Schema({"R": parse_type("U")})
        a = Database(schema, {"R": {1, 2}})
        b = Database(schema, {"R": {2, 1}})
        assert a == b
        assert hash(a) == hash(b)

    def test_hash_is_computed_once(self, monkeypatch):
        import pickle

        schema = Schema({"R": parse_type("U")})
        database = Database(schema, {"R": {1, 2}})
        first = hash(database)
        calls = []
        monkeypatch.setattr(
            Schema, "__hash__", lambda self: calls.append(self) or 0
        )
        assert hash(database) == first
        assert calls == []
        monkeypatch.undo()
        assert hash(pickle.loads(pickle.dumps(database))) == first

    def test_unknown_predicate_lookup(self, unary_db):
        with pytest.raises(SchemaError):
            unary_db["missing"]


class TestHelpers:
    def test_instance_of(self):
        inst = instance_of([(1, 2), (3, 4)])
        assert len(inst) == 2

    def test_adom_overloads(self, binary_db):
        assert adom(binary_db) == binary_db.adom()
        assert adom(Tup([Atom(1)])) == frozenset({Atom(1)})
        with pytest.raises(SchemaError):
            adom("not a thing")
