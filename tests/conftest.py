"""Shared fixtures and helpers for the test suite."""

from contextlib import contextmanager

import pytest

from repro.budget import Budget
from repro.model import Atom, Database, NamedTup, Schema, SetVal, Tup, parse_type
from repro.model.intern import INTERNER


@pytest.fixture
def unlimited():
    """Factory for budgets with no limits (provably terminating runs)."""

    def make() -> Budget:
        return Budget(
            steps=None, objects=None, iterations=None, facts=None, stages=None
        )

    return make


@pytest.fixture
def binary_db():
    """A small binary relation R = {(1,2), (2,3), (3,3)}."""
    schema = Schema({"R": parse_type("[U, U]")})
    return Database(schema, {"R": {(1, 2), (2, 3), (3, 3)}})


@pytest.fixture
def unary_db():
    """A small unary relation R = {1, 2, 3}."""
    schema = Schema({"R": parse_type("U")})
    return Database(schema, {"R": {1, 2, 3}})


def atoms(*labels):
    return [Atom(label) for label in labels]


def pairs(*tuples):
    return SetVal([Tup([Atom(a), Atom(b)]) for a, b in tuples])


@contextmanager
def interner_full():
    """Build values past the interner's cap: inside, the constructors see
    an empty table whose cap is its current size (0), so every
    construction misses and skips and nothing becomes canonical.  The
    real table and cap are back on exit."""
    table, cap = INTERNER._table, INTERNER.max_entries
    INTERNER._table, INTERNER.max_entries = {}, 0
    try:
        yield
    finally:
        INTERNER._table, INTERNER.max_entries = table, cap


def rebuild(value):
    """Rebuild *value* bottom-up through the value constructors."""
    if isinstance(value, Atom):
        return Atom(value.label)
    if isinstance(value, Tup):
        return Tup([rebuild(item) for item in value.items])
    if isinstance(value, SetVal):
        return SetVal([rebuild(item) for item in value.items])
    if isinstance(value, NamedTup):
        return NamedTup({name: rebuild(item) for name, item in value.fields})
    return type(value)()  # ⊥ / ⊤
