"""Transactions over immutable databases: fact batches and their deltas.

A transaction is a pair of per-predicate fact batches — ``asserts``
(facts to add) and ``retracts`` (facts to remove).  Databases stay
immutable values (:class:`~repro.model.schema.Database`); applying a
transaction builds a *new* database and reports the **effective**
:class:`FactDelta` — the facts that actually changed (asserting a
present fact or retracting an absent one is a no-op, so replaying a
logged delta is exact and idempotent).

The delta is what the rest of the subsystem keys on: the WAL logs it,
and the catalog carries over whatever its predicate footprint leaves
untouched.
"""

from __future__ import annotations

from typing import Mapping

from ..catalog import Catalog
from ..errors import ReproError
from ..model.schema import Database
from ..model.values import SetVal, Value

__all__ = ["FactDelta", "TxError", "apply_ops", "validate_ops"]


class TxError(ReproError):
    """A transaction names unknown predicates or ill-typed facts."""


class FactDelta:
    """The facts one committed transaction actually changed.

    ``asserted`` / ``retracted`` map predicate names to tuples of
    values (canonically ordered, so two equal deltas encode
    identically).  A delta also knows its *footprint* — the predicates
    it touches — which :meth:`repro.catalog.Catalog.migrate` checks
    each relation's statistics and restrict view against.
    """

    __slots__ = ("asserted", "retracted")

    def __init__(
        self,
        asserted: Mapping[str, tuple] | None = None,
        retracted: Mapping[str, tuple] | None = None,
    ):
        self.asserted = {
            name: tuple(facts) for name, facts in (asserted or {}).items() if facts
        }
        self.retracted = {
            name: tuple(facts) for name, facts in (retracted or {}).items() if facts
        }

    def empty(self) -> bool:
        return not self.asserted and not self.retracted

    def predicates(self) -> frozenset:
        return frozenset(self.asserted) | frozenset(self.retracted)

    def counts(self) -> tuple:
        """``(asserted facts, retracted facts)``."""
        return (
            sum(len(facts) for facts in self.asserted.values()),
            sum(len(facts) for facts in self.retracted.values()),
        )

    def __repr__(self) -> str:
        plus, minus = self.counts()
        return f"FactDelta(+{plus}, -{minus}, preds={sorted(self.predicates())})"


def validate_ops(
    database: Database,
    asserts: Mapping[str, list] | None,
    retracts: Mapping[str, list] | None,
) -> None:
    """Typed errors for unknown predicates and ill-typed facts."""
    schema = database.schema
    for label, batches in (("assert", asserts), ("retract", retracts)):
        for name, facts in (batches or {}).items():
            if name not in schema:
                raise TxError(f"{label}: unknown predicate {name!r}")
            rtype = schema.rtype(name)
            for fact in facts:
                if not isinstance(fact, Value) or not rtype.matches(fact):
                    raise TxError(
                        f"{label} {name}: fact {fact!r} is not of type {rtype!r}"
                    )


def apply_ops(
    database: Database,
    asserts: Mapping[str, list] | None = None,
    retracts: Mapping[str, list] | None = None,
) -> tuple:
    """Apply one transaction; returns ``(new database, effective delta)``.

    Retracts are applied after asserts (a fact both asserted and
    retracted in one transaction ends up absent, and the delta records
    whichever side actually changed the instance).  Untouched
    predicates share their instance values with the old database —
    hash-consing keeps the copy cheap.
    """
    validate_ops(database, asserts, retracts)
    new_instances: dict = {}
    asserted: dict = {}
    retracted: dict = {}
    touched = set(asserts or ()) | set(retracts or ())
    for name in touched:
        members = set(database[name].items)
        added = []
        for fact in (asserts or {}).get(name, ()):
            if fact not in members:
                members.add(fact)
                added.append(fact)
        removed = []
        for fact in (retracts or {}).get(name, ()):
            if fact in members:
                members.discard(fact)
                if fact in added:
                    # Asserted and retracted in one transaction: net
                    # no-op against the original instance.
                    added.remove(fact)
                else:
                    removed.append(fact)
        if added:
            asserted[name] = SetVal(added).sorted_members()
        if removed:
            retracted[name] = SetVal(removed).sorted_members()
        new_instances[name] = SetVal(members)
    delta = FactDelta(asserted, retracted)
    if delta.empty():
        return database, delta
    instances = {
        name: new_instances.get(name, database[name])
        for name in database.schema.names()
    }
    new_database = Database(database.schema, instances)
    # Carry the statistics catalog across the commit incrementally
    # (touched relations replay only the delta; untouched ones share
    # their stats), so durable databases never cold-rescan extents.
    Catalog.migrate(database, new_database, delta)
    return new_database, delta
