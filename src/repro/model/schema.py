"""Database schemas and instances (paper, Section 2).

A :class:`Schema` is a sequence ``<P1: T1, ..., Pn: Tn>`` of distinct
predicate names with (r)types; a :class:`Database` assigns each ``Pi``
an *instance* of ``Ti`` — a finite set of objects of that type.  We keep
instances as plain :class:`~repro.model.values.SetVal` objects so they
compose with everything else (an instance of ``T`` *is* an object of
``{T}``).

The paper restricts query inputs/outputs to *flat* schemas/types, but
intermediate results range over arbitrary rtypes, so nothing here forces
flatness; :meth:`Schema.is_flat` reports it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..errors import SchemaError, TypeCheckError
from .types import RType
from .values import SetVal, Value, adom as value_adom


class Schema:
    """A database schema: an ordered mapping of predicate names to rtypes.

    >>> from repro.model.types import parse_type
    >>> s = Schema({"R": parse_type("[U, U]")})
    >>> s.arity("R")
    2
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, RType] | Iterable[tuple]):
        if isinstance(entries, Mapping):
            pairs = list(entries.items())
        else:
            pairs = list(entries)
        names = [name for name, _ in pairs]
        if len(set(names)) != len(names):
            raise SchemaError("predicate names must be distinct")
        for name, rtype in pairs:
            if not isinstance(name, str) or not name:
                raise SchemaError(f"bad predicate name {name!r}")
            if not isinstance(rtype, RType):
                raise SchemaError(f"{name}: not an rtype: {rtype!r}")
        object.__setattr__(self, "_entries", tuple(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("Schema is immutable")

    def names(self) -> tuple:
        """Predicate names in declaration order."""
        return tuple(name for name, _ in self._entries)

    def rtype(self, name: str) -> RType:
        """The rtype of predicate *name*."""
        for entry_name, rtype in self._entries:
            if entry_name == name:
                return rtype
        raise SchemaError(f"unknown predicate {name!r}")

    def arity(self, name: str) -> int:
        """Arity of *name* when its rtype is a tuple type; else 1."""
        rtype = self.rtype(name)
        from .types import TupleType

        if isinstance(rtype, TupleType):
            return len(rtype)
        return 1

    def __contains__(self, name: str) -> bool:
        return any(entry_name == name for entry_name, _ in self._entries)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def is_flat(self) -> bool:
        """All predicate rtypes flat (paper: input/output schemas)."""
        return all(rtype.is_flat() for _, rtype in self._entries)

    def __reduce__(self):
        return (Schema, (self._entries,))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}: {rtype!r}" for name, rtype in self._entries)
        return f"<{inner}>"


class Database:
    """An instance of a :class:`Schema`: one finite instance per predicate.

    Construction validates every member against the declared rtype.
    Values may be given as :class:`SetVal`, any iterable of
    :class:`Value`, or plain Python data (coerced via
    :func:`repro.model.values.obj`).
    """

    #: ``__weakref__`` lets the per-database statistics catalog
    #: (:mod:`repro.catalog`) key its registry on database identity and
    #: evict entries when the database is collected.  ``_hash`` caches
    #: :meth:`__hash__`: the database is immutable, and the result memo
    #: hashes its key database on every lookup.
    __slots__ = ("schema", "_instances", "_hash", "__weakref__")

    def __init__(self, schema: Schema, instances: Mapping[str, object]):
        if not isinstance(schema, Schema):
            raise SchemaError("first argument must be a Schema")
        resolved: dict = {}
        for name in schema.names():
            if name not in instances:
                raise SchemaError(f"missing instance for predicate {name!r}")
            resolved[name] = _coerce_instance(instances[name], schema.rtype(name), name)
        extra = set(instances) - set(schema.names())
        if extra:
            raise SchemaError(f"instances for unknown predicates: {sorted(extra)}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "_instances", resolved)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Database is immutable")

    def __getitem__(self, name: str) -> SetVal:
        try:
            return self._instances[name]
        except KeyError:
            raise SchemaError(f"unknown predicate {name!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self.schema.names())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Database)
            and self.schema == other.schema
            and self._instances == other._instances
        )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.schema, tuple(sorted(self._instances.items()))))
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        return (Database, (self.schema, self._instances))

    def adom(self) -> frozenset:
        """The atomic active domain of the whole database.

        A union of the instances' construction-time cached atom sets —
        no value traversal.
        """
        if not self._instances:
            return frozenset()
        return frozenset().union(
            *(value_adom(instance) for instance in self._instances.values())
        )

    def with_instance(self, name: str, value: object) -> "Database":
        """A copy of this database with predicate *name* replaced."""
        updated = dict(self._instances)
        if name not in updated:
            raise SchemaError(f"unknown predicate {name!r}")
        updated[name] = value
        return Database(self.schema, updated)

    def restrict(self, names) -> "Database":
        """The sub-database over the predicates in *names*.

        Instances are shared, not copied.  Unknown names are an error —
        restriction is meant for footprints computed *from* this
        schema.  Restricting to every predicate returns ``self``.
        """
        wanted = frozenset(names)
        unknown = wanted - set(self.schema.names())
        if unknown:
            raise SchemaError(f"cannot restrict to unknown predicates {sorted(unknown)}")
        if wanted == frozenset(self.schema.names()):
            return self
        kept = tuple(name for name in self.schema.names() if name in wanted)
        return Database(
            Schema({name: self.schema.rtype(name) for name in kept}),
            {name: self._instances[name] for name in kept},
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}: {self._instances[name]}" for name in self.schema.names()
        )
        return f"Database({inner})"

    @classmethod
    def from_plain(cls, schema: Schema, **instances) -> "Database":
        """Build a database from plain Python data (sets of tuples etc.)."""
        return cls(schema, instances)


def _coerce_instance(value: object, rtype: RType, name: str) -> SetVal:
    from .values import obj

    if not isinstance(value, SetVal):
        if isinstance(value, Value):
            raise TypeCheckError(
                f"{name}: an instance must be a set of objects, got {value!r}"
            )
        try:
            value = SetVal([obj(member) for member in value])
        except TypeError as exc:
            raise TypeCheckError(f"{name}: cannot coerce instance: {exc}") from exc
    for member in value.items:
        if not rtype.matches(member):
            raise TypeCheckError(
                f"{name}: member {member} is not of type {rtype!r}"
            )
    return value


def instance_of(values: Iterable[object]) -> SetVal:
    """Convenience: build an instance (a :class:`SetVal`) from plain data."""
    from .values import obj

    return SetVal([obj(v) for v in values])


def adom(thing) -> frozenset:
    """Active domain of a value, instance, or database.

    Mirrors the paper's overloaded ``adom`` notation.
    """
    if isinstance(thing, Database):
        return thing.adom()
    if isinstance(thing, Value):
        return value_adom(thing)
    raise SchemaError(f"adom undefined for {type(thing).__name__}")
