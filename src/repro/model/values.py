"""The value universe **Obj**: atoms, tuples, and finite sets.

The paper (Section 4) defines **Obj** as the smallest set containing the
universal atomic domain **U** and closed under finite tuple and finite
set formation.  We realise it with three immutable, hashable classes:

* :class:`Atom` — an element of **U**.  Labels are Python ``str`` or
  ``int``; the label space is unbounded, standing in for the countably
  infinite **U**.
* :class:`Tup` — a positional tuple ``[X1, ..., Xn]``, n >= 1.
* :class:`SetVal` — a finite set ``{X1, ..., Xn}``, n >= 0.

Two extensions used *only* by the Bancilhon–Khoshafian calculus
(:mod:`repro.deductive.bk`) also live here so that one canonical ordering
covers every value the library manipulates:

* :class:`Bottom` / :class:`Top` — BK's least and greatest objects;
* :class:`NamedTup` — BK's named-attribute tuples ``[A: x, B: y]``.

All values are deeply immutable and hashable, so they can be members of
Python sets/dicts, and a **canonical total order** (:func:`canon_key`)
makes enumeration deterministic.  The order is: Bottom < atoms <
positional tuples < named tuples < sets < Top, with lexicographic
comparison inside each kind.

**Structural metadata** is computed once at construction and cached on
every value.  Children are already built when a parent's ``__new__``
runs, so each node pays O(children) exactly once and every later read
is O(1):

* ``_canon`` — the canonical-order key (:meth:`Value.canon_key`);
* ``struct_hash`` — a 64-bit structural hash, order-independent over
  set members, used by the engines as a cheap join/prefilter key
  (equal values always share it; a collision only means a prefilter
  admits a candidate that full comparison then rejects);
* ``depth`` — the set-nesting height (:func:`set_height`);
* ``size`` — the constructor-node count (:func:`value_size`);
* ``atoms`` — the active atomic domain as a frozenset (:func:`adom`);
* ``has_top`` — whether ⊤ occurs anywhere inside (BK's dominance
  prefilters are only monotone on ⊤-free values).

:class:`SetVal` additionally stores its members pre-sorted in canonical
order, so ``__iter__``, ``canon_key``, ``__repr__`` and ``__str__``
never re-sort.

**Interning** (:mod:`repro.model.intern`): construction runs through
``__new__``, which consults the module interner and returns the
canonical instance on a hit, so structurally equal values are the
*same* Python object.  That turns the deep equality used by every
fixpoint and set-membership check into a pointer comparison (every
``__eq__`` below starts with an ``is`` fast path).  A hit also returns
*before* any metadata computation — the cached instance already
carries it — so the one-time metadata cost is paid once per distinct
structure.  Past the interner's cap a new structure is built without
being stored; such a value compares equal and hashes identically to
its canonical twin, it is only not the same object.  ⊥ and ⊤ are
singletons.
"""

from __future__ import annotations

from operator import attrgetter as _attrgetter
from typing import Iterable, Iterator, Union

from ..errors import TypeCheckError
from .intern import INTERNER

AtomLabel = Union[str, int]

# Kind ranks for the canonical order.
_RANK_BOTTOM = 0
_RANK_ATOM = 1
_RANK_TUP = 2
_RANK_NAMED = 3
_RANK_SET = 4
_RANK_TOP = 5

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_EMPTY_ATOMS: frozenset = frozenset()

# Assigned by object.__setattr__ throughout (instances are immutable).
_set = object.__setattr__

# Sort key for the construction-time member sort (C-level attribute
# access beats a lambda on the constructor hot path).
_canon_of = _attrgetter("_canon")

# The interner's two construction-time entry points, bound once.
_lookup = INTERNER.lookup
_store = INTERNER.store


def _mix64(*parts: int) -> int:
    """FNV-1a-style 64-bit mixing of integer parts."""
    h = _FNV_OFFSET
    for part in parts:
        h ^= part & _MASK64
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _union_atoms(children: Iterable["Value"]) -> frozenset:
    """Union the cached atom sets of *children*, sharing where possible."""
    non_empty = [child.atoms for child in children if child.atoms]
    if not non_empty:
        return _EMPTY_ATOMS
    if len(non_empty) == 1:
        return non_empty[0]
    return frozenset().union(*non_empty)


class Value:
    """Abstract base for every member of **Obj** (plus BK's ⊥/⊤).

    The shared slots hold the structural metadata each concrete class
    fills in at construction (see the module docstring).
    """

    __slots__ = ("_canon", "struct_hash", "depth", "size", "atoms", "has_top")

    def canon_key(self):
        """The cached key tuple inducing the canonical total order."""
        return self._canon

    def __lt__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self._canon < other._canon

    def __le__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self._canon <= other._canon

    def __gt__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self._canon > other._canon

    def __ge__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self._canon >= other._canon


class Atom(Value):
    """An element of the universal atomic domain **U**.

    >>> Atom("alice") == Atom("alice")
    True
    >>> Atom(1) < Atom("a")     # ints sort before strings
    True
    """

    __slots__ = ("label",)

    def __new__(cls, label: AtomLabel):
        if not isinstance(label, (str, int)) or isinstance(label, bool):
            raise TypeCheckError(
                f"atom labels must be str or int, got {type(label).__name__}"
            )
        # bool is excluded above, so (type, label) keys cannot collide.
        key = ("Atom", label)
        cached = _lookup(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        _set(self, "label", label)
        if isinstance(label, int):
            _set(self, "_canon", (_RANK_ATOM, 0, label, ""))
        else:
            _set(self, "_canon", (_RANK_ATOM, 1, 0, label))
        _set(self, "struct_hash", _mix64(_RANK_ATOM, hash(label)))
        _set(self, "depth", 0)
        _set(self, "size", 1)
        _set(self, "atoms", frozenset((self,)))
        _set(self, "has_top", False)
        _store(key, self)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Atom is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Atom) and self.label == other.label

    def __hash__(self) -> int:
        # The cached structural hash is the hash: equal values share it.
        return self.struct_hash

    def __reduce__(self):
        return (Atom, (self.label,))

    def __repr__(self) -> str:
        return f"Atom({self.label!r})"

    def __str__(self) -> str:
        return str(self.label)


class Tup(Value):
    """A positional tuple ``[X1, ..., Xn]`` with n >= 1.

    Coordinates are identified by position (the paper keeps BK/FAD's
    named attributes out of the core model; see :class:`NamedTup` for the
    BK variant).
    """

    __slots__ = ("items",)

    def __new__(cls, items: Iterable[Value]):
        items = tuple(items)
        if not items:
            raise TypeCheckError("tuples must have at least one coordinate")
        for item in items:
            if not isinstance(item, Value):
                raise TypeCheckError(
                    f"tuple coordinate must be a Value, got {type(item).__name__}"
                )
        key = ("Tup", items)
        cached = _lookup(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        _set(self, "items", items)
        # One pass over the coordinates fills every metadata slot —
        # constructors sit on the hot path of every driver.
        canon_items = []
        h = ((_FNV_OFFSET ^ _RANK_TUP) * _FNV_PRIME) & _MASK64
        h = ((h ^ len(items)) * _FNV_PRIME) & _MASK64
        depth = 0
        size = 1
        has_top = False
        atom_sets = []
        for item in items:
            canon_items.append(item._canon)
            h = ((h ^ item.struct_hash) * _FNV_PRIME) & _MASK64
            if item.depth > depth:
                depth = item.depth
            size += item.size
            if item.atoms:
                atom_sets.append(item.atoms)
            if item.has_top:
                has_top = True
        _set(self, "_canon", (_RANK_TUP, len(items), tuple(canon_items)))
        _set(self, "struct_hash", h)
        _set(self, "depth", depth)
        _set(self, "size", size)
        if len(atom_sets) == 1:
            _set(self, "atoms", atom_sets[0])
        elif atom_sets:
            _set(self, "atoms", frozenset().union(*atom_sets))
        else:
            _set(self, "atoms", _EMPTY_ATOMS)
        _set(self, "has_top", has_top)
        _store(key, self)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Tup is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Tup) and self.items == other.items

    def __hash__(self) -> int:
        # The cached structural hash is the hash: equal values share it.
        return self.struct_hash

    def __reduce__(self):
        return (Tup, (self.items,))

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Value:
        return self.items[index]

    def __iter__(self) -> Iterator[Value]:
        return iter(self.items)

    def __repr__(self) -> str:
        return f"Tup({list(self.items)!r})"

    def __str__(self) -> str:
        return "[" + ", ".join(str(x) for x in self.items) + "]"


class SetVal(Value):
    """A finite set ``{X1, ..., Xn}`` of values (possibly heterogeneous).

    This is the construct the whole paper revolves around: nothing here
    requires the members to share a type.  Members are stored both as a
    frozenset (``items``, for O(1) membership) and as a canonically
    sorted tuple (``sorted_members()``), built once at construction.
    """

    __slots__ = ("items", "_sorted")

    def __new__(cls, items: Iterable[Value] = ()):
        items = frozenset(items)
        for item in items:
            if not isinstance(item, Value):
                raise TypeCheckError(
                    f"set member must be a Value, got {type(item).__name__}"
                )
        key = ("SetVal", items)
        cached = _lookup(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        members = tuple(sorted(items, key=_canon_of))
        _set(self, "items", items)
        _set(self, "_sorted", members)
        # One pass over the members fills every metadata slot.  The
        # member mix is sum/xor, so the struct hash stays insensitive
        # to canon-order details.
        canon_items = []
        member_sum = 0
        member_xor = 0
        depth = 0
        size = 1
        has_top = False
        atom_sets = []
        for item in members:
            canon_items.append(item._canon)
            item_hash = item.struct_hash
            member_sum = (member_sum + item_hash) & _MASK64
            member_xor ^= item_hash
            if item.depth > depth:
                depth = item.depth
            size += item.size
            if item.atoms:
                atom_sets.append(item.atoms)
            if item.has_top:
                has_top = True
        _set(self, "_canon", (_RANK_SET, len(members), tuple(canon_items)))
        _set(self, "struct_hash", _mix64(_RANK_SET, len(items), member_sum, member_xor))
        _set(self, "depth", 1 + depth)
        _set(self, "size", size)
        if len(atom_sets) == 1:
            _set(self, "atoms", atom_sets[0])
        elif atom_sets:
            _set(self, "atoms", frozenset().union(*atom_sets))
        else:
            _set(self, "atoms", _EMPTY_ATOMS)
        _set(self, "has_top", has_top)
        _store(key, self)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SetVal is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, SetVal) and self.items == other.items

    def __hash__(self) -> int:
        # The cached structural hash is the hash: equal values share it.
        return self.struct_hash

    def __reduce__(self):
        return (SetVal, (self._sorted,))

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, value: Value) -> bool:
        return value in self.items

    def __iter__(self) -> Iterator[Value]:
        """Iterate members in canonical order (cached, deterministic)."""
        return iter(self._sorted)

    def sorted_members(self) -> tuple:
        """The members as a tuple in canonical order (cached)."""
        return self._sorted

    def __repr__(self) -> str:
        return f"SetVal({list(self._sorted)!r})"

    def __str__(self) -> str:
        return "{" + ", ".join(str(x) for x in self._sorted) + "}"


class Bottom(Value):
    """BK's least object ⊥ (matches anything during BK instantiation)."""

    __slots__ = ()

    def __new__(cls):
        return BOTTOM

    def __setattr__(self, name, value):
        raise AttributeError("Bottom is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Bottom)

    def __hash__(self) -> int:
        # The cached structural hash is the hash: equal values share it.
        return self.struct_hash

    def __reduce__(self):
        return (Bottom, ())

    def __repr__(self) -> str:
        return "BOTTOM"

    def __str__(self) -> str:
        return "⊥"


class Top(Value):
    """BK's greatest object ⊤ (the inconsistent object)."""

    __slots__ = ()

    def __new__(cls):
        return TOP

    def __setattr__(self, name, value):
        raise AttributeError("Top is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Top)

    def __hash__(self) -> int:
        # The cached structural hash is the hash: equal values share it.
        return self.struct_hash

    def __reduce__(self):
        return (Top, ())

    def __repr__(self) -> str:
        return "TOP"

    def __str__(self) -> str:
        return "⊤"


def _extreme(cls, rank: int, has_top: bool) -> Value:
    """Build the one instance of ⊥ or ⊤."""
    self = object.__new__(cls)
    _set(self, "_canon", (rank,))
    _set(self, "struct_hash", _mix64(rank))
    _set(self, "depth", 0)
    _set(self, "size", 1)
    _set(self, "atoms", _EMPTY_ATOMS)
    _set(self, "has_top", has_top)
    return self


#: The singletons: ``Bottom()`` and ``Top()`` (and unpickling) return these.
BOTTOM = _extreme(Bottom, _RANK_BOTTOM, False)
TOP = _extreme(Top, _RANK_TOP, True)


class NamedTup(Value):
    """A named-attribute tuple ``[A: x, B: y]`` as used by BK.

    Attribute names are strings; the attribute *set* is part of the
    value's identity (BK's sub-object order compares tuples with
    different attribute sets).
    """

    __slots__ = ("fields",)

    def __new__(cls, fields: dict):
        frozen = tuple(sorted(fields.items()))
        for name, item in frozen:
            if not isinstance(name, str):
                raise TypeCheckError("attribute names must be strings")
            if not isinstance(item, Value):
                raise TypeCheckError(
                    f"attribute value must be a Value, got {type(item).__name__}"
                )
        key = ("NamedTup", frozen)
        cached = _lookup(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        _set(self, "fields", frozen)
        _set(
            self,
            "_canon",
            (
                _RANK_NAMED,
                len(frozen),
                tuple((name, item._canon) for name, item in frozen),
            ),
        )
        parts = []
        for name, item in frozen:
            parts.append(hash(name))
            parts.append(item.struct_hash)
        _set(self, "struct_hash", _mix64(_RANK_NAMED, len(frozen), *parts))
        _set(
            self,
            "depth",
            max((item.depth for _, item in frozen), default=0),
        )
        _set(self, "size", 1 + sum(item.size for _, item in frozen))
        _set(self, "atoms", _union_atoms(item for _, item in frozen))
        _set(self, "has_top", any(item.has_top for _, item in frozen))
        _store(key, self)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("NamedTup is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, NamedTup) and self.fields == other.fields

    def __hash__(self) -> int:
        # The cached structural hash is the hash: equal values share it.
        return self.struct_hash

    def __reduce__(self):
        return (NamedTup, (dict(self.fields),))

    def attributes(self) -> tuple:
        """The sorted attribute names."""
        return tuple(name for name, _ in self.fields)

    def get(self, name: str) -> Value | None:
        """The value of attribute *name*, or ``None`` if absent."""
        for field_name, value in self.fields:
            if field_name == name:
                return value
        return None

    def as_dict(self) -> dict:
        return dict(self.fields)

    def __repr__(self) -> str:
        return f"NamedTup({dict(self.fields)!r})"

    def __str__(self) -> str:
        inner = ", ".join(f"{name}: {value}" for name, value in self.fields)
        return f"[{inner}]"


def obj(value) -> Value:
    """Coerce a plain Python value into a member of **Obj**.

    * ``str`` / ``int`` -> :class:`Atom`
    * ``tuple`` / ``list`` -> :class:`Tup` (recursively)
    * ``set`` / ``frozenset`` -> :class:`SetVal` (recursively)
    * ``dict`` -> :class:`NamedTup` (recursively; BK only)
    * a :class:`Value` is returned unchanged.

    >>> obj({("a", 1), ("b", 2)}) == SetVal(
    ...     [Tup([Atom("a"), Atom(1)]), Tup([Atom("b"), Atom(2)])])
    True
    """
    if isinstance(value, Value):
        return value
    if isinstance(value, bool):
        raise TypeCheckError("booleans are not objects; use atoms")
    if isinstance(value, (str, int)):
        return Atom(value)
    if isinstance(value, (tuple, list)):
        return Tup([obj(x) for x in value])
    if isinstance(value, (set, frozenset)):
        return SetVal([obj(x) for x in value])
    if isinstance(value, dict):
        return NamedTup({name: obj(x) for name, x in value.items()})
    raise TypeCheckError(f"cannot coerce {type(value).__name__} into an object")


def canon_key(value: Value):
    """Module-level alias for ``value.canon_key()`` (usable as sort key)."""
    return value._canon


def canonical_sort(values: Iterable[Value]) -> list:
    """Sort *values* into the canonical total order."""
    return sorted(values, key=canon_key)


def _require_value(value) -> Value:
    if not isinstance(value, Value):
        raise TypeCheckError(f"not an object: {value!r}")
    return value


def adom(value: Value) -> frozenset:
    """The atomic (active) domain of an object: the atoms used to build it.

    ⊥ and ⊤ contribute no atoms.  O(1): the set is cached at
    construction (``value.atoms``).
    """
    return _require_value(value).atoms


def set_height(value: Value) -> int:
    """The nesting height of *set* constructors in the object.

    Atoms and ⊥/⊤ have height 0; a tuple has the max height of its
    coordinates; a set has 1 + the max height of its members (1 for the
    empty set).  This is the quantity that drives the hyper-exponential
    hierarchy of Section 2.  O(1): cached at construction
    (``value.depth``).
    """
    return _require_value(value).depth


def value_size(value: Value) -> int:
    """The number of constructor nodes in the object (a length measure).

    O(1): cached at construction (``value.size``).
    """
    return _require_value(value).size


def contains_any(value: Value, atoms: frozenset | set) -> bool:
    """Does the object mention any atom from *atoms*?

    Used by the invention semantics of Section 6 to delete output objects
    containing invented values.  A single cached-frozenset disjointness
    test instead of a traversal.
    """
    return not _require_value(value).atoms.isdisjoint(atoms)
