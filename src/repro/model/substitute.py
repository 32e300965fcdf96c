"""Atom substitution through values and query syntax trees.

A prepared query plan (:mod:`repro.query.shape`) is lowered once with
*placeholder atoms* standing for the text's quoted constants; a run
binds them to the text's own constants.  :func:`substitute` performs
that binding on anything the planner hands a backend: a value, or a
program of one of the syntax-tree modules in :data:`SYNTAX_MODULES`
(algebra, calculus, COL and BK programs, surface queries), walked
through their attributes.  A subtree that mentions no bound atom is
returned as the same object, so a program without placeholders costs
one walk and no copies.

Copies are made with ``object.__new__`` and the attributes set
directly: substitution keeps every variable where it was, so the
constructors' checks (range restriction, typing) would only repeat
what the original passed.
"""

from __future__ import annotations

from .values import Atom, NamedTup, SetVal, Tup, Value

__all__ = ["Binding", "SYNTAX_MODULES", "clean_nodes", "substitute"]

#: Modules whose instances :func:`substitute` walks into; instances of
#: any other class (schemas, types, functions) are returned unchanged.
SYNTAX_MODULES = frozenset(
    {
        "repro.algebra.ast",
        "repro.calculus.ast",
        "repro.deductive.ast",
        "repro.deductive.bk",
        "repro.query.ir",
    }
)

#: class -> its attribute names (``__slots__`` over the MRO), or
#: ``None`` for classes outside :data:`SYNTAX_MODULES`.
_FIELDS: dict = {}


def _fields(cls):
    try:
        return _FIELDS[cls]
    except KeyError:
        pass
    fields = None
    if cls.__module__ in SYNTAX_MODULES:
        fields = []
        for klass in cls.__mro__:
            slots = klass.__dict__.get("__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            fields.extend(name for name in slots if name not in ("__dict__", "__weakref__"))
        fields = tuple(fields)
    _FIELDS[cls] = fields
    return fields


def _value(value: Value, values: dict) -> Value:
    if values.keys().isdisjoint(value.atoms):
        return value
    if isinstance(value, Atom):
        return values.get(value, value)
    if isinstance(value, Tup):
        return Tup([_value(item, values) for item in value.items])
    if isinstance(value, SetVal):
        return SetVal([_value(item, values) for item in value.items])
    if isinstance(value, NamedTup):
        return NamedTup({name: _value(item, values) for name, item in value.fields})
    return value


def substitute(
    obj,
    values: dict,
    replaced: dict | None = None,
    clean: frozenset = frozenset(),
    unchanged: set | None = None,
):
    """*obj* with every atom that is a key of *values* replaced by its
    value.

    When *replaced* is given, it maps ``id(copy)`` to the original of
    every syntax node that had to be copied — the compiled-kernel
    cache uses it to find the prepared rule a bound rule came from.
    *clean* holds the ``id()`` of nodes known to mention no key of
    *values*: they are returned without a walk.  When *unchanged* is
    given, the ``id()`` of every node this call returns as itself is
    added to it — the way a prepared plan computes its *clean* set once
    (:func:`clean_nodes`).
    """
    if not values:
        return obj
    memo: dict = {}

    def walk(node):
        if isinstance(node, Value):
            return _value(node, values)
        kind = type(node)
        if kind in (str, int, float, bool) or node is None:
            return node
        key = id(node)
        if key in clean:
            return node
        if key in memo:
            return memo[key]
        if kind in (tuple, list, set, frozenset):
            items = [walk(item) for item in node]
            changed = any(new is not old for new, old in zip(items, node))
            result = kind(items) if changed else node
        elif kind is dict:
            items = [(walk(k), walk(v)) for k, v in node.items()]
            changed = any(
                nk is not k or nv is not v
                for (nk, nv), (k, v) in zip(items, node.items())
            )
            result = dict(items) if changed else node
        else:
            fields = _fields(kind)
            if fields is None:
                return node
            state = getattr(node, "__dict__", None)
            slotted = [(name, getattr(node, name)) for name in fields if hasattr(node, name)]
            new_slotted = [(name, walk(value)) for name, value in slotted]
            new_state = {name: walk(value) for name, value in state.items()} if state else None
            changed = any(new is not old for (_, new), (_, old) in zip(new_slotted, slotted))
            if new_state is not None:
                changed = changed or any(new_state[name] is not state[name] for name in state)
            if changed:
                result = object.__new__(kind)
                for name, value in new_slotted:
                    object.__setattr__(result, name, value)
                if new_state is not None:
                    result.__dict__.update(new_state)
                if replaced is not None:
                    replaced[id(result)] = node
            else:
                result = node
        memo[key] = result
        if unchanged is not None and result is node:
            unchanged.add(key)
        return result

    return walk(obj)


def clean_nodes(objs, atoms) -> frozenset:
    """The ``id()`` of every syntax node of the objects *objs* that
    mentions none of *atoms*: the *clean* set :func:`substitute` may
    skip when it binds them.  The ids stay valid while *objs* live."""
    unchanged: set = set()
    probe = {atom: Atom(f"{atom.label}\u2032") for atom in atoms}
    for obj in objs:
        substitute(obj, probe, unchanged=unchanged)
    return frozenset(unchanged)


class Binding:
    """What one run of a prepared plan binds.

    *values* maps each placeholder atom of the plan to the run's
    constant; *kernels* is the plan's compiled-kernel cache; *clean*
    is the plan's set of nodes known to hold no placeholder
    (:func:`clean_nodes`), computed once and only read by its runs.
    :meth:`bind` records in :attr:`replaced` which prepared node every
    bound copy came from.
    """

    __slots__ = ("values", "kernels", "clean", "replaced")

    def __init__(self, values: dict, kernels, clean: frozenset):
        self.values = values
        self.kernels = kernels
        self.clean = clean
        self.replaced: dict = {}

    def bind(self, obj):
        return substitute(obj, self.values, self.replaced, self.clean)

    def original(self, obj):
        """The prepared node *obj* was bound from (itself if unbound)."""
        return self.replaced.get(id(obj), obj)
