"""Orderings of objects and the paper's set-theoretic counter sequence.

Two tools recur throughout the constructions of Sections 4-6:

* a way to *enumerate* the atoms of an instance in some order (the GTM
  input listing, the ``ORD`` object of Theorem 4.1(b));
* the **counter sequence** ``a; {a}; {a,{a}}; {a,{a},{a,{a}}}; ...``
  (von-Neumann-style ordinals seeded at an atom ``a``), which the
  algebra's while loop and COL's ``F(a)`` rules use to mint arbitrarily
  many tape/step indices *without inventing atoms* — the "magic power of
  untyped sets" (end of Section 4).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from ..errors import EvaluationError
from .values import Atom, SetVal, Value, canonical_sort


def counter_sequence(seed: Value, length: int) -> list:
    """The first *length* elements of ``a; {a}; {a,{a}}; ...``.

    Element 0 is *seed*; element ``k+1`` is the set of elements
    ``0..k``.  All elements are distinct, and the sequence is strictly
    increasing in the sub-object sense, so it serves as an ordered index
    supply built purely from the seed.

    >>> a = Atom("a")
    >>> [str(v) for v in counter_sequence(a, 3)]
    ['a', '{a}', '{a, {a}}']
    """
    if length < 0:
        raise EvaluationError("length must be non-negative")
    sequence: list = []
    for _ in range(length):
        if not sequence:
            sequence.append(seed)
        else:
            sequence.append(SetVal(sequence))
    return sequence


def counter_next(elements: Iterable[Value]) -> SetVal:
    """The least counter element outside *elements*: the set of them all.

    This is the semantic content of the paper's pseudo-ALG expression
    ``σ₂ν₂σ₁₌₂(P × P) − P`` applied to a unary relation P holding an
    initial segment of the counter sequence.
    """
    return SetVal(elements)


def counter_rank(value: Value, seed: Value) -> int | None:
    """The position of *value* in the counter sequence for *seed*.

    Returns ``None`` if *value* is not an element of the sequence.
    """
    if value == seed:
        return 0
    if not isinstance(value, SetVal):
        return None
    # Element k+1 is exactly {elements 0..k}; recover by size.
    members = list(value.items)
    expected = counter_sequence(seed, len(members))
    if set(expected) == set(members):
        return len(members)
    return None


def enumerate_orderings(
    atoms: Iterable[Atom],
    limit: int | None = None,
) -> Iterator[tuple]:
    """All (or the first *limit*) orderings of the given atoms.

    Orderings are emitted starting from the canonical one.  Used by the
    GTM order-independence checker and the ``faithful`` PERMS mode of the
    Theorem 4.1(b) compiler.
    """
    base = canonical_sort(set(atoms))
    for count, ordering in enumerate(itertools.permutations(base)):
        if limit is not None and count >= limit:
            return
        yield ordering


def order_tuples(rows: Iterable[Value], atom_order: Sequence[Atom]) -> list:
    """Sort *rows* lexicographically according to a given atom ordering.

    Atoms outside *atom_order* (constants) sort after ordered atoms, by
    canonical key; non-atomic coordinates sort last by canonical key.
    This realises the ``IN_ρ`` listings of Theorem 4.1(b).
    """
    position = {atom: index for index, atom in enumerate(atom_order)}

    def coordinate_key(value: Value):
        if isinstance(value, Atom) and value in position:
            return (0, position[value], ())
        return (1, 0, value.canon_key())

    def row_key(row: Value):
        from .values import Tup

        if isinstance(row, Tup):
            return tuple(coordinate_key(item) for item in row.items)
        return (coordinate_key(row),)

    return sorted(rows, key=row_key)
