"""Query shapes: a text with its quoted constants lifted into slots.

A C-generic query's *answer* depends on its constants C, but nothing
the planner computes does: lowering and every cost read the query's
syntax and the database's statistics, never a constant's value.  So a
plan is a function of the text's *shape* — the text with its constants
taken out, plus which of them are equal — and the database.

:func:`lift` scans a text once with the tokenizer's own string and
comment rules and replaces each quoted constant by a placeholder
(``'⟨0⟩'``, ``'⟨1⟩'``, ...).  Equal constants share a placeholder, so
``x = 'a', y = 'a'`` and ``x = 'a', y = 'b'`` are different shapes:
ground equalities fold on that pattern.  Integers and bare names stay
in the shape — integers are also column positions (``project(2)``),
and a bare name in value context is an atom.  A quoted constant equal
to some bare name of the text is therefore not lifted either: the two
are one atom, which a placeholder would split.

The shape text parses with the same grammar (it only sees a string
token), and its placeholders are ordinary atoms whose labels no other
token of the shape can spell; the planner lowers and prices it once,
and each run substitutes the text's constants back
(:mod:`repro.model.substitute`).
"""

from __future__ import annotations

import re

from ..model.values import Atom

__all__ = ["Shape", "lift", "placeholders", "unquote"]

#: The tokenizer's comment and string rules (``parser._TOKEN_RE``): no
#: other token can contain a quote or a ``#``, so splitting on these two
#: meets every string where the tokenizer does.  ``split`` yields
#: ``code, comment, string, code, comment, string, ..., code``.
_SPLIT_RE = re.compile(r"(\#[^\n]*)|('(?:[^'\\]|\\.)*')")
#: The tokenizer's name rule.
_NAME_RE = re.compile(r"[A-Za-z_]\w*", re.ASCII)


def placeholders(count: int) -> tuple:
    """The placeholder atoms of slots ``0 .. count-1``: labels no bare
    name or integer can spell, and no quoted constant survives lifting
    to collide with."""
    return tuple(Atom(f"⟨{index}⟩") for index in range(count))


def unquote(text: str) -> str:
    """The label a quoted-string token spells."""
    return text[1:-1].replace("\\'", "'").replace("\\\\", "\\")


class Shape:
    """A text's shape: ``key`` (the text with placeholders) and
    ``constants`` (the atom each slot stands for, by slot index)."""

    __slots__ = ("key", "constants")

    def __init__(self, key: str, constants: tuple):
        self.key = key
        self.constants = constants

    def __repr__(self) -> str:
        return f"Shape({self.key!r}, {self.constants!r})"


def lift(text: str) -> Shape:
    """The shape of *text*; ``Shape(text, ())`` when it has no
    liftable constant."""
    if "'" not in text:
        return Shape(text, ())
    if "\\" in text or "#" in text or text.count("'") % 2:
        # Escapes or comments: split as the tokenizer would.
        pieces = _SPLIT_RE.split(text)
        code, strings, quoted = pieces[::3], range(2, len(pieces), 3), True
    else:
        # Plain quoting: every other piece between quotes is a label.
        pieces = text.split("'")
        code, strings, quoted = pieces[::2], range(1, len(pieces), 2), False
    code = " ".join(code)
    names = None
    slots: dict = {}
    for index in strings:
        token = pieces[index]
        if token is None:
            continue
        label = unquote(token) if quoted else token
        if label in code:  # a substring test first: names are rare
            if names is None:
                names = set(_NAME_RE.findall(code))
            if label in names:
                continue
        slot = slots.get(label)
        if slot is None:
            slot = slots[label] = len(slots)
        pieces[index] = f"'⟨{slot}⟩'" if quoted else f"⟨{slot}⟩"
    if not slots:
        return Shape(text, ())
    key = "".join(filter(None, pieces)) if quoted else "'".join(pieces)
    return Shape(key, tuple(map(Atom, slots)))
