"""Query-function classes: C (computable) and E (elementary).

The paper's landscape (Sections 2 and 7) is a chain of classes::

    FO  ⊊  E  =  [tsALG = tsCOL = tsCALC = ALG]          (Thms 2.1/2.2/4.1a)
          ⊊  C  =  [ALG+while = COL^str = COL^inf = tsCALC^ti]   (4.1b/5.1/6.4)
          ⊊  tsCALC^fi  ⊊  tsCALC^ci  =  CALC            (6.1/6.3)

:class:`QueryFunction` wraps any of this library's executable query
artifacts behind one callable interface so the cross-language
equivalence harness (:mod:`repro.core.equivalence`) and the genericity
experiment can treat them uniformly.  :func:`language_chain` returns
the chain above as data for documentation-driven tests.
"""

from __future__ import annotations

from typing import Callable

from ..model.domains import hyp
from ..model.schema import Database
from ..model.genericity import check_domain_preserving, check_generic


class QueryFunction:
    """A named query function ``f: inst(D) -> inst(T) ∪ {?}``.

    Wraps a Python callable; carries the language tag and the constant
    set (for C-genericity checking).
    """

    def __init__(self, name: str, language: str, func: Callable, constants=()):
        self.name = name
        self.language = language
        self.func = func
        self.constants = tuple(constants)

    def __call__(self, database: Database):
        return self.func(database)

    def check_generic(self, databases, **kwargs) -> bool:
        """Empirical C-genericity over the given databases."""
        return check_generic(self.func, databases, self.constants, **kwargs)

    def check_domain_preserving(self, databases) -> bool:
        """Empirical domain preservation over the given databases."""
        return check_domain_preserving(self.func, databases, self.constants)

    def __repr__(self) -> str:
        return f"QueryFunction({self.name!r}, language={self.language!r})"


def language_chain() -> list:
    """The expressiveness chain, outermost last.

    Each entry: ``(class name, member languages, witnessing theorem)``.
    """
    return [
        ("E", ["tsALG", "ALG", "tsCOL", "tsCALC", "complex-object DATALOG"],
         "Theorems 2.1, 2.2, 4.1(a)"),
        ("C", ["ALG+while−powerset", "ALG+unnested-while−powerset",
               "COL^str", "COL^inf", "tsCALC^ti", "GTM", "FAD"],
         "Theorems 4.1(b), 5.1, 6.4, Proposition 3.1"),
        ("beyond-C", ["tsCALC^fi", "tsCALC^ci", "CALC"],
         "Theorems 6.1, 6.3"),
    ]


def elementary_time_bound(level: int, input_size: int, cap: int = 10**9) -> int:
    """``hyp_level(input_size)`` — the class-E resource ceiling."""
    return hyp(level, input_size, cap)

