"""Incremental maintenance of materialized COL / BK fixpoints.

A committed ``ASSERT`` delta does not have to throw a materialized
fixpoint away: for the right class of programs, the inserted base
facts can run as **one more semi-naive delta round** through the
engine, continuing the fixpoint instead of recomputing it.

**When is continuation sound?**  Exactly when the program is monotone
in its base facts.  For COL that is :func:`delta_safe`: no *negative*
edge in the stratification dependency graph — which covers both
negated literals and function-*value* terms ``F(t)`` (COL's analogue
of negation, see :mod:`repro.deductive.stratify`).  A delta-safe
program is a single stratum, so its stratified, inflationary, and
naive semantics coincide in the least fixpoint — one materialized
interpretation answers for **all** COL drivers.  BK has no negation at
all (lax matching only *adds* valuations as extents grow), so every BK
program is maintainable.

**Retractions** are not incrementally maintainable this way (deleting
a base fact can strand derived facts, and deletion-rederivation is out
of scope), so the registry *drops* any view whose predicate footprint
intersects a retraction and leaves the rest untouched — the same
footprint test the session layer applies to its plan cache.

Views refresh under their own fresh :class:`~repro.budget.Budget` (a
maintenance pass must not drain the querying session's allowance); a
view whose refresh exhausts it, or whose round loop is cut, is dropped
rather than left half-updated.
"""

from __future__ import annotations

import threading

from ..budget import Budget
from ..deductive.bk import (
    BKProgram,
    bk_obj,
    extend_extent,
    hashjoin_fixpoint,
    instantiate,
    reduce_set,
    seed_extents,
)
from ..deductive.col import Interp
from ..deductive.stratify import dependency_edges
from ..engine.ops import OpStats
from ..engine.seminaive import Delta, seminaive_fixpoint
from ..errors import BudgetExceeded
from ..model.schema import Database
from ..model.values import SetVal
from .tx import FactDelta

__all__ = ["BKView", "ColView", "ViewRegistry", "delta_safe"]


def delta_safe(program) -> bool:
    """Is *program* maintainable by semi-naive continuation?

    True iff its dependency graph has **no negative edge** — no negated
    literal and no function-value term anywhere.  Such a program is one
    monotone stratum: its least fixpoint only grows under base-fact
    insertion, and stratified ≡ inflationary ≡ naive on it.
    """
    return not any(negative for _, _, negative in dependency_edges(program))


class ColView:
    """A materialized COL fixpoint, maintained by delta rounds."""

    kind = "col"

    __slots__ = ("program", "database", "interp", "budget", "rounds")

    def __init__(self, program, database: Database, budget: Budget | None = None):
        self.program = program
        self.database = database
        self.budget = budget or Budget()
        self.rounds = 0
        self.interp = Interp.from_database(database)
        stats = OpStats()
        # Delta-safe => a single monotone stratum: negation_interp is
        # never consulted, and one full semi-naive run materializes the
        # least fixpoint shared by every COL driver.
        seminaive_fixpoint(
            list(program.rules), self.interp, self.budget,
            negation_interp=self.interp, stats=stats,
        )
        self.rounds += stats.rounds

    def predicates(self) -> frozenset:
        """Every predicate the program mentions (its footprint)."""
        from ..deductive.ast import FuncLit, PredLit

        names: set = set()
        for rule in self.program.rules:
            head = rule.head
            if isinstance(head, PredLit):
                names.add(head.name)
            for literal in rule.body:
                if isinstance(literal, PredLit):
                    names.add(literal.name)
                elif isinstance(literal, FuncLit):
                    pass  # functions live in a separate namespace
        names.add(self.program.answer)
        return frozenset(names)

    def insert(self, new_database: Database, delta: FactDelta) -> int:
        """Continue the fixpoint with *delta*'s asserted facts; returns
        the number of delta rounds run."""
        seed = Delta()
        for name, facts in delta.asserted.items():
            for fact in facts:
                if self.interp.add_pred(name, fact):
                    seed.add_pred(name, fact)
        stats = OpStats()
        seminaive_fixpoint(
            list(self.program.rules), self.interp, self.budget,
            negation_interp=self.interp, stats=stats, initial_delta=seed,
        )
        self.database = new_database
        self.rounds += stats.rounds
        return stats.rounds

    def answer(self) -> SetVal:
        return self.interp.instance(self.program.answer)


class BKView:
    """A materialized BK fixpoint (reduced extents), maintained by
    delta rounds."""

    kind = "bk"

    __slots__ = ("program", "database", "extents", "budget", "rounds")

    def __init__(
        self, program: BKProgram, database: Database, budget: Budget | None = None
    ):
        self.program = program
        self.database = database
        self.budget = budget or Budget()
        self.rounds = 0
        self.extents = seed_extents(
            {name: database[name].items for name in database.schema.names()}
        )
        stats = OpStats()
        if not hashjoin_fixpoint(self.program, self.extents, self.budget, stats=stats):
            raise BudgetExceeded("iterations", 0)
        self.rounds += stats.rounds

    def predicates(self) -> frozenset:
        names: set = set()
        for rule in self.program.rules:
            names.add(rule.head.pred)
            for tail in rule.tails:
                names.add(tail.pred)
        names.add(self.program.answer)
        return frozenset(names)

    def insert(self, new_database: Database, delta: FactDelta) -> int:
        seed: dict = {}
        for name, facts in delta.asserted.items():
            for fact in facts:
                extend_extent(
                    self.extents, name, instantiate(bk_obj(fact), {}),
                    self.budget, seed,
                )
        stats = OpStats()
        if not hashjoin_fixpoint(
            self.program, self.extents, self.budget, stats=stats,
            initial_deltas=seed,
        ):
            raise BudgetExceeded("iterations", 0)
        self.database = new_database
        self.rounds += stats.rounds
        return stats.rounds

    def answer(self) -> SetVal:
        extent = self.extents.get(self.program.answer)
        return reduce_set(SetVal(extent.facts if extent is not None else ()))


class ViewRegistry:
    """The session's materialized views, keyed by program fingerprint.

    ``apply_delta`` is the single maintenance entry point: asserted
    facts continue each view's fixpoint; a view intersecting a
    retraction (or whose refresh blows its budget) is dropped.  Views
    whose footprint is disjoint from the whole delta are merely rebased
    onto the new database value — their answers cannot have changed.

    Thread-safe: the serve layer shares one registry per session across
    worker threads, with update requests maintaining views while query
    requests read them.  Every operation — including the combined
    :meth:`answer` lookup — holds one ``RLock``, so a reader never
    observes a view mid-refresh.
    """

    __slots__ = ("_views", "_lock")

    def __init__(self):
        self._views: dict = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    def keys(self) -> tuple:
        with self._lock:
            return tuple(self._views)

    def register(self, key, view) -> None:
        with self._lock:
            self._views[key] = view

    def drop(self, key) -> None:
        with self._lock:
            self._views.pop(key, None)

    def lookup(self, key, database: Database):
        """The view for *key* if it is current for *database*."""
        with self._lock:
            view = self._views.get(key)
            if view is not None and view.database == database:
                return view
            return None

    def answer(self, key, database: Database):
        """The materialized answer for *key* on *database*, or ``None``.

        Lookup and read happen under one lock acquisition, so a
        concurrent ``apply_delta`` cannot refresh the view between the
        currency check and the answer."""
        with self._lock:
            view = self.lookup(key, database)
            return view.answer() if view is not None else None

    def apply_delta(self, new_database: Database, delta: FactDelta) -> dict:
        """Maintain every view across one committed delta."""
        with self._lock:
            refreshed = dropped = rebased = rounds = 0
            touched = delta.predicates()
            retracted = frozenset(delta.retracted)
            for key, view in list(self._views.items()):
                footprint = view.predicates()
                if footprint.isdisjoint(touched):
                    view.database = new_database
                    rebased += 1
                    continue
                if not retracted.isdisjoint(footprint):
                    # Retraction in the footprint: continuation is
                    # unsound, drop rather than rebuild eagerly.
                    self.drop(key)
                    dropped += 1
                    continue
                try:
                    rounds += view.insert(new_database, delta)
                    refreshed += 1
                except BudgetExceeded:
                    self.drop(key)
                    dropped += 1
            return {
                "refreshed": refreshed,
                "dropped": dropped,
                "rebased": rebased,
                "incremental_rounds": rounds,
            }

    def clear(self) -> None:
        with self._lock:
            self._views.clear()
