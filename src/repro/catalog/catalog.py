"""The per-database catalog: memoized profile, lazy relation stats,
canonical forms and restrict views, and incremental migration.

One :class:`Catalog` exists per live :class:`~repro.model.schema.
Database` object, found via :meth:`Catalog.for_database`.  The registry
is keyed by ``id()`` with a weak reference guarding against id reuse —
databases are immutable values whose first ``__hash__`` walks every
instance, so identity keying is both correct (a database's statistics
never change) and cheaper than value keying.  Entries evict themselves
when their database is collected.

Four jobs:

* :meth:`profile` replaces the old per-``build_plan`` recomputation of
  ``database_profile`` — sizes, total facts, active-domain size and
  max depth come from the values' construction-time cached metadata
  and are computed **once** per database, then served memoized.
* :meth:`rel` builds per-relation :class:`~repro.catalog.stats.
  RelStats` lazily, and :meth:`migrate` carries them across a
  committed :class:`~repro.store.tx.FactDelta` *incrementally* —
  untouched relations share their stats objects with the predecessor
  catalog, touched ones replay only the delta's facts, so durable
  databases never cold-rescan their extents after a commit.
* :meth:`canonical` memoizes the database's canonical form under
  C-genericity (:func:`~repro.engine.canon.canonicalise_database`)
  per constant set, with its renaming and inverse, in a bounded LRU
  (:data:`~repro.catalog.policy.CATALOG_MEMO_ENTRIES`).  The memo
  cache matches permuted isomorphs by it, so no database runs colour
  refinement twice for one constant set.
* :meth:`restrict` memoizes ``Database.restrict`` per predicate set,
  so a footprint-restricted memo key has a stable identity — and with
  it its own catalog and canonical forms.  :meth:`migrate` carries
  every view whose predicates the delta leaves untouched to the new
  catalog, so a rule-block query over ``R`` stays an exact memo hit
  across a commit to ``E``.

Everything a catalog serves is a function of its database alone —
nothing an execution observes is written back — so a plan priced from
it depends only on the query text and the data, never on what ran
earlier.

A catalog never holds its own database strongly: the registry entry
would then pin the database it is meant to outlive.  Both memoized
operations can return their input (a database with no movable atom is
its own canonical form; restricting to every predicate is the
identity), so those results are not stored but re-derived from the
weak reference on each read.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

from ..obs.metrics import flatten, nest
from .policy import CATALOG_MEMO_ENTRIES
from .stats import RelStats

__all__ = ["Catalog"]

#: id(database) -> (weakref to the database, its Catalog).
_REGISTRY: dict = {}
_REGISTRY_LOCK = threading.Lock()


class Catalog:
    """Statistics, profile, canonical forms and restrict views of one
    database."""

    __slots__ = (
        "_database",
        "_rels",
        "_profile",
        "_canonical",
        "_restricts",
        "_lock",
    )

    def __init__(self, database):
        self._database = weakref.ref(database)
        self._rels: dict = {}
        self._profile: dict | None = None
        #: frozenset(constants) -> (canonical database, or ``None`` when
        #: it is the database itself; renaming; inverse renaming).
        self._canonical: OrderedDict = OrderedDict()
        #: frozenset(predicates) -> restricted database (never the
        #: database itself).
        self._restricts: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    # -- registry -------------------------------------------------------

    @classmethod
    def for_database(cls, database) -> "Catalog":
        """The catalog of *database*, created (and registered) lazily."""
        key = id(database)
        with _REGISTRY_LOCK:
            entry = _REGISTRY.get(key)
            if entry is not None and entry[0]() is database:
                return entry[1]
            catalog = cls(database)
            _REGISTRY[key] = (weakref.ref(database, _evict(key)), catalog)
            return catalog

    @classmethod
    def lookup(cls, database) -> "Catalog | None":
        """The already-registered catalog of *database*, if any."""
        with _REGISTRY_LOCK:
            entry = _REGISTRY.get(id(database))
            if entry is not None and entry[0]() is database:
                return entry[1]
            return None

    # -- profile --------------------------------------------------------

    def profile(self) -> dict:
        """The planner's database profile, memoized per database.

        ``sizes``/``total_facts``/``adom``/``max_depth`` are the raw
        instance statistics (cheap: sizes are ``len``, adom and depth
        come from cached value metadata).  The same dict is returned on
        every call; callers must not mutate it.
        """
        profile = self._profile
        if profile is None:
            database = self._require_database()
            sizes = {name: len(database[name].items) for name in database}
            profile = self._profile = {
                "sizes": sizes,
                "total_facts": sum(sizes.values()),
                "adom": len(database.adom()),
                "max_depth": max(
                    (database[name].depth for name in database), default=0
                ),
            }
        return profile

    def _require_database(self):
        database = self._database()
        if database is None:  # pragma: no cover - registry holds a ref
            raise RuntimeError("catalog outlived its database")
        return database

    # -- relation statistics --------------------------------------------

    def rel(self, name: str) -> RelStats:
        """Statistics of relation *name*, built lazily on first use."""
        stats = self._rels.get(name)
        if stats is None:
            database = self._require_database()
            stats = RelStats.from_facts(database[name].items)
            self._rels[name] = stats
        return stats

    def computed(self) -> tuple:
        """Relation names whose statistics are currently materialised."""
        return tuple(sorted(self._rels))

    # -- canonical forms and restrict views -----------------------------

    def canonical(self, constants=()) -> tuple:
        """``(canonical database, renaming, inverse renaming)`` of the
        database under C-genericity for C = *constants*, computed once
        per constant set and served memoized.

        The canonical form and renaming are exactly those of a fresh
        :func:`~repro.engine.canon.canonicalise_database` call — the
        database is immutable, so recomputing can only return the same
        answer.  A miss computes outside the lock; concurrent misses
        duplicate work but store the same (deterministic) entry.
        """
        key = frozenset(constants)
        with self._lock:
            entry = self._canonical.get(key)
            if entry is not None:
                self._canonical.move_to_end(key)
        if entry is None:
            # Looked up on the memo cache's module at call time (the
            # engine imports the catalog, so not at import time); that
            # is also the name the layer ledger in benchmarks/e2e times.
            from ..engine import cache

            database = self._require_database()
            canonical, renaming = cache.canonicalise_database(database, key)
            entry = (
                None if canonical is database else canonical,
                renaming,
                renaming.inverse(),
            )
            with self._lock:
                self._canonical[key] = entry
                _trim(self._canonical)
        canonical, renaming, inverse = entry
        if canonical is None:
            canonical = self._require_database()
        return canonical, renaming, inverse

    def restrict(self, preds):
        """``Database.restrict(preds)``, memoized per predicate set.

        The same view object comes back on every call (and, through
        :meth:`migrate`, after commits that leave *preds* untouched),
        so its catalog's canonical forms are computed once.
        """
        key = frozenset(preds)
        with self._lock:
            view = self._restricts.get(key)
            if view is not None:
                self._restricts.move_to_end(key)
                return view
        database = self._require_database()
        view = database.restrict(key)
        if view is database:
            return view
        with self._lock:
            view = self._restricts.setdefault(key, view)
            _trim(self._restricts)
        return view

    # -- incremental migration ------------------------------------------

    @classmethod
    def migrate(cls, old_database, new_database, delta) -> "Catalog":
        """The catalog of *new_database*, derived from *old_database*'s
        by replaying *delta* — never by rescanning extents.

        Untouched relations share their ``RelStats`` objects with the
        predecessor (stats are only mutated on fresh copies here);
        touched relations replay just the delta's facts.  Relations the
        predecessor never materialised stay lazy.

        Restrict views over predicates disjoint from the delta carry
        over as the *same objects*: the commit shares every untouched
        instance with the new database, so each view still equals
        ``new_database.restrict(preds)``, and its catalog keeps the
        canonical forms already computed.
        """
        catalog = cls.for_database(new_database)
        predecessor = cls.lookup(old_database)
        if predecessor is None or old_database is new_database:
            return catalog
        touched = delta.predicates()
        for name, stats in predecessor._rels.items():
            if name not in touched:
                catalog._rels.setdefault(name, stats)
                continue
            updated = stats.copy()
            for fact in delta.asserted.get(name, ()):
                updated.add(fact)
            for fact in delta.retracted.get(name, ()):
                updated.remove(fact)
            catalog._rels[name] = updated
        with predecessor._lock:
            views = [
                (preds, view)
                for preds, view in predecessor._restricts.items()
                if preds.isdisjoint(touched)
            ]
        with catalog._lock:
            for preds, view in views:
                catalog._restricts.setdefault(preds, view)
            _trim(catalog._restricts)
        return catalog

    # -- observability --------------------------------------------------

    def metrics(self) -> dict:
        """The catalog as flat dotted-key readings — the
        :mod:`repro.obs` schema (``relations.<name>.size``, ...), the
        single shape :meth:`snapshot` and every exporter render from."""
        database = self._require_database()
        relations = {name: self.rel(name).snapshot() for name in database}
        return flatten("", {"relations": relations})

    def snapshot(self) -> dict:
        """A JSON-ready catalog summary for the serve STATS verb —
        :func:`~repro.obs.metrics.nest` applied to :meth:`metrics`."""
        return nest(self.metrics())


def _trim(memo: OrderedDict) -> None:
    """Drop least-recently-used entries beyond the per-database bound."""
    while len(memo) > CATALOG_MEMO_ENTRIES:
        memo.popitem(last=False)


def _evict(key: int):
    """A weakref callback removing the registry entry for *key* (only
    if it still belongs to the dead reference — ids can be reused)."""

    def evict(ref):
        with _REGISTRY_LOCK:
            entry = _REGISTRY.get(key)
            if entry is not None and entry[0] is ref:
                del _REGISTRY[key]

    return evict
