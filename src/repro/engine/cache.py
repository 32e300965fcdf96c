"""Memoization for generic queries, plus a generic bounded LRU.

:class:`MemoCache` memoizes query evaluation, **exact first**.  Every
entry is keyed on ``((fingerprint, extra_key, constants), key
database)`` and stores the answer in the querying database's own atoms:

* **Exact hits.**  Since values are interned, equal instances are one
  object, so hashing the key database (cached on the database) and
  comparing it with a stored one costs O(#predicates).  An exact hit
  returns the stored answer as it is — no canonical form, no renaming.
* **Isomorphic hits.**  A query that is C-generic commutes with every
  atom permutation fixing its constants C, so *permuted-isomorphic*
  databases may share an answer.  Only an exact miss whose *family*
  ``(fingerprint, extra_key, constants)`` already holds an entry can
  meet such an isomorph, so only then is a canonical form
  (:mod:`repro.engine.canon`, read through the database's
  :class:`~repro.catalog.Catalog`) computed: for the probe, and lazily
  for each stored entry of the family, at most once per entry.  On a
  match the stored answer is renamed into canonical atoms and back out
  through the probe's inverse renaming — by C-genericity that **is**
  the probe's answer — and stored under the probe's exact key.
* **Misses** with no family entry canonicalise nothing: a database met
  once never pays for a key it cannot reuse.

Soundness needs nothing beyond genericity: an exact key means the same
data, and a canonical match certifies a C-fixing permutation between
the two key databases.

Requirements on a cached query (checked by the caller, not the cache):

* **C-generic** for the declared constants, and
* **domain preserving** wrt those constants (output atoms come from the
  key database or C), so a renamed answer renames back completely.

Queries that *invent* atoms (the Section 6 invention semantics) are
neither, so callers must pass ``generic=False`` — the cache then counts
a bypass and evaluates directly.  ``?`` results are cached too:
divergence is also permutation-invariant.

:class:`LRUCache` is the unexciting sibling: a bounded exact-key
mapping used for operator-level memoization (the algebra's ``Powerset``)
and anywhere else a plain bounded dict is wanted.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

from ..catalog.catalog import Catalog
from ..errors import is_undefined
from ..model.schema import Database
from ..model.values import Atom, Value
from .canon import canonicalise_database

#: ``canonicalise_database`` is re-exported: the catalog calls it
#: through this module (see :meth:`repro.catalog.Catalog.canonical`).
__all__ = [
    "CacheStats",
    "LRUCache",
    "MemoCache",
    "canonicalise_database",
    "program_fingerprint",
]


@dataclass
class CacheStats:
    """Hit/miss/bypass/eviction counters (mutable, cheap to snapshot)."""

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate(), 4),
        }


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Thread-safe: every operation holds an ``RLock``, so lookups,
    insert-then-evict (previously a check-then-act race: two concurrent
    ``put`` calls could both observe the cache one-under-capacity and
    overshoot, or race ``popitem`` against an empty dict), and the
    hit/miss/eviction counters are all atomic under concurrency.
    """

    __slots__ = ("_entries", "_lock", "max_entries", "stats")

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        self.max_entries = max_entries
        self.stats = CacheStats()

    def get(self, key, default=None):
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def items(self) -> list:
        """A snapshot of the ``(key, value)`` pairs, least recently
        used first.  Reading it touches neither the order nor the
        hit/miss counters."""
        with self._lock:
            return list(self._entries.items())

    def pop(self, key, default=None):
        """Remove and return *key*'s value without touching hit/miss
        counters (an administrative removal, not a lookup)."""
        with self._lock:
            return self._entries.pop(key, default)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


def program_fingerprint(program) -> str:
    """A stable fingerprint of a program's full syntax.

    Uses the program's ``fingerprint_payload()`` when it defines one
    (``GTM`` does — its ``repr`` is only a summary), else its ``repr``;
    the program classes with structural reprs (``ColProgram``, algebra
    ``Program``) need nothing extra.  The concrete class name is mixed
    in, so two programs with the same rules but different classes
    (e.g. a ``DatalogProgram`` and a hand-built ``ColProgram``)
    fingerprint differently — deliberately conservative.
    """
    body = (
        program.fingerprint_payload()
        if hasattr(program, "fingerprint_payload")
        else repr(program)
    )
    payload = f"{type(program).__module__}.{type(program).__qualname__}\n{body}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Marks a missing entry (``None`` and ``?`` are storable answers).
_MISSING = object()


def _canonical_form(database: Database, constants: frozenset) -> tuple:
    """``(canonical database, renaming, inverse renaming)`` of
    *database* under C-genericity, memoized on its catalog."""
    return Catalog.for_database(database).canonical(constants)


class MemoCache:
    """Exact-first, genericity-aware memoization of ``fn(database)``.

    Entries are LRU-bounded and hold answers in the querying
    database's atoms (see the module docstring).  Beside the entries,
    a per-family index maps each family to its stored key databases
    and, once computed, their canonical forms; eviction removes a key
    from both, so the index never names an evicted entry and its sizes
    sum to ``len(self)``.

    Lookup and store hold an ``RLock`` (the serving layer shares one
    instance across worker threads); evaluation and canonicalisation
    run unlocked, so a slow miss never blocks other requests.
    """

    def __init__(self, max_entries: int = 256):
        self._entries: OrderedDict = OrderedDict()
        #: family -> {key database: canonical form, or ``None`` until
        #: an isomorph probe first needs it}.
        self._families: dict = {}
        self._lock = threading.RLock()
        self.max_entries = max_entries
        self.stats = CacheStats()

    def run(
        self,
        fn: Callable[[Database], object],
        program,
        database: Database,
        *,
        constants: Iterable[Atom] = (),
        generic: bool = True,
        extra_key=(),
        key_database: Database | None = None,
        fingerprint: str | None = None,
    ):
        """Evaluate ``fn(database)``, consulting the cache when allowed.

        *program* supplies the fingerprint; *constants* the set C the
        query is generic with respect to; *extra_key* distinguishes
        evaluation modes of one program (e.g. ``"stratified"`` vs
        ``"inflationary"``).  With ``generic=False`` the call bypasses
        the cache entirely (counted in :attr:`stats`).

        *key_database* (when given) keys the entry **instead of**
        *database* — the session passes the database restricted to the
        query's predicate footprint when the chosen backend provably
        reads nothing else, so entries survive updates to unrelated
        predicates.  ``fn`` still receives the full *database*.
        Nothing is ever invalidated: an entry's key is the data it was
        computed from, so a committed delta that changes that data makes
        it unreachable, not wrong, and a database state that recurs hits
        it again.  Entries leave only by LRU eviction.  *fingerprint*,
        when given, is the caller's already computed
        ``program_fingerprint(program)``.
        """
        if not generic:
            with self._lock:
                self.stats.bypasses += 1
            return fn(database)
        key_database = database if key_database is None else key_database
        if fingerprint is None:
            fingerprint = program_fingerprint(program)
        constants = frozenset(constants)
        family = (fingerprint, extra_key, constants)
        key = (family, key_database)
        with self._lock:
            result = self._entries.get(key, _MISSING)
            if result is not _MISSING:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return result
            members = self._families.get(family)
            stored = list(members.items()) if members else None
        form = None
        if stored:
            form = _canonical_form(key_database, constants)
            result = self._isomorphic_answer(key, form, stored)
            if result is not _MISSING:
                return result
        with self._lock:
            self.stats.misses += 1
        # Evaluate outside the lock: concurrent misses on the same key
        # duplicate work but never block each other, and the duplicate
        # store is idempotent (both threads store the same answer).
        result = fn(database)
        if is_undefined(result) or isinstance(result, Value):
            self._store(key, result, form)
        return result

    def _isomorphic_answer(self, key, form, stored: list):
        """The answer of a stored entry whose key database is
        isomorphic to the probe's (canonical form *form*), renamed into
        the probe's atoms and stored under *key*; ``_MISSING`` if the
        family holds no such entry.

        Stored forms already known are compared first; the others are
        computed one at a time, recorded in the family index, and the
        scan stops at the first match.
        """
        family, _ = key
        for stored_db, stored_form in sorted(stored, key=lambda item: item[1] is None):
            if stored_form is None:
                stored_form = _canonical_form(stored_db, family[2])
                with self._lock:
                    members = self._families.get(family)
                    if members is not None and stored_db in members:
                        members[stored_db] = stored_form
            if stored_form[0] != form[0]:
                continue
            with self._lock:
                answer = self._entries.get((family, stored_db), _MISSING)
                if answer is _MISSING:  # evicted since the snapshot
                    continue
                self._entries.move_to_end((family, stored_db))
                self.stats.hits += 1
            if not is_undefined(answer) and isinstance(answer, Value):
                answer = form[2](stored_form[1](answer))
            self._store(key, answer, form)
            return answer
        return _MISSING

    def _store(self, key, result, form) -> None:
        """Insert *key* (with its canonical *form*, when known) and
        evict least-recently-used entries beyond the bound, keeping
        the family index in step."""
        family, key_database = key
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            members = self._families.setdefault(family, {})
            if form is not None or key_database not in members:
                members[key_database] = form
            while len(self._entries) > self.max_entries:
                (old_family, old_database), _ = self._entries.popitem(last=False)
                members = self._families[old_family]
                del members[old_database]
                if not members:
                    del self._families[old_family]
                self.stats.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._families.clear()
