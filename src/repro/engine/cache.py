"""Memoization for generic queries, plus a generic bounded LRU.

:class:`MemoCache` memoizes query evaluation keyed by ``(program
fingerprint, canonicalised database)``.  Canonicalisation
(:mod:`repro.engine.canon`) renames movable atoms to a fixed canonical
alphabet, so *permuted-isomorphic* inputs share one entry: by
C-genericity the cached canonical answer, renamed back through the
querying database's own renaming, **is** the query's answer.  This is
the cache the paper's semantics licences — genericity is exactly the
statement that a query cannot distinguish such inputs.

Databases are immutable, so a database's canonical form is a fact
about the database: the cache reads it (with the renaming and its
inverse) from the database's :class:`~repro.catalog.Catalog`, which
computes it once per constant set.  A warm hit therefore costs a
catalog lookup, a dict probe and one inverse renaming of the answer —
no colour refinement.  The key still embeds the full canonical
database, so a hit still certifies a C-fixing permutation.

Requirements on a cached query (checked by the caller, not the cache):

* **C-generic** for the declared constants, and
* **domain preserving** wrt those constants (output atoms come from the
  input or C), so the stored canonical answer renames back completely.

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
        """A snapshot of ``(key, value)`` pairs in LRU order (oldest
        first) — used by the session's plan-migration pass."""
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


class MemoCache:
    """Genericity-aware memoization of ``fn(database)`` calls.

    Entries are LRU-bounded; values are stored in canonical atom space
    and renamed back on every hit (see the module docstring for why
    that is sound).  Lookup and store hold an ``RLock`` (the serving
    layer shares one instance across worker threads); the evaluation
    itself runs unlocked, so a slow miss never blocks other requests.
    """

    def __init__(self, max_entries: int = 256):
        self._entries: OrderedDict = OrderedDict()
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

        *key_database* (when given) is canonicalised **instead of**
        *database* to form the key — the session passes the database
        restricted to the query's predicate footprint when the chosen
        backend provably reads nothing else, so entries survive updates
        to unrelated predicates.  ``fn`` still receives the full
        *database*.  Nothing is ever invalidated: an entry's key embeds
        the (canonical) data it was computed from, so a committed delta
        that changes that data makes it unreachable, not wrong, and a
        database state that recurs hits it again.  Entries leave only
        by LRU eviction.  *fingerprint*, when given, is the caller's
        already computed ``program_fingerprint(program)``.
        """
        if not generic:
            with self._lock:
                self.stats.bypasses += 1
            return fn(database)
        canon_db, renaming, inverse = Catalog.for_database(
            database if key_database is None else key_database
        ).canonical(constants)
        if fingerprint is None:
            fingerprint = program_fingerprint(program)
        key = (fingerprint, extra_key, canon_db)
        sentinel = object()
        with self._lock:
            canonical_result = self._entries.get(key, sentinel)
            if canonical_result is not sentinel:
                self._entries.move_to_end(key)
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        if canonical_result is not sentinel:
            if is_undefined(canonical_result) or not isinstance(
                canonical_result, Value
            ):
                return canonical_result
            return inverse(canonical_result)
        # Evaluate outside the lock: concurrent misses on the same key
        # duplicate work but never block each other, and the duplicate
        # store is idempotent (both threads store the same canonical
        # answer — genericity again).
        result = fn(database)
        if is_undefined(result) or isinstance(result, Value):
            canonical_result = (
                result if is_undefined(result) else renaming(result)
            )
            with self._lock:
                self._entries[key] = canonical_result
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
        return result

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
