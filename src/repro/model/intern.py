"""Hash-consing: one canonical object per distinct value structure.

Two members of **Obj** are equal exactly when they have the same
structure (Section 4), so the value constructors in
:mod:`repro.model.values` always consult :data:`INTERNER` and return the
canonical instance on a hit.  The PERMS-style constructions (Theorem
4.1(b)) and the deep machine-history facts of Theorem 5.1 build the
*same* nested ``SetVal``/``Tup`` structures over and over; with one
object per structure

* equality short-circuits to a pointer comparison (every value class'
  ``__eq__`` starts with ``self is other``),
* hashes and the rest of the cached metadata are computed once per
  distinct structure ever built, and
* memory stays proportional to the number of *distinct* objects.

The table is bounded: past :data:`DEFAULT_MAX_ENTRIES` a new structure
is built without being stored (a *skip*), so two constructions of it
are equal but not identical.  Equality never relies on identity — it
only short-circuits on it — so a value built past the cap is
observationally the same as its canonical twin.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

#: Bound on the number of canonical instances kept alive.  Past the
#: bound new structures are built un-interned (counted as skips) rather
#: than evicting — eviction would break the "one canonical instance"
#: identity guarantee for values still in use.
DEFAULT_MAX_ENTRIES = 1_000_000


@dataclass(frozen=True)
class InternStats:
    """A snapshot of interner effectiveness counters."""

    hits: int
    misses: int
    skips: int
    size: int

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "skips": self.skips,
            "size": self.size,
            "hit_rate": round(self.hit_rate(), 4),
        }


class Interner:
    """A bounded hash-consing table keyed by structural identity.

    Keys are the ``("Atom", label)`` / ``("Tup", items)`` / ... tuples
    the value classes build during construction; entries are the
    canonical instances.  The table is append-only up to ``max_entries``
    (see :data:`DEFAULT_MAX_ENTRIES` for why there is no eviction).

    All operations hold an ``RLock``: the interner is shared by every
    thread, and the counters are read-modify-write.  Two threads may
    still race lookup-miss → construct → store on the same structure;
    ``store`` keeps the first entry (``setdefault``), so at most one
    instance becomes canonical and the loser's value stays
    observationally equivalent (structural equality does not require
    interning, it is only accelerated by it).
    """

    __slots__ = ("_table", "_lock", "max_entries", "hits", "misses", "skips")

    def __init__(self, max_entries: int | None = DEFAULT_MAX_ENTRIES):
        self._table: dict = {}
        self._lock = threading.RLock()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.skips = 0

    def lookup(self, key):
        with self._lock:
            cached = self._table.get(key)
            if cached is not None:
                self.hits += 1
            else:
                self.misses += 1
            return cached

    def store(self, key, value) -> None:
        with self._lock:
            if (
                self.max_entries is not None
                and len(self._table) >= self.max_entries
                and key not in self._table
            ):
                self.skips += 1
                return
            self._table.setdefault(key, value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)

    def stats(self) -> InternStats:
        with self._lock:
            return InternStats(
                hits=self.hits,
                misses=self.misses,
                skips=self.skips,
                size=len(self._table),
            )


#: The process's one interner, consulted by every value constructor.
INTERNER = Interner()
