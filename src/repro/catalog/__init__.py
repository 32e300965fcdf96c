"""`repro.catalog` — the one statistics and cost subsystem.

Before this package, the repository estimated evaluation cost in five
uncoordinated places: the planner recomputed a ``database_profile``
dict on every ``build_plan``; the SIP orderer and BK's tail estimator
each discounted extents by a flat ``>> 2`` per determined position; the
kernel cache and the adaptive probe-vs-rescan decision carried their
own private slack constants.  The catalog centralises all of it:

* :mod:`~repro.catalog.stats` — per-relation :class:`RelStats`: extent
  size, per-position distinct counts and most-common-value counts via
  deterministic integer sketches (the values' construction-time 64-bit
  ``struct_hash``), and depth/atom aggregates from the cached value
  metadata.  Exactly maintainable under inserts *and* retracts.
* :mod:`~repro.catalog.estimator` — the one shared cardinality
  estimator: per-determined-position discounts from *real* distinct
  counts (average index-bucket size) instead of a flat ÷4, plus the
  planner's join-product, domain and saturation arithmetic.
* :mod:`~repro.catalog.policy` — the shared integer policy constants:
  one adaptive-index slack, one material-change rule for kernel
  invalidation and stats staleness, the estimate/cost caps, and the
  admission-priority bucketing the serving layer uses.
* :mod:`~repro.catalog.catalog` — the per-:class:`~repro.model.schema.
  Database` :class:`Catalog`: a memoized profile (no recomputation per
  plan), lazily-built relation statistics migrated *incrementally*
  across committed :class:`~repro.store.tx.FactDelta`\\ s (durable
  databases never cold-rescan), the database's canonical forms and
  restrict views computed once and carried across commits (the memo
  cache's keys).

Layering: at import time the catalog needs only :mod:`repro.model` and
:mod:`repro.obs`, so every other subsystem (engine, deductive, query,
store, serve) can depend on it without cycles; the engine's
canonicaliser is looked up when first used.
"""

from .catalog import Catalog
from .estimator import (
    FuncStats,
    bucket_estimate,
    cap_estimate,
    domain_estimate,
    filter_estimate,
    join_product,
    seed_estimate,
    size_of,
)
from .policy import (
    ADAPTIVE_SLACK,
    COST_CAP,
    EST_CAP,
    material_change,
    priority_hint,
    should_index,
)
from .stats import RelStats

__all__ = [
    "ADAPTIVE_SLACK",
    "COST_CAP",
    "Catalog",
    "EST_CAP",
    "FuncStats",
    "RelStats",
    "bucket_estimate",
    "cap_estimate",
    "domain_estimate",
    "filter_estimate",
    "join_product",
    "material_change",
    "priority_hint",
    "seed_estimate",
    "should_index",
    "size_of",
]
