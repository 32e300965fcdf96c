"""Shared integer policy constants and decision rules.

Every threshold that used to live as a private constant next to one
consumer is defined here once: the adaptive index-build slack
(previously duplicated as ``ADAPTIVE_JOIN_SLACK`` in
:mod:`repro.deductive.col` and ``_ADAPTIVE_SLACK`` in
:mod:`repro.deductive.kernels`), the material-change rule gating
kernel re-ordering and statistics refresh, the estimate/cost
saturation caps, the admission-priority bucketing, and the bound on
the catalog's per-database memos.

Everything is integer arithmetic on data-derived quantities — no
floats, no randomness, no wall-clock — so every decision these rules
drive is deterministic and golden-testable.
"""

from __future__ import annotations

__all__ = [
    "ADAPTIVE_SLACK",
    "CATALOG_MEMO_ENTRIES",
    "COST_CAP",
    "DELTA_FRACTION",
    "EST_CAP",
    "material_change",
    "priority_hint",
    "should_index",
    "stale_size",
]

#: Absolute slack in the adaptive batch-vs-scan decision: below this
#: much total matching work an index build cannot pay for itself.
ADAPTIVE_SLACK = 16

#: Cardinality estimates saturate here so pathological products cannot
#: overflow into unreadable EXPLAIN output.
EST_CAP = 10**9

#: Planner costs saturate here; keeps the arithmetic overflow-free and
#: the candidate orderings stable.
COST_CAP = 10**12

#: Bound on each per-database memo a catalog keeps (canonical forms,
#: restrict views): least-recently-used entries go first, so a
#: database queried under ever-new constant sets stays bounded.
CATALOG_MEMO_ENTRIES = 64

#: Fallback selectivity divisor when no distinct-count statistics are
#: available for a determined position (the legacy flat discount), and
#: the assumed fraction of an extent a semi-naive delta round carries.
DELTA_FRACTION = 4


def should_index(batch: int, extent: int, scanned: int) -> bool:
    """Adaptive batch-vs-scan decision (replaces the fixed
    ``HASH_JOIN_MIN_SUBSTITUTIONS`` / ``HASH_JOIN_MIN_FACTS`` floors):
    build when the nested work for *this* batch, or the cumulative
    fallback scanning so far, exceeds the build-plus-probe cost."""
    return (
        batch * extent >= 2 * (batch + extent) + ADAPTIVE_SLACK
        or scanned >= 2 * extent + ADAPTIVE_SLACK
    )


def stale_size(old: int, new: int) -> bool:
    """Did one extent move enough to invalidate statistics built over
    it?  More than doubling (or halving) beyond a small absolute slack
    — the same rule :func:`material_change` applies per symbol."""
    return new > 2 * old + 8 or old > 2 * new + 8


def material_change(old_sizes: dict, new_sizes: dict) -> bool:
    """Did the ordering inputs move enough to reconsider a schedule?

    A symbol's extent must more than double (or halve), beyond a small
    absolute slack, before a cached kernel is re-ordered — fixpoint
    rounds that add a trickle of facts keep their compiled kernels.
    Values may be plain sizes or anything with a ``size`` attribute.
    """
    get = old_sizes.get
    for key, new in new_sizes.items():
        old = get(key, 0)
        # Inlined stale_size: this check runs once per rule per
        # fixpoint round, so it avoids per-key function calls (sizes
        # are plain ints on the hot path; stats objects are accepted).
        if type(old) is not int:
            old = old.size
        if type(new) is not int:
            new = new.size
        if new > 2 * old + 8 or old > 2 * new + 8:
            return True
    return False


def priority_hint(cost: int) -> int:
    """The admission-priority class for an estimated plan cost.

    Smaller classes dequeue first, so cheap interactive queries are not
    stuck behind expensive analytical ones admitted moments earlier.
    Buckets are decades of magnitude in bits (cost < 256 -> 0,
    < 65536 -> 1, ...), clamped by the cost cap to at most 5 classes.
    """
    return max(int(cost), 0).bit_length() // 8
