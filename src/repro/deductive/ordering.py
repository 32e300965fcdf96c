"""Cost-based join ordering for COL rule bodies.

The naive and semi-naive drivers historically evaluated rule bodies in
*textual* order (grouped generators → equalities → negations, see
:func:`repro.deductive.col._literal_order`).  For skewed extents that
order is pessimal: joining a wide literal before a narrow one
materialises the cross product the narrow literal would have pruned.

:func:`choose_order` is a greedy sideways-information-passing (SIP)
orderer.  It schedules a rule's positive generators by estimated
output cardinality — extent size discounted by the tuple positions
already *determined* (constant, or bound by earlier steps) — and
interleaves the filter literals as early as their variables allow:
binding equalities fire the moment their value side is bound, and
negations / comparisons fire the moment all their variables are bound.

Why reordering is sound (the §2.12 safety argument, in short):

* **Generators** are a commutative conjunction — the set of satisfying
  substitutions is order-independent.  Under semi-naive evaluation the
  old/delta/full *mode* of each generator is assigned by its textual
  occurrence index relative to the seed occurrence, **not** by its
  execution position, so the exactly-once derivation property of the
  textbook scheme is preserved under any execution order.
* **Negations and function values** are evaluated against an
  interpretation that is *static for the duration of one rule-body
  evaluation* in every driver (the stratified driver freezes lower
  strata; the inflationary driver evaluates against the round-start
  snapshot and buffers derivations), so a filter may run at any point
  after its variables are bound without changing its outcome.
* **Binding equalities** assign a statically-known variable from
  already-bound ones; the static bound-variable sets computed here
  coincide with the dynamic ones (every substitution in a batch extends
  the same prefix), mirroring the range-restriction closure in
  :meth:`repro.deductive.ast.Rule._check_range_restriction`.

All estimates come from the shared catalog estimator
(:mod:`repro.catalog.estimator`) — deterministic integers (sizes,
per-position distinct counts, divisions — no floats, no randomness),
so the chosen orders — and the EXPLAIN output that renders them — are
stable enough to golden-test byte-exact.
"""

from __future__ import annotations

from ..catalog.estimator import (
    bucket_estimate,
    cap_estimate,
    filter_estimate,
    seed_estimate,
    size_of,
)
from ..catalog.policy import material_change
from .ast import ConstD, EqLit, FuncLit, PredLit, TupD, VarD

__all__ = ["OrderedStep", "choose_order", "material_change"]


class OrderedStep:
    """One scheduled body step of a rule.

    ``kind`` is ``"seed"`` (the semi-naive delta occurrence, always
    first), ``"gen"`` (a positive generator), ``"bind"`` (a binding
    equality), or ``"filter"`` (negation / comparison).  ``mode`` tells
    the semi-naive executor which fact population the step draws from:
    ``"delta"``, ``"old"`` (full minus delta) or ``"full"`` — assigned
    by the generator's *occurrence* index relative to the seed, never
    by its execution position.  ``index`` is the literal's original
    position in the rule body; ``est_in``/``est_out`` are the orderer's
    cardinality estimates rendered by EXPLAIN ANALYZE next to the
    actuals.
    """

    __slots__ = ("literal", "index", "kind", "mode", "est_in", "est_out", "binder")

    def __init__(self, literal, index, kind, mode, est_in, est_out, binder=None):
        self.literal = literal
        self.index = index
        self.kind = kind
        self.mode = mode
        self.est_in = est_in
        self.est_out = est_out
        self.binder = binder

    def label(self, literal=None) -> str:
        """The step as EXPLAIN prints it: *literal* (by default the
        scheduled one — a run passes its own, constants bound) plus the
        step's population marker."""
        marker = {"delta": "Δ", "old": "old"}.get(self.mode)
        suffix = f" [{marker}]" if marker else ""
        return f"{self.literal if literal is None else literal!r}{suffix}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrderedStep({self.kind} {self.label()} est={self.est_out})"


def _per_substitution(literal, bound: set, sizes: dict) -> int:
    """Estimated matching facts per input substitution.

    *sizes* values may be plain extent cardinalities or statistics
    objects (:class:`~repro.catalog.stats.RelStats` /
    :class:`~repro.catalog.estimator.FuncStats`); with statistics,
    determined positions discount by their real distinct counts.
    """
    if isinstance(literal, PredLit):
        stats = sizes.get(("pred", literal.name), 0)
        if not size_of(stats):
            return 0
        term = literal.term
        if isinstance(term, TupD):
            determined = tuple(
                position
                for position, sub in enumerate(term.items)
                if isinstance(sub, ConstD)
                or (isinstance(sub, VarD) and sub.name in bound)
            )
            return bucket_estimate(stats, determined)
        if isinstance(term, ConstD):
            return 1
        if isinstance(term, VarD):
            return 1 if term.name in bound else cap_estimate(size_of(stats))
        return cap_estimate(size_of(stats))
    # FuncLit generator: pairs of the function graph, discounted by the
    # distinct-argument count when the argument is already determined.
    stats = sizes.get(("func", literal.func), 0)
    if not size_of(stats):
        return 0
    if literal.arg.variables() <= bound:
        return bucket_estimate(stats, (None,))
    return cap_estimate(size_of(stats))


def _binder(literal, bound: set):
    """``(name, value_term)`` when *literal* is a binding equality
    under the static bound set, mirroring the dynamic binder check in
    :func:`repro.deductive.col.extend_with_literal`."""
    if not (isinstance(literal, EqLit) and literal.positive):
        return None
    for var_side, val_side in (
        (literal.left, literal.right),
        (literal.right, literal.left),
    ):
        if (
            isinstance(var_side, VarD)
            and var_side.name not in bound
            and val_side.variables() <= bound
        ):
            return var_side.name, val_side
    return None


def choose_order(body, sizes: dict, seed: int | None = None):
    """Schedule *body* greedily; returns ``(steps, order_key)``.

    *sizes* maps ``("pred", name)`` / ``("func", name)`` to current
    extent cardinalities or statistics objects; *seed* (when given) is
    the occurrence index —
    among the positive generators, in body order — that draws from the
    delta and is scheduled first.  ``order_key`` is a compact tuple
    identifying the chosen schedule, used by the kernel cache to decide
    whether a size change actually moved the order.
    """
    generators: list = []
    filters: list = []
    for index, literal in enumerate(body):
        if isinstance(literal, (PredLit, FuncLit)) and literal.positive:
            generators.append((len(generators), index, literal))
        else:
            filters.append((index, literal))

    steps: list = []
    bound: set = set()
    rows = 1
    remaining = list(generators)

    def mode_of(occurrence: int) -> str:
        if seed is None:
            return "full"
        if occurrence == seed:
            return "delta"
        return "old" if occurrence < seed else "full"

    def flush_filters():
        nonlocal rows
        progressed = True
        while progressed:
            progressed = False
            for item in list(filters):
                index, literal = item
                binder = _binder(literal, bound)
                if binder is not None:
                    bound.add(binder[0])
                    steps.append(
                        OrderedStep(literal, index, "bind", "full", rows, rows, binder)
                    )
                    filters.remove(item)
                    progressed = True
                elif literal.variables() <= bound:
                    out = filter_estimate(rows)
                    steps.append(
                        OrderedStep(literal, index, "filter", "full", rows, out)
                    )
                    rows = out
                    filters.remove(item)
                    progressed = True

    if seed is not None:
        occurrence, index, literal = generators[seed]
        est = seed_estimate(_per_substitution(literal, bound, sizes))
        steps.append(OrderedStep(literal, index, "seed", "delta", 1, est))
        rows = est
        bound |= literal.variables()
        remaining.remove(generators[seed])
        flush_filters()
    else:
        flush_filters()

    while remaining:
        occurrence, index, literal = min(
            remaining,
            key=lambda item: (_per_substitution(item[2], bound, sizes), item[0]),
        )
        per = _per_substitution(literal, bound, sizes)
        out = cap_estimate(rows * per)
        steps.append(
            OrderedStep(literal, index, "gen", mode_of(occurrence), rows, out)
        )
        rows = out
        bound |= literal.variables()
        remaining.remove((occurrence, index, literal))
        flush_filters()

    # Stragglers (possible only for rules that would fail at eval time
    # anyway — range restriction binds everything reachable): keep the
    # legacy behaviour of evaluating them last, in body order.
    for index, literal in filters:
        steps.append(OrderedStep(literal, index, "filter", "full", rows, rows))

    order_key = tuple((step.kind, step.index) for step in steps)
    return steps, order_key
