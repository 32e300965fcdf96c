"""The Bancilhon–Khoshafian calculus (BK) [BK86].

BK's object space is **untyped** with two special objects ⊥ (bottom)
and ⊤ (top), ordered by the *sub-object* relation ≤:

* ``⊥ ≤ o ≤ ⊤`` for every object;
* atoms are comparable only to themselves (and ⊥/⊤);
* named tuples: ``t₁ ≤ t₂`` iff ``attrs(t₁) ⊆ attrs(t₂)`` and
  componentwise ``t₁[A] ≤ t₂[A]`` — a tuple with *more* attributes is
  *more* informative;
* sets (Hoare / lower order): ``S₁ ≤ S₂`` iff every member of S₁ is
  ≤ some member of S₂.

Rules ``H{p} ← T₁{p₁}, ..., Tₙ{pₙ}`` fire for every valuation θ such
that each instantiated tail pattern is a **sub-object of some object**
in the corresponding predicate ("the tails match the database" — by
sub-object, *not* equality, which is the crucial difference from COL).
The new database is the least upper bound of the old one with the
instantiated heads; iteration runs to a fixpoint.

This lax matching is exactly what Example 5.2 exploits: a variable can
always be instantiated to ⊥, so BK's "join" degenerates to a cross
product (Proposition 5.3), and the list-building program of Example 5.4
diverges (Proposition 5.5).  Both are reproduced in the tests and the
E7/E8 experiments.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..budget import Budget
from ..catalog.estimator import bucket_estimate
from ..engine.ops import (
    ATTR_ATOM,
    ATTR_PRESENT,
    ATTR_REST,
    FixpointDriver,
    Scan,
)
from ..errors import BudgetExceeded, EvaluationError, UNDEFINED
from ..model.values import (
    Atom,
    BOTTOM,
    Bottom,
    NamedTup,
    SetVal,
    TOP,
    Top,
    Value,
    obj as to_obj,
)

# --------------------------------------------------------------------------
# The sub-object lattice.
# --------------------------------------------------------------------------


def _leq_possible(left: Value, right: Value) -> bool:
    """Necessary condition for ``left ≤ right`` from cached metadata.

    The sub-object order is monotone in nesting depth and active-atom
    sets on ⊤-free values (⊤ sits above everything while carrying depth
    0 and no atoms, so values containing it are exempted).  A ``False``
    here proves ``leq`` would return ``False``; a ``True`` decides
    nothing — callers use this as an O(1) prefilter before the deep
    comparison.
    """
    if right.has_top:
        return True
    if left.has_top:
        # Every ⊤ inside *left* would need a ⊤ above it inside *right*.
        return False
    return left.depth <= right.depth and left.atoms <= right.atoms


def leq(left: Value, right: Value) -> bool:
    """The sub-object order ``left ≤ right``."""
    if left is right:
        return True
    if isinstance(left, Bottom) or isinstance(right, Top):
        return True
    if isinstance(right, Bottom):
        return isinstance(left, Bottom)
    if isinstance(left, Top):
        return isinstance(right, Top)
    if isinstance(left, Atom):
        return left == right
    if isinstance(left, NamedTup):
        if not isinstance(right, NamedTup):
            return False
        right_fields = dict(right.fields)
        for name, value in left.fields:
            if name not in right_fields:
                return False
            if not leq(value, right_fields[name]):
                return False
        return True
    if isinstance(left, SetVal):
        if not isinstance(right, SetVal):
            return False
        if left.items and not _leq_possible(left, right):
            return False
        return all(
            any(
                leq(member, other)
                for other in right.items
                if _leq_possible(member, other)
            )
            for member in left.items
        )
    raise EvaluationError(f"not a BK object: {left!r}")


def lub(left: Value, right: Value) -> Value:
    """Least upper bound in the sub-object lattice (⊤ if incompatible)."""
    if isinstance(left, Bottom):
        return right
    if isinstance(right, Bottom):
        return left
    if isinstance(left, Top) or isinstance(right, Top):
        return TOP
    if isinstance(left, Atom) and isinstance(right, Atom):
        return left if left == right else TOP
    if isinstance(left, NamedTup) and isinstance(right, NamedTup):
        merged = dict(left.fields)
        for name, value in right.fields:
            if name in merged:
                joined = lub(merged[name], value)
                merged[name] = joined
            else:
                merged[name] = value
        if any(isinstance(v, Top) for v in merged.values()):
            return TOP
        return NamedTup(merged)
    if isinstance(left, SetVal) and isinstance(right, SetVal):
        # Hoare order: union, reduced to maximal elements.
        return reduce_set(SetVal(set(left.items) | set(right.items)))
    return TOP


def glb(left: Value, right: Value) -> Value:
    """Greatest lower bound (⊥ if the objects share no information)."""
    if isinstance(left, Top):
        return right
    if isinstance(right, Top):
        return left
    if isinstance(left, Bottom) or isinstance(right, Bottom):
        return BOTTOM
    if isinstance(left, Atom) and isinstance(right, Atom):
        return left if left == right else BOTTOM
    if isinstance(left, NamedTup) and isinstance(right, NamedTup):
        right_fields = dict(right.fields)
        shared = {}
        for name, value in left.fields:
            if name in right_fields:
                meet = glb(value, right_fields[name])
                if not isinstance(meet, Bottom):
                    shared[name] = meet
        if not shared:
            return BOTTOM
        return NamedTup(shared)
    if isinstance(left, SetVal) and isinstance(right, SetVal):
        meets = set()
        for a in left.items:
            for b in right.items:
                meet = glb(a, b)
                if not isinstance(meet, Bottom):
                    meets.add(meet)
        return reduce_set(SetVal(meets))
    return BOTTOM


def reduce_set(value: SetVal) -> SetVal:
    """Keep only ≤-maximal members (the reduced representative).

    The Hoare order on sets is a *preorder*: distinct objects can
    dominate each other (``{⊥, a} ≤ {a} ≤ {⊥, a}``), so "drop anything
    dominated by another member" would delete whole equivalence
    classes.  A member is dropped iff it is strictly dominated, or
    equivalent to a member with a smaller canonical key — exactly one
    representative of each maximal class survives.
    """
    members = value.sorted_members()
    if len(members) < 2:
        return value
    if any(isinstance(m, Top) for m in members):
        # ⊤ strictly dominates every other object.
        return SetVal([TOP])
    maximal = []
    for m in members:
        m_key = m.canon_key()
        dominated = False
        for other in members:
            if other is m or not _leq_possible(m, other):
                # Cached depth/atom prefilter: `other` provably cannot
                # dominate `m`, skip the deep comparison.
                continue
            if leq(m, other) and (
                not leq(other, m) or other.canon_key() < m_key
            ):
                dominated = True
                break
        if not dominated:
            maximal.append(m)
    return SetVal(maximal)


def subobjects(value: Value, budget: Budget | None = None) -> Iterator[Value]:
    """Enumerate all sub-objects of *value* (⊥ first).

    Finite for atoms and tuples; exponential for sets (bounded by the
    budget's ``objects`` counter).
    """
    budget = budget or Budget()
    seen: set = set()
    for candidate in _subobjects(value, budget):
        if candidate not in seen:
            seen.add(candidate)
            yield candidate


def _subobjects(value: Value, budget: Budget) -> Iterator[Value]:
    budget.charge("objects")
    yield BOTTOM
    if isinstance(value, Atom):
        yield value
        return
    if isinstance(value, NamedTup):
        from itertools import product as iter_product

        per_field = []
        for name, field_value in value.fields:
            # A field may take any sub-object value or be absent (None).
            options = [(name, sub) for sub in _subobjects(field_value, budget)]
            options.append(None)
            per_field.append(options)
        for combo in iter_product(*per_field):
            chosen: dict = {}
            for entry in combo:
                if entry is not None:
                    name, sub = entry
                    chosen[name] = sub
            budget.charge("objects")
            if chosen:
                yield NamedTup(chosen)
        return
    if isinstance(value, SetVal):
        from itertools import combinations

        member_subs: list = []
        for member in value.items:
            member_subs.extend(_subobjects(member, budget))
        member_subs = list(dict.fromkeys(member_subs))
        for size in range(len(member_subs) + 1):
            for combo in combinations(member_subs, size):
                budget.charge("objects")
                yield SetVal(combo)
        return
    if isinstance(value, (Bottom, Top)):
        yield value
        return
    raise EvaluationError(f"not a BK object: {value!r}")


# --------------------------------------------------------------------------
# Patterns, rules, programs.
# --------------------------------------------------------------------------


class BKVar:
    """A variable inside a BK pattern."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


def bk_obj(thing):
    """Coerce plain Python data into a BK object (dicts become named
    tuples), leaving :class:`BKVar` placeholders in patterns intact."""
    if isinstance(thing, BKVar):
        return thing
    if isinstance(thing, dict):
        return {name: bk_obj(value) for name, value in thing.items()}
    if isinstance(thing, (set, frozenset)):
        return {bk_obj(v) for v in thing}
    return thing


class BKAtom:
    """One tail or head element: ``P{pattern}``."""

    __slots__ = ("pred", "pattern")

    def __init__(self, pred: str, pattern):
        self.pred = pred
        self.pattern = pattern

    def __repr__(self) -> str:
        return f"{self.pred}{{{self.pattern!r}}}"


class BKRule:
    """``head ← tails`` (one head atom, any number of tails)."""

    __slots__ = ("head", "tails")

    def __init__(self, head: BKAtom, tails: Iterable[BKAtom] = ()):
        self.head = head
        self.tails = tuple(tails)

    def __repr__(self) -> str:
        return f"{self.head!r} ← " + ", ".join(repr(t) for t in self.tails)


class BKProgram:
    """A set of BK rules with a designated answer predicate."""

    def __init__(self, rules: Iterable[BKRule], answer: str = "ANS", name: str = "bk"):
        self.rules = tuple(rules)
        self.answer = answer
        self.name = name


def pattern_variables(pattern) -> set:
    names: set = set()
    if isinstance(pattern, BKVar):
        names.add(pattern.name)
    elif isinstance(pattern, dict):
        for value in pattern.values():
            names |= pattern_variables(value)
    elif isinstance(pattern, (set, frozenset)):
        for value in pattern:
            names |= pattern_variables(value)
    return names


def instantiate(pattern, valuation: Mapping) -> Value:
    """Apply a valuation to a pattern, producing a BK object."""
    if isinstance(pattern, BKVar):
        return valuation[pattern.name]
    if isinstance(pattern, dict):
        return NamedTup(
            {name: instantiate(value, valuation) for name, value in pattern.items()}
        )
    if isinstance(pattern, (set, frozenset)):
        return SetVal(instantiate(value, valuation) for value in pattern)
    if isinstance(pattern, Value):
        return pattern
    return to_obj(pattern)


def match_leq(pattern, bound: Value, valuation: dict, budget: Budget) -> Iterator[dict]:
    """Valuations θ (extending *valuation*) with ``θ(pattern) ≤ bound``.

    This is BK's instantiation discipline: variables may take *any*
    sub-object of what the database offers — including ⊥, which is how
    Example 5.2 loses the join condition.
    """
    if isinstance(pattern, BKVar):
        if pattern.name in valuation:
            if leq(valuation[pattern.name], bound):
                yield valuation
            return
        for sub in subobjects(bound, budget):
            extended = dict(valuation)
            extended[pattern.name] = sub
            yield extended
        return
    if isinstance(pattern, dict):
        if not isinstance(bound, NamedTup) and not isinstance(bound, Top):
            return
        if isinstance(bound, Top):
            raise EvaluationError("matching against ⊤ is unbounded")
        bound_fields = dict(bound.fields)
        items = sorted(pattern.items())
        yield from _match_fields(items, bound_fields, valuation, budget)
        return
    if isinstance(pattern, (set, frozenset)):
        if not isinstance(bound, SetVal):
            return
        members = list(pattern)
        yield from _match_members(members, bound, valuation, budget)
        return
    concrete = pattern if isinstance(pattern, Value) else to_obj(pattern)
    if leq(concrete, bound):
        yield valuation


def _match_fields(items, bound_fields: dict, valuation: dict, budget: Budget):
    if not items:
        yield valuation
        return
    (name, sub_pattern), rest = items[0], items[1:]
    if name not in bound_fields:
        # The instantiated tuple would have an attribute the bound
        # lacks — only ⊥ values keep it a sub-object, and our tuples
        # drop ⊥ fields; treat as matching against ⊥.
        for extended in match_leq(sub_pattern, BOTTOM, valuation, budget):
            yield from _match_fields(rest, bound_fields, extended, budget)
        return
    for extended in match_leq(sub_pattern, bound_fields[name], valuation, budget):
        yield from _match_fields(rest, bound_fields, extended, budget)


def _match_members(members, bound: SetVal, valuation: dict, budget: Budget):
    if not members:
        yield valuation
        return
    first, rest = members[0], members[1:]
    options = list(bound.items) + [BOTTOM]
    seen: set = set()
    for target in options:
        for extended in match_leq(first, target, valuation, budget):
            key = tuple(sorted((k, v) for k, v in extended.items()))
            if key in seen:
                continue
            seen.add(key)
            yield from _match_members(rest, bound, extended, budget)


# --------------------------------------------------------------------------
# Fixpoint semantics.
# --------------------------------------------------------------------------

_EMPTY_FACTS: frozenset = frozenset()


def _bk_candidates(scan: Scan, pattern, valuation: Mapping):
    """Facts of *scan* that could bound-match *pattern* under *valuation*.

    A hash-indexed over-approximation over the kernel scan's attribute
    indexes; ``match_leq`` still decides.  Named-tuple facts are the
    only pattern shape with probeable structure, and the most selective
    probeable attribute picks the bucket(s):

    * a probing atom ``a`` can only sit below an attr value ``v`` when
      ``v == a`` or ``v`` is non-atomic (⊤), so the
      :data:`~repro.engine.ops.ATTR_ATOM` bucket paired with
      :data:`~repro.engine.ops.ATTR_REST` is a complete
      over-approximation of the atom probe;
    * a known non-atomic, non-⊥ probe can only match facts carrying the
      attribute (:data:`~repro.engine.ops.ATTR_PRESENT` — absent attrs
      match only against ⊥, which such a probe is never below).

    Falls back to the full extent when nothing is probeable.
    """
    if not isinstance(pattern, dict) or not scan.facts:
        return scan.facts
    best_count = None
    best_buckets = None
    for attr, sub in pattern.items():
        probe = _probe_value(sub, valuation)
        if probe is None or isinstance(probe, Bottom):
            # Unbound, or ⊥ — below everything including absent
            # attrs; no pruning available from this field.
            continue
        if isinstance(probe, Atom):
            buckets = (
                scan.probe(ATTR_ATOM, (attr, probe)),
                scan.probe(ATTR_REST, attr),
            )
        else:
            buckets = (scan.probe(ATTR_PRESENT, attr),)
        count = sum(len(bucket) for bucket in buckets)
        if best_count is None or count < best_count:
            best_count = count
            best_buckets = buckets
            if count == 0:
                break
    if best_buckets is None:
        return scan.facts
    if len(best_buckets) == 1 or not best_buckets[1]:
        return best_buckets[0]
    return [fact for bucket in best_buckets for fact in bucket]


def _probe_value(sub_pattern, valuation: Mapping) -> Value | None:
    """The concrete value a pattern field is pinned to, if any.

    ``None`` means the field is not yet determined (an unbound variable
    or a pattern with unbound variables inside) and cannot drive an
    index probe.
    """
    if isinstance(sub_pattern, BKVar):
        return valuation.get(sub_pattern.name)
    if isinstance(sub_pattern, (dict, set, frozenset)):
        if pattern_variables(sub_pattern) - valuation.keys():
            return None
        return instantiate(sub_pattern, valuation)
    if isinstance(sub_pattern, Value):
        return sub_pattern
    return to_obj(sub_pattern)


def _tail_estimate(tail: BKAtom, bound_vars: set, extents: dict) -> int:
    """Deterministic per-valuation candidate estimate for one tail.

    Delegates to the shared catalog estimator: the extent's statistics
    (:meth:`~repro.engine.ops.Scan.rel_stats`) discount each pattern
    field already determined by *bound_vars* — the fields that drive an
    attribute-index probe in :func:`_bk_candidates` — by the field's
    real distinct count; a fully-determined non-record pattern probes
    the whole-value sketch (key ``None``), estimating ~1.
    """
    extent = extents.get(tail.pred)
    if extent is None or not len(extent.facts):
        return 0
    stats = extent.rel_stats()
    pattern = tail.pattern
    if isinstance(pattern, dict):
        determined = tuple(
            attr
            for attr, sub in sorted(pattern.items())
            if not pattern_variables(sub) - bound_vars
        )
    elif not pattern_variables(pattern) - bound_vars:
        determined = (None,)
    else:
        determined = ()
    return bucket_estimate(stats, determined)


def _tail_order(tails: list, extents: dict, seed: int | None) -> list:
    """Greedy SIP execution order over tail occurrences.

    Returns ``[(occurrence_index, mode), ...]``: the seed occurrence
    (delta population) first, then repeatedly the cheapest remaining
    tail under the variables bound so far (ties broken by textual
    position).  Modes are assigned by *occurrence* relative to the seed
    — old before, full after — independent of execution order, which is
    what keeps the semi-naive exactly-once accounting sound under
    reordering (BK tails are all positive, so the conjunction itself is
    order-free).
    """
    order: list = []
    bound: set = set()
    remaining = list(range(len(tails)))
    if seed is not None:
        order.append((seed, "delta"))
        bound |= pattern_variables(tails[seed].pattern)
        remaining.remove(seed)
    while remaining:
        index = min(
            remaining,
            key=lambda i: (_tail_estimate(tails[i], bound, extents), i),
        )
        if seed is None or index > seed:
            mode = "full"
        else:
            mode = "old"
        order.append((index, mode))
        bound |= pattern_variables(tails[index].pattern)
        remaining.remove(index)
    return order


def _extent_valuations(
    rule: BKRule,
    extents: dict,
    budget: Budget,
    deltas: dict | None,
) -> Iterator[dict]:
    """Valuations of *rule*'s tails over hash-indexed extents.

    Tails execute in the cost-based :func:`_tail_order` (narrowest
    extent first, index-probeable tails discounted), recomputed per
    round from current extent sizes.

    With *deltas* (pred -> facts first derived last round) only
    valuations using at least one delta fact are produced, each exactly
    once: for every seed occurrence, the seed tail draws from the
    delta, textually-earlier tails from pre-delta facts only, later
    tails from the full extent — the textbook semi-naive decomposition,
    with populations tied to occurrences rather than execution
    positions.  Sound here despite BK's dominance-based extent
    reduction because ``match_leq`` is monotone in its bound (a removed
    fact was ≤ the new fact that displaced it, so its valuations
    survive through the dominator).
    """
    tails = list(rule.tails)

    def recurse(position: int, valuation: dict, order: list) -> Iterator[dict]:
        if position == len(order):
            yield valuation
            return
        index, mode = order[position]
        tail = tails[index]
        extent = extents.get(tail.pred)
        if extent is None:
            return
        if mode == "delta":
            bounds = deltas.get(tail.pred, _EMPTY_FACTS)
            exclude = None
        else:
            bounds = _bk_candidates(extent, tail.pattern, valuation)
            exclude = deltas.get(tail.pred) if mode == "old" else None
        for bound in bounds:
            if exclude is not None and bound in exclude:
                continue
            for extended in match_leq(tail.pattern, bound, valuation, budget):
                yield from recurse(position + 1, extended, order)

    if deltas is None:
        yield from recurse(0, {}, _tail_order(tails, extents, None))
        return
    for seed in range(len(tails)):
        if not deltas.get(tails[seed].pred):
            continue
        yield from recurse(0, {}, _tail_order(tails, extents, seed))


def seed_extents(database: Mapping) -> dict:
    """Per-predicate :class:`~repro.engine.ops.Scan` extents of a plain
    database mapping (values coerced through :func:`bk_obj`)."""
    extents: dict = {}
    for name, values in database.items():
        extent = extents.setdefault(name, Scan(name))
        for value in values:
            extent.add(instantiate(bk_obj(value), {}))
    return extents


def extend_extent(extents: dict, pred: str, derived: Value, budget: Budget, deltas: dict) -> bool:
    """Add *derived* to *pred*'s extent under BK's reduced discipline.

    A new object already present — or dominated by a present object —
    changes nothing; otherwise it enters the extent, members it now
    dominates are discarded (their valuations survive through the
    dominator — see :func:`_extent_valuations`), and the change is
    recorded in *deltas*.  Returns whether the extent changed.
    """
    extent = extents.setdefault(pred, Scan(pred))
    facts = extent.facts
    if derived in facts or any(
        leq(derived, existing)
        for existing in facts
        if _leq_possible(derived, existing)
    ):
        return False
    budget.charge("facts")
    dominated = [
        e for e in facts if _leq_possible(e, derived) and leq(e, derived)
    ]
    delta = deltas.setdefault(pred, set())
    for e in dominated:
        extent.discard(e)
        delta.discard(e)
    extent.add(derived)
    delta.add(derived)
    return True


def hashjoin_fixpoint(
    program: BKProgram,
    extents: dict,
    budget: Budget,
    max_rounds: int | None = None,
    stats=None,
    naive: bool = False,
) -> bool:
    """The (semi-naive) round loop over mutable *extents*.

    Returns the :class:`~repro.engine.ops.FixpointDriver` verdict
    (``False`` = *max_rounds* cut before convergence).  Round one joins
    every rule over the full extents; later rounds only take valuations
    that use a fact derived the round before.  ``naive=True`` joins
    every rule over the full extents every round.
    """
    state: dict = {"deltas": None}

    def step(round_number: int) -> bool:
        use_deltas = None if naive or round_number == 1 else state["deltas"]
        new_deltas: dict = {}
        for rule in program.rules:
            if use_deltas is not None and not any(
                use_deltas.get(tail.pred) for tail in rule.tails
            ):
                # No tail extent changed last round (tail-less rules
                # are settled in round one): no new valuations.
                continue
            for valuation in list(
                _extent_valuations(rule, extents, budget, use_deltas)
            ):
                budget.charge("steps")
                derived = instantiate(bk_obj(rule.head.pattern), valuation)
                extend_extent(extents, rule.head.pred, derived, budget, new_deltas)
        state["deltas"] = new_deltas
        return any(new_deltas.values())

    return FixpointDriver(budget, stats=stats, max_rounds=max_rounds).run(step)


def run_bk(
    program: BKProgram,
    database: Mapping,
    budget: Budget | None = None,
    max_rounds: int | None = None,
    naive: bool = False,
    trace=None,
):
    """Run a BK program to fixpoint.

    *database* maps predicate names to iterables of BK objects (plain
    Python data is coerced; dicts become named tuples).  Returns the
    reduced extent of the answer predicate, or ``?`` if the fixpoint
    does not stabilise within the budget (Example 5.4's divergence).

    Matching keeps BK's lax sub-object discipline.  Rounds after the
    first are semi-naive: they only enumerate valuations that use at
    least one fact derived last round, probing the per-predicate kernel
    scans' attribute hash indexes built on the cached structural
    metadata of the facts (:func:`_bk_candidates` over
    :class:`~repro.engine.ops.Scan`).  An old-facts-only valuation
    re-derives a head that is still present or still dominated, so both
    drivers reach the same fixpoint.  ``naive=True`` runs every rule
    every round — the oracle.

    At a ``max_rounds`` cut the hash-join extents are subsumed by the
    naive driver's (every fact ≤ one of its facts).  They can lag on
    recursive programs such as Example 5.4: a fact derived this round
    reaches a later rule of the same round in the naive driver, but
    only next round here, as part of the delta.

    *trace* (a :class:`~repro.engine.exec.PhysicalTrace`) collects the
    physical operator tree for EXPLAIN's post-run actuals.
    """
    from .physical import bk_physical, fixpoint_stats

    budget = budget or Budget()
    extents = seed_extents(database)
    stats = fixpoint_stats(trace)
    try:
        converged = hashjoin_fixpoint(
            program, extents, budget, max_rounds=max_rounds, stats=stats, naive=naive
        )
        if not converged:
            return UNDEFINED
    except BudgetExceeded:
        return UNDEFINED
    finally:
        bk_physical(trace, "bk-naive" if naive else "bk-hashjoin", stats, extents)
    answer = extents.get(program.answer)
    return reduce_set(SetVal(answer.facts if answer is not None else ()))


# --------------------------------------------------------------------------
# The paper's example programs.
# --------------------------------------------------------------------------


def join_attempt_program() -> BKProgram:
    """Example 5.2: the rule that *looks like* a join.

    ``R{[A:x, C:z]} ← R1{[A:x, B:y]}, R2{[B:y, C:z]}``
    """
    x, y, z = BKVar("x"), BKVar("y"), BKVar("z")
    rule = BKRule(
        BKAtom("ANS", {"A": x, "C": z}),
        [BKAtom("R1", {"A": x, "B": y}), BKAtom("R2", {"B": y, "C": z})],
    )
    return BKProgram([rule], answer="ANS", name="ex5.2-join")


def chain_to_list_program() -> BKProgram:
    """Example 5.4: the chain-to-list builder that diverges.

    ``LIST{[H:x, T:$]} ← S{[A:$, B:x]}``
    ``LIST{[H:x, T:[H:y, T:z]]} ← S{[A:y, B:x]}, LIST{[H:y, T:z]}``
    """
    x, y, z = BKVar("x"), BKVar("y"), BKVar("z")
    rules = [
        BKRule(
            BKAtom("LIST", {"H": x, "T": "$"}),
            [BKAtom("S", {"A": "$", "B": x})],
        ),
        BKRule(
            BKAtom("LIST", {"H": x, "T": {"H": y, "T": z}}),
            [BKAtom("S", {"A": y, "B": x}), BKAtom("LIST", {"H": y, "T": z})],
        ),
        BKRule(BKAtom("ANS", BKVar("w")), [BKAtom("LIST", BKVar("w"))]),
    ]
    return BKProgram(rules, answer="ANS", name="ex5.4-chain-to-list")
