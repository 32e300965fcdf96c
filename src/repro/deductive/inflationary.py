"""Inflationary semantics for COL (COL^inf).

The natural generalisation of the inflationary semantics for DATALOG¬
[KP88]: starting from the database, repeatedly apply *all* rules with
negated literals evaluated against the **current** (growing)
interpretation, never retracting anything, until a fixpoint.  Unlike
the stratified semantics this is defined for every program — but with
untyped sets the fixpoint may be infinite, in which case (budget) the
output is ``?``.

Theorem 5.1 shows COL^inf ≡ COL^str ≡ **C** — an interesting contrast
with flat DATALOG¬, where the stratified semantics is strictly weaker
than the inflationary one [Kol87, KP88, AV88]; the E6 experiment
exercises both sides of that contrast.
"""

from __future__ import annotations

from ..budget import Budget
from ..errors import BudgetExceeded, UNDEFINED
from ..model.schema import Database
from .ast import ColProgram
from .col import Interp


def run_inflationary(
    program: ColProgram,
    database: Database,
    budget: Budget | None = None,
    naive: bool = False,
    trace=None,
):
    """COL^inf semantics: the answer instance, or ``?`` on divergence.

    One round applies every rule against a *snapshot* of the current
    interpretation (the standard simultaneous inflationary operator);
    rounds repeat until nothing new is derived.

    Rounds run delta-driven by default (the semi-naive driver buffers a
    round's derivations instead of copying the interpretation, see
    :mod:`repro.engine.seminaive`); ``naive=True`` selects the original
    copy-per-round driver.  *trace* collects the physical operator tree
    for EXPLAIN (see :mod:`repro.deductive.physical`).
    """
    budget = budget or Budget()
    interp = Interp.from_database(database)
    if not naive:
        from ..engine.seminaive import seminaive_inflationary_fixpoint
        from .physical import col_physical, fixpoint_stats

        stats = fixpoint_stats(trace)
        try:
            seminaive_inflationary_fixpoint(
                program.rules, interp, budget, stats=stats
            )
        except BudgetExceeded:
            return UNDEFINED
        finally:
            col_physical(trace, "col-inflationary", stats, interp)
        return interp.instance(program.answer)
    try:
        changed = True
        while changed:
            budget.charge("iterations")
            snapshot = interp.copy()
            changed = False
            for rule in program.rules:
                # Positive matching runs on the snapshot; insertions go
                # into the live interpretation.
                if _apply_from_snapshot(rule, snapshot, interp, budget):
                    changed = True
    except BudgetExceeded:
        return UNDEFINED
    return interp.instance(program.answer)


def _apply_from_snapshot(rule, snapshot: Interp, live: Interp, budget: Budget) -> bool:
    from .col import eval_term, textual_substitutions
    from .ast import PredLit

    changed = False
    # Naive reference driver: textual order (see col.fixpoint).
    for subst in list(textual_substitutions(rule, snapshot, budget, snapshot)):
        head = rule.head
        if isinstance(head, PredLit):
            value = eval_term(head.term, subst, snapshot)
            if live.add_pred(head.name, value):
                budget.charge("facts")
                changed = True
        else:
            arg = eval_term(head.arg, subst, snapshot)
            element = eval_term(head.element, subst, snapshot)
            if live.add_func(head.func, arg, element):
                budget.charge("facts")
                changed = True
    return changed
