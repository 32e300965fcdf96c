"""The `Session` front door: parse, plan, cache, execute, explain.

A session holds a database, a root :class:`~repro.budget.Budget`, and
two caches:

* a text-keyed LRU of :class:`~repro.query.planner.Plan` objects (a
  plan depends on the database's instance statistics, so the database
  itself is part of the key);
* the genericity-aware :class:`~repro.engine.cache.MemoCache` for
  *results*, keyed by the query text (its plan's fingerprint), backend,
  constants and the database (or its restriction to the query's
  footprint) — what determines the answer, and nothing else.  The same
  data hits exactly, with no canonical form; a database whose atoms are
  permuted hits through canonical forms, computed only once the query
  already has an entry to match.  Plans marked non-generic
  (invention-capable comprehensions) bypass it, per Section 6: their
  output may depend on the fresh objects the evaluator invents, which
  no key can capture.

Both caches are pure functions of (text, database), so a commit only
switches the session's database (:meth:`Session.apply_delta`).

Each query runs under a *child* of the session budget, so one runaway
query cannot silently drain the session's allowance for the rest.
"""

from __future__ import annotations

from ..budget import Budget
from ..catalog import Catalog
from ..engine.cache import LRUCache, MemoCache
from ..model.intern import INTERNER
from ..model.schema import Database, Schema
from ..obs.metrics import flatten
from ..obs.span import span
from .explain import render, render_plan
from .ir import BKQuery, RuleQuery
from .parser import parse
from .planner import ExecutionReport, Plan, build_plan, execute_plan

def _program_predicates(query, schema) -> frozenset:
    """The schema predicates whose instances can influence *query*.

    For rule blocks this is every predicate the program *mentions* —
    reads **and** heads, since a base instance sharing a head's name
    seeds the fixpoint — intersected with the schema.  Other query
    forms fall back to their declared ``predicates()``.
    """
    if isinstance(query, RuleQuery):
        names: set = set()
        for rule in query.program.rules:
            names |= rule.predicates()
        names |= {
            name for kind, name in query.program.head_symbols() if kind == "pred"
        }
    elif isinstance(query, BKQuery):
        names = {rule.head.pred for rule in query.program.rules}
        for rule in query.program.rules:
            names |= {tail.pred for tail in rule.tails}
        names.add(query.program.answer)
    else:
        names = set(query.predicates())
    return frozenset(name for name in names if name in schema)


class Session:
    """An open connection to one database."""

    def __init__(
        self,
        database: Database,
        budget: Budget | None = None,
        obj_bound: int = 200,
        memo_entries: int = 256,
        plan_entries: int = 128,
    ):
        self.database = database
        self.budget = budget or Budget()
        self.obj_bound = obj_bound
        self.memo = MemoCache(max_entries=memo_entries)
        self.plans = LRUCache(max_entries=plan_entries)
        self.last_report: ExecutionReport | None = None

    # -- parsing and planning -------------------------------------------

    def parse(self, text: str):
        with span("session.parse"):
            return parse(text, schema=self.database.schema)

    def plan(self, text: str, database: Database | None = None) -> Plan:
        database = database or self.database
        key = (text, database)
        cached = self.plans.get(key)
        if cached is not None:
            return cached
        with span("session.plan"):
            plan = build_plan(self.parse(text), database, obj_bound=self.obj_bound)
        self.plans.put(key, plan)
        return plan

    # -- execution ------------------------------------------------------

    def run(
        self,
        text: str,
        backend: str | None = None,
        budget: Budget | None = None,
        database: Database | None = None,
    ) -> tuple:
        """Evaluate *text*; return ``(result, ExecutionReport)``.

        Unlike :meth:`query` this touches no per-session mutable state
        beyond the (thread-safe) plan and memo caches, so one session
        can serve many threads concurrently — the serving layer
        (:mod:`repro.serve`) calls this and keeps each request's report
        in its own trace instead of :attr:`last_report`.
        """
        database = database or self.database
        with span("session.run") as run_span:
            plan = self.plan(text, database)
            child = (budget or self.budget).child()
            chosen = backend or plan.chosen.backend

            captured: list = []

            def evaluate(db: Database):
                with span("session.execute", backend=chosen):
                    report = execute_plan(plan, db, child, backend=backend)
                captured.append(report)
                return report.result

            # Fact-driven candidates provably read only the query's own
            # predicates, so the memo key uses the database *restricted*
            # to them — the entry then survives deltas to other
            # predicates, and a delta to its own predicates changes the
            # key.  The footprint includes *defined* (IDB) names too: a
            # schema predicate sharing a head's name seeds the fixpoint
            # like any base fact.  The catalog hands back the same
            # restricted object every time (and carries it across
            # commits the footprint misses), so an exact hit compares
            # it by identity.
            key_database = None
            candidate = plan.find(chosen)
            if plan.generic and candidate is not None and candidate.fact_driven:
                preds = _program_predicates(plan.query, database.schema)
                if preds:
                    key_database = Catalog.for_database(database).restrict(preds)
            result = self.memo.run(
                evaluate,
                plan,
                database,
                constants=plan.query.constants(),
                generic=plan.generic,
                extra_key=("backend", chosen),
                key_database=key_database,
                fingerprint=plan.fingerprint,
            )
            if captured:
                report = captured[0]
            else:
                # Memo hit: nothing ran. Report the hit itself as actuals.
                report = ExecutionReport(chosen, result, spent={}, cached=True)
            run_span.set(backend=report.backend, cached=report.cached)
        return result, report

    def query(
        self,
        text: str,
        backend: str | None = None,
        budget: Budget | None = None,
        database: Database | None = None,
    ):
        """Evaluate *text* and return its value (or ``?``).

        The result is memoized when the plan is generic; *backend*
        forces a specific candidate and keys separately (all candidates
        agree semantically, but their budget behaviour near exhaustion
        differs)."""
        result, report = self.run(
            text, backend=backend, budget=budget, database=database
        )
        self.last_report = report
        return result

    # -- committed deltas ------------------------------------------------

    def apply_delta(self, new_database: Database) -> None:
        """Switch the session to *new_database* after a commit.

        Nothing else moves.  Memo entries are keyed on the data each
        was computed from (the whole database, or its restriction to
        the query's footprint), and plans on ``(text, database)``: an
        entry the commit affects is unreachable from the new state and
        ages out through its LRU, an entry whose footprint the commit
        missed still hits (the catalog carries its restrict view over),
        and a state that recurs hits again.
        """
        self.database = new_database

    # -- observability ---------------------------------------------------

    def counters(self) -> dict:
        """This session's cache counters as one nested stats dict.

        The serve layer registers this (zero-arg, cheap, thread-safe)
        as a :meth:`~repro.obs.metrics.MetricsRegistry.register_collector`
        callback under a ``db.<name>`` prefix; embedded users can
        :func:`~repro.obs.metrics.flatten` it into the same dotted-key
        schema themselves.
        """
        return {
            "memo": self.memo.stats.as_dict(),
            "plans": self.plans.stats.as_dict(),
        }

    def counter_snapshot(self) -> dict:
        """The flat dotted-key form of :meth:`counters`, plus the value
        interner's family — the exact mapping EXPLAIN's counter block
        renders from."""
        return {
            **flatten("query.memo", self.memo.stats.as_dict()),
            **flatten("query.plans", self.plans.stats.as_dict()),
            **flatten("engine.intern", INTERNER.stats().as_dict()),
        }

    # -- explain --------------------------------------------------------

    def explain(
        self,
        text: str,
        run: bool = False,
        backend: str | None = None,
        budget: Budget | None = None,
    ) -> str:
        """The EXPLAIN transcript: the plan, plus actuals if *run*."""
        plan = self.plan(text)
        if not run:
            return render_plan(plan)
        self.query(text, backend=backend, budget=budget)
        return render(plan, self.last_report, counters=self.counter_snapshot())


def connect(
    database: Database | None = None,
    schema: Schema | None = None,
    budget: Budget | None = None,
    obj_bound: int = 200,
    memo_entries: int = 256,
    plan_entries: int = 128,
    **instances,
) -> Session:
    """Open a :class:`Session`.

    Either pass a ready :class:`Database`, or a :class:`Schema` plus
    plain-Python instances (coerced via ``Database.from_plain``).
    *memo_entries* and *plan_entries* bound the result memo cache and
    the plan LRU respectively; their hit/miss counters surface in
    EXPLAIN actuals."""
    if database is None:
        if schema is None:
            raise ValueError("connect() needs a database or a schema")
        database = Database.from_plain(schema, **instances)
    return Session(
        database,
        budget=budget,
        obj_bound=obj_bound,
        memo_entries=memo_entries,
        plan_entries=plan_entries,
    )
