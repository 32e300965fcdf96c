"""The cross-language query planner.

The paper's simulation theorems say one query has implementations in
every language of the repository; this module turns that into a query
optimiser.  :func:`build_plan` lowers a parsed surface query through
every translation that covers it (each failed lowering is recorded,
not raised), prices the surviving candidates with a deterministic
integer cost model over the cached structural metadata of the database
(instance sizes, active-domain size — the PR 2 ``Value`` slots), and
picks the cheapest.  :func:`execute_plan` runs the chosen (or any
requested) candidate under a budget and reports actuals.

Everything the plan prints is deterministic: costs are integers
computed from instance statistics, candidate order is (cost, rank),
and no wall-clock or memory readings enter the plan — that is what
makes EXPLAIN output golden-testable.
"""

from __future__ import annotations

from functools import cached_property

from ..budget import Budget
from ..catalog import Catalog
from ..catalog.estimator import domain_estimate, join_product
from ..catalog.policy import COST_CAP
from ..engine.cache import program_fingerprint
from ..errors import SchemaError
from ..model.schema import Database
from .ir import (
    BKQuery,
    Comprehension,
    GTMQuery,
    LiteralQuery,
    LoweringUnsupported,
    PipelineQuery,
    RuleQuery,
    SurfaceQuery,
)

#: Tie-break order among backends with equal cost (stable, documented).
BACKEND_RANK = (
    "literal",
    "algebra",
    "col-stratified",
    "col-demand",
    "col-inflationary",
    "bk-hashjoin",
    "calculus",
    "col-naive",
    "bk-naive",
    "gtm",
    "tm",
    "col-compiled",
    "alg-compiled",
    "calc-terminal",
)


#: Backends whose evaluation reads *only* the instances of the query's
#: own predicates: the COL fixpoint drivers seed every predicate into
#: the interpretation but rules can only match their body predicates,
#: and the BK drivers likewise join over tail extents alone.  For these
#: the session may key the result memo on the database *restricted* to
#: the query's predicate footprint — entries then survive committed
#: deltas that touch other predicates.  ``col-demand`` runs a rewrite
#: of the block that reads the same base predicates.  The
#: whole-database routes (calculus domain enumeration, machine
#: encodings, compiled lowerings) depend on the global active domain
#: and are deliberately excluded; an ``algebra`` candidate is fact
#: driven only when its program reads the database through the
#: footprint's predicate variables alone (see :attr:`Candidate.fact_driven`).
FACT_DRIVEN = frozenset(
    {
        "col-stratified",
        "col-demand",
        "col-inflationary",
        "col-naive",
        "bk-hashjoin",
        "bk-naive",
    }
)


def _rank(backend: str) -> int:
    try:
        return BACKEND_RANK.index(backend)
    except ValueError:
        return len(BACKEND_RANK)


def _cap(cost: int) -> int:
    return min(int(cost), COST_CAP)


class Rewrite:
    """One planner pass and what it did (shown by EXPLAIN)."""

    def __init__(self, name: str, applied: bool, note: str):
        self.name = name
        self.applied = applied
        self.note = note

    def __repr__(self) -> str:
        sign = "+" if self.applied else "-"
        return f"{sign} {self.name}: {self.note}"


class Candidate:
    """An executable backend for one query, with its estimated cost.

    :attr:`fact_driven` says whether the candidate reads only the
    instances of the query's own predicates (so the session may key
    its memo entry on the database restricted to them): every
    :data:`FACT_DRIVEN` backend does, others only when the caller
    shows it.
    """

    def __init__(
        self, backend: str, cost: int, detail: str, runner, fact_driven=None
    ):
        self.backend = backend
        self.cost = _cap(cost)
        self.detail = detail
        self._runner = runner
        self.fact_driven = (
            backend in FACT_DRIVEN if fact_driven is None else fact_driven
        )

    def run(self, database: Database, budget: Budget, trace=None):
        return self._runner(database, budget, trace)

    def __repr__(self) -> str:
        return f"Candidate({self.backend}, cost={self.cost})"


class Plan:
    """The priced candidate list for one query on one database profile."""

    def __init__(
        self,
        query: SurfaceQuery,
        candidates: list,
        rewrites: list,
        profile: dict,
        generic: bool,
    ):
        if not candidates:
            raise SchemaError(f"no backend can evaluate {query.text!r}")
        self.query = query
        self.candidates = sorted(
            candidates, key=lambda c: (c.cost, _rank(c.backend))
        )
        self.rewrites = rewrites
        self.profile = profile
        self.generic = generic

    @property
    def chosen(self) -> Candidate:
        return self.candidates[0]

    def backends(self) -> tuple:
        return tuple(c.backend for c in self.candidates)

    def candidate(self, backend: str) -> Candidate:
        cand = self.find(backend)
        if cand is not None:
            return cand
        raise SchemaError(
            f"plan for {self.query.text!r} has no backend {backend!r} "
            f"(has {', '.join(self.backends())})"
        )

    def find(self, backend: str) -> Candidate | None:
        """The candidate running *backend*, or ``None``."""
        for cand in self.candidates:
            if cand.backend == backend:
                return cand
        return None

    def fingerprint_payload(self) -> str:
        """Key material for the genericity-aware memo cache: the query
        text alone.

        The text and the schema determine the lowered programs, the
        schema is part of the memo's key database, and the chosen
        backend enters the key beside the fingerprint.  Costs read
        instance statistics, so they stay out: the same text on the
        same key data keys alike whichever database it was planned on."""
        return self.query.text

    @cached_property
    def fingerprint(self) -> str:
        """``program_fingerprint(self)``, hashed once per plan: nothing
        mutates a plan after :func:`build_plan`, so its memo fingerprint
        cannot change."""
        return program_fingerprint(self)


class ExecutionReport:
    """Post-run actuals for EXPLAIN (not part of the golden plan)."""

    def __init__(
        self,
        backend: str,
        result,
        spent: dict,
        cached: bool,
        physical=None,
        kernel_cache=None,
        op_totals=None,
    ):
        self.backend = backend
        self.result = result
        self.spent = spent
        self.cached = cached
        #: Rendered physical-operator tree (str) for backends that run on
        #: the :mod:`repro.engine.ops` kernel, else ``None``.  Counters
        #: are data-derived, so this is as deterministic as the plan.
        self.physical = physical
        #: Compiled-kernel cache counters (hits/misses/invalidations)
        #: when the backend ran cost-ordered rule kernels, else ``None``.
        self.kernel_cache = kernel_cache
        #: Whole-tree OpStats sums (rows in/out, probes, index builds,
        #: rounds) when the backend traced physical operators, else
        #: ``None`` — the serving layer folds these into the
        #: ``engine.ops.*`` registry counters.
        self.op_totals = op_totals

    def rounds(self) -> int:
        return self.spent.get("iterations", 0)


# ---------------------------------------------------------------------------
# Profile access
# ---------------------------------------------------------------------------
#
# The profile dict comes from the per-database Catalog (memoized — no
# recomputation per build_plan); ``domain_estimate`` lives in
# :mod:`repro.catalog.estimator` and is re-exported here for callers.


def _instance_size(profile: dict, name: str) -> int:
    """The size of one instance (all facts for a non-schema name)."""
    return profile["sizes"].get(name, profile["total_facts"])


# ---------------------------------------------------------------------------
# Per-language cost estimates
# ---------------------------------------------------------------------------


def calculus_cost(comp: Comprehension, profile: dict, obj_bound: int) -> int:
    """Product of the enumerated domains of every variable."""
    from ..calculus.ast import And, Exists, Forall, Not, Or

    cost = 1
    for rtype in comp.var_types.values():
        cost = _cap(cost * max(domain_estimate(rtype, profile, obj_bound), 1))

    def quantifiers(formula):
        if isinstance(formula, (Exists, Forall)):
            yield formula.rtype
            yield from quantifiers(formula.body)
        elif isinstance(formula, (And, Or)):
            for part in formula.parts:
                yield from quantifiers(part)
        elif isinstance(formula, Not):
            yield from quantifiers(formula.part)

    for rtype in quantifiers(comp.body):
        cost = _cap(cost * max(domain_estimate(rtype, profile, obj_bound), 1))
    return cost


def algebra_cost(program, profile: dict) -> int:
    """Work estimate: (cardinality, effort) recursion over expressions."""
    from ..algebra.ast import (
        Assign,
        Collapse,
        Const,
        Diff,
        EncodeInput,
        Expand,
        Intersect,
        Nest,
        Powerset,
        Product,
        Project,
        Select,
        Undefine,
        Union,
        Unnest,
        Var,
        While,
    )

    def expr_cost(expr, env):
        """Returns (work, estimated cardinality)."""
        if isinstance(expr, Var):
            card = env.get(expr.name, 1)
            return card, card
        if isinstance(expr, Const):
            size = len(expr.value.items)
            return size, size
        if isinstance(expr, Product):
            wl, cl = expr_cost(expr.left, env)
            wr, cr = expr_cost(expr.right, env)
            card = _cap(max(cl, 1) * max(cr, 1))
            return _cap(wl + wr + card), card
        if isinstance(expr, Select):
            work, card = expr_cost(expr.operand, env)
            out = card
            for _ in expr.conditions:
                out = (out + 1) // 2
            return _cap(work + card), out
        if isinstance(expr, (Project, Nest, Unnest, Expand, Collapse, Undefine, EncodeInput)):
            work, card = expr_cost(expr.operand, env)
            return _cap(work + card), card
        if isinstance(expr, Powerset):
            work, card = expr_cost(expr.operand, env)
            blown = _cap(2 ** min(card, 30))
            return _cap(work + blown), blown
        if isinstance(expr, Union):
            wl, cl = expr_cost(expr.left, env)
            wr, cr = expr_cost(expr.right, env)
            return _cap(wl + wr + cl + cr), _cap(cl + cr)
        if isinstance(expr, (Diff, Intersect)):
            wl, cl = expr_cost(expr.left, env)
            wr, cr = expr_cost(expr.right, env)
            card = cl if isinstance(expr, Diff) else min(cl, cr)
            return _cap(wl + wr + cl + cr), card
        return 1, 1

    def block_cost(statements, env):
        total = 0
        for stmt in statements:
            if isinstance(stmt, Assign):
                work, card = expr_cost(stmt.expr, env)
                env[stmt.var] = card
                total = _cap(total + work)
            elif isinstance(stmt, While):
                body_env = dict(env)
                body = block_cost(stmt.body, body_env)
                env.update(body_env)
                total = _cap(total + (profile["adom"] + 2) * max(body, 1))
        return total

    env = dict(profile["sizes"])
    return max(block_cost(list(program.statements), env), 1)


def col_cost(program, profile: dict, recursive: bool, sizes=None) -> int:
    """rounds × Σ_rules (order-aware join product of positive tails).

    *sizes* overrides the size estimate of derived predicates (the
    demand rewrite's magic and adorned predicates); any other name is
    priced as :func:`_instance_size` does."""
    rounds = profile["total_facts"] + 2 if recursive else 2
    per_round = 0
    for rule in program.rules:
        per_round = _cap(per_round + _rule_join(rule, profile, sizes or {}))
    return _cap(max(per_round, 1) * rounds)


def _rule_join(rule, profile: dict, sizes: dict) -> int:
    """The join product of *rule*'s positive predicate literals."""
    from ..deductive.ast import PredLit

    return join_product(
        [
            sizes[lit.name] if lit.name in sizes else _instance_size(profile, lit.name)
            for lit in rule.body
            if isinstance(lit, PredLit) and lit.positive
        ]
    )


def demand_cost(rewrite, profile: dict) -> int:
    """:func:`col_cost` of a demand rewrite (a
    :class:`~repro.deductive.magic.DemandRewrite`).

    Each magic predicate is priced at its *seed size*: the join product
    of its rules that read no magic predicate (one demanded tuple for a
    seed of constants), plus the seeds of the magic predicates it copies
    from.  Each adorned predicate holds the facts of its demanded
    bindings: the seed size times the share of the facts one binding
    selects (total facts over adom per bound argument), at most all of
    them.  A seed as large as the domain so prices the rewrite above
    the original, and the planner declines it.
    """
    from ..deductive.ast import PredLit

    magic_rules: dict = {name: [] for name in rewrite.magic}
    for rule in rewrite.program.rules:
        if rule.head.name in magic_rules:
            magic_rules[rule.head.name].append(rule)
    seeds: dict = {}

    def seed(name: str, visiting: frozenset) -> int:
        if name in seeds:
            return seeds[name]
        total = 0
        for rule in magic_rules[name]:
            guards = [
                lit.name
                for lit in rule.body
                if isinstance(lit, PredLit) and lit.name in magic_rules
            ]
            if not guards:
                total += _rule_join(rule, profile, {})
            for guard in guards:
                if guard not in visiting:
                    total += seed(guard, visiting | {name})
        seeds[name] = result = _cap(max(total, 1))
        return result

    sizes = {name: seed(name, frozenset()) for name in magic_rules}
    facts = profile["total_facts"]
    adom = max(profile["adom"], 1)
    for guard, name in rewrite.magic.items():
        bound = rewrite.adorned[name][1].count("b")
        share = max(facts // adom**bound, 1)
        sizes[name] = min(facts, _cap(sizes[guard] * share))
    return col_cost(rewrite.program, profile, recursive=True, sizes=sizes)


def bk_cost(program, profile: dict) -> int:
    rounds = profile["total_facts"] + 2
    per_round = 0
    for rule in program.rules:
        sizes = [_instance_size(profile, tail.pred) for tail in rule.tails]
        per_round = _cap(per_round + join_product(sizes))
    return _cap(max(per_round, 1) * rounds)


#: Simulation-route multipliers over a common GTM base cost.  The order
#: encodes the theorems' blow-ups: direct execution beats conventional
#: simulation (Prop 3.1's encodings) beats the compiled COL/ALG programs
#: (Theorems 5.1 / 4.1(b)) beats staged terminal invention (Theorem 6.4).
GTM_ROUTE_FACTOR = {
    "gtm": 100,
    "tm": 1_000,
    "col-compiled": 20_000,
    "alg-compiled": 50_000,
    "calc-terminal": 1_000_000,
}


def gtm_base_cost(profile: dict) -> int:
    return _cap((profile["total_facts"] + 1) * (profile["adom"] + 1))


# ---------------------------------------------------------------------------
# Candidate construction
# ---------------------------------------------------------------------------


def algebra_reads_only(program, predicates) -> bool:
    """Whether an algebra *program* reads the database only through
    variables named after *predicates*.

    A program can read a variable it never assigned only if it is one
    of its ``input_names`` (validation rejects any other), so those
    bound its reads — unless it uses ``EncodeInput``, which lists the
    whole database.
    """
    from ..algebra.ast import Assign, EncodeInput, While

    if not frozenset(program.input_names) <= frozenset(predicates):
        return False
    stack = list(program.statements)
    while stack:
        node = stack.pop()
        if isinstance(node, Assign):
            stack.append(node.expr)
        elif isinstance(node, While):
            stack.extend(node.body)
        elif isinstance(node, EncodeInput):
            return False
        else:
            stack.extend(node.children())
    return True


def _comprehension_candidates(query: Comprehension, database: Database, profile, obj_bound):
    from ..algebra.eval import run_program
    from ..algebra.lowering import comprehension_to_algebra, push_selections
    from ..calculus.eval import evaluate_query
    from ..calculus.lowering import comprehension_to_calculus
    from ..deductive.inflationary import run_inflationary
    from ..deductive.lowering import comprehension_to_col
    from ..deductive.stratify import run_stratified

    query.typecheck(database.schema)
    candidates: list = []
    rewrites: list = []

    calc_query = comprehension_to_calculus(query)
    candidates.append(
        Candidate(
            "calculus",
            calculus_cost(query, profile, obj_bound),
            "limited-interpretation evaluation of the comprehension body",
            lambda db, budget, trace=None, _q=calc_query: evaluate_query(
                _q, db, budget=budget, obj_bound=obj_bound, trace=trace
            ),
        )
    )

    try:
        program = comprehension_to_algebra(query, database.schema)
    except LoweringUnsupported as exc:
        rewrites.append(Rewrite("lower-to-algebra", False, str(exc)))
    else:
        rewrites.append(
            Rewrite("lower-to-algebra", True, "conjunctive scan/select/project")
        )
        program, pushed = push_selections(program, database.schema)
        rewrites.append(
            Rewrite(
                "push-selections",
                pushed > 0,
                f"moved {pushed} condition(s) through products"
                if pushed
                else "no condition crosses a product",
            )
        )
        candidates.append(
            Candidate(
                "algebra",
                algebra_cost(program, profile),
                "hash-join pipeline from the conjunctive core",
                lambda db, budget, trace=None, _p=program: run_program(
                    _p, db, budget=budget, trace=trace
                ),
                fact_driven=algebra_reads_only(program, query.predicates()),
            )
        )

    try:
        col_program = comprehension_to_col(query, database.schema)
    except LoweringUnsupported as exc:
        rewrites.append(Rewrite("lower-to-col", False, str(exc)))
    else:
        rewrites.append(Rewrite("lower-to-col", True, "single range-restricted rule"))
        from ..deductive.ast import PredLit

        has_negation = any(
            isinstance(lit, PredLit) and not lit.positive
            for rule in col_program.rules
            for lit in rule.body
        )
        cost = col_cost(col_program, profile, recursive=False)
        candidates.append(
            Candidate(
                "col-stratified",
                cost,
                f"semi-naive COL^str, answer {col_program.answer}",
                lambda db, budget, trace=None, _p=col_program: run_stratified(
                    _p, db, budget, trace=trace
                ),
            )
        )
        if not has_negation:
            candidates.append(
                Candidate(
                    "col-inflationary",
                    cost + 1,
                    "semi-naive COL^inf (agrees: negation-free)",
                    lambda db, budget, trace=None, _p=col_program: run_inflationary(
                        _p, db, budget, trace=trace
                    ),
                )
            )
    return candidates, rewrites


def _pipeline_candidates(query: PipelineQuery, database: Database, profile):
    from ..algebra.eval import run_program
    from ..algebra.lowering import push_selections

    for name in query.predicates():
        if name not in database.schema:
            raise SchemaError(f"unknown predicate {name!r} in query")
    rewrites: list = []
    program, pushed = push_selections(query.program, database.schema)
    rewrites.append(
        Rewrite(
            "push-selections",
            pushed > 0,
            f"moved {pushed} condition(s) through products"
            if pushed
            else "no condition crosses a product",
        )
    )
    candidates = [
        Candidate(
            "algebra",
            algebra_cost(program, profile),
            "native algebra pipeline",
            lambda db, budget, trace=None, _p=program: run_program(
                _p, db, budget=budget, trace=trace
            ),
            fact_driven=algebra_reads_only(program, query.predicates()),
        )
    ]
    return candidates, rewrites


def _rule_candidates(query: RuleQuery, database: Database, profile):
    from ..deductive.inflationary import run_inflationary
    from ..deductive.magic import NotDemandable, demand_rewrite
    from ..deductive.stratify import run_stratified

    for name in query.predicates():
        if name not in database.schema:
            raise SchemaError(f"unknown predicate {name!r} in query")
    recursive = query.is_recursive()
    cost = col_cost(query.program, profile, recursive)
    program = query.program
    candidates = [
        Candidate(
            "col-stratified",
            cost,
            "semi-naive stratified fixpoint",
            lambda db, budget, trace=None, _p=program: run_stratified(
                _p, db, budget, trace=trace
            ),
        ),
        Candidate(
            "col-naive",
            _cap(cost * 4),
            "full re-join per round (baseline driver)",
            lambda db, budget, trace=None, _p=program: run_stratified(
                _p, db, budget, naive=True, trace=trace
            ),
        ),
    ]
    rewrites = [
        Rewrite(
            "cost-based-join-order",
            True,
            "rule bodies reordered per semi-naive round (greedy SIP, "
            "compiled kernels)",
        ),
        Rewrite(
            "inflationary-equivalence",
            not query.has_negation(),
            "negation-free: COL^inf agrees with COL^str"
            if not query.has_negation()
            else "negation present: COL^inf may differ, skipped",
        )
    ]
    if not query.has_negation():
        candidates.append(
            Candidate(
                "col-inflationary",
                cost + 1,
                "semi-naive inflationary fixpoint",
                lambda db, budget, trace=None, _p=program: run_inflationary(
                    _p, db, budget, trace=trace
                ),
            )
        )
    try:
        demand = demand_rewrite(program, database.schema.names())
    except NotDemandable as exc:
        rewrites.append(Rewrite("demand", False, str(exc)))
    else:
        rewrites.append(Rewrite("demand", True, demand.describe()))
        candidates.append(
            Candidate(
                "col-demand",
                demand_cost(demand, profile),
                "magic-set rewrite, semi-naive stratified fixpoint",
                lambda db, budget, trace=None, _p=demand.program: run_stratified(
                    _p, db, budget, trace=trace
                ),
            )
        )
    return candidates, rewrites


def _bk_candidates(query: BKQuery, database: Database, profile):
    from ..deductive.bk import run_bk

    def runner(naive):
        def run(db, budget, trace=None, _p=query.program, _n=naive):
            mapping = {name: db[name].items for name in db}
            return run_bk(_p, mapping, budget, naive=_n, trace=trace)

        return run

    base = bk_cost(query.program, profile)
    candidates = [
        Candidate("bk-hashjoin", base, "semi-naive with per-predicate hash indexes", runner(False)),
        Candidate("bk-naive", _cap(base * 9), "every rule, every round", runner(True)),
    ]
    return candidates, []


#: Maps our backend names to `core.equivalence` route names.
GTM_ROUTES = {
    "gtm": "gtm",
    "tm": "tm",
    "alg-compiled": "alg_while",
    "col-compiled": "col_stratified",
    "calc-terminal": "calc_terminal",
}


def _gtm_candidates(query: GTMQuery, database: Database, profile):
    from ..core.equivalence import implementations_for

    for name in query.schema.names():
        if name not in database.schema:
            raise SchemaError(
                f"machine {query.name!r} reads {name!r}, absent from the database"
            )
        if database.schema.rtype(name) != query.schema.rtype(name):
            raise SchemaError(
                f"machine {query.name!r} expects {name} : "
                f"{query.schema.rtype(name)!r}, database has "
                f"{database.schema.rtype(name)!r}"
            )
    base = gtm_base_cost(profile)
    candidates = []
    rewrites = []
    for backend, route in GTM_ROUTES.items():
        factor = GTM_ROUTE_FACTOR[backend]

        def run(db, budget, trace=None, _route=route):
            # Simulation routes run whole machines; no kernel trace.
            impls = implementations_for(
                query.machine,
                query.schema,
                query.output_type,
                routes=(_route,),
                budget_factory=lambda: budget,
            )
            return impls[0](db)

        detail = {
            "gtm": "direct generic-machine execution (Section 3)",
            "tm": "conventional simulation over binary codes (Prop 3.1)",
            "alg-compiled": "ALG+while−powerset program (Theorem 4.1(b))",
            "col-compiled": "compiled COL^str program (Theorem 5.1)",
            "calc-terminal": "staged terminal invention (Theorem 6.4)",
        }[backend]
        candidates.append(Candidate(backend, _cap(base * factor), detail, run))
        rewrites.append(
            Rewrite(f"compile-{backend}", True, detail)
        )
    return candidates, rewrites


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def build_plan(
    query: SurfaceQuery, database: Database, obj_bound: int = 200
) -> Plan:
    """Price every applicable backend for *query* on *database*.

    Instance statistics come from the database's memoized
    :class:`~repro.catalog.Catalog` — sizes, active domain, max depth —
    so the plan is a function of *query* and *database* alone.
    """
    profile = Catalog.for_database(database).profile()
    generic = True
    if isinstance(query, LiteralQuery):
        value = query.value
        candidates = [
            Candidate(
                "literal",
                0,
                "ground object",
                lambda db, budget, trace=None, _v=value: _v,
            )
        ]
        rewrites: list = []
    elif isinstance(query, Comprehension):
        candidates, rewrites = _comprehension_candidates(
            query, database, profile, obj_bound
        )
        # Obj-typed variables behave like invented values (Section 6):
        # results may depend on which fresh objects the evaluator
        # enumerates, so such plans must bypass the memo cache.
        generic = query.is_typed()
    elif isinstance(query, PipelineQuery):
        candidates, rewrites = _pipeline_candidates(query, database, profile)
    elif isinstance(query, RuleQuery):
        candidates, rewrites = _rule_candidates(query, database, profile)
    elif isinstance(query, BKQuery):
        candidates, rewrites = _bk_candidates(query, database, profile)
    elif isinstance(query, GTMQuery):
        candidates, rewrites = _gtm_candidates(query, database, profile)
    else:
        raise SchemaError(f"unplannable query {query!r}")
    return Plan(query, candidates, rewrites, profile, generic)


def execute_plan(
    plan: Plan,
    database: Database,
    budget: Budget | None = None,
    backend: str | None = None,
) -> ExecutionReport:
    """Run one candidate (the chosen one by default) and report actuals.

    Backends that execute on the :mod:`repro.engine.ops` kernel fill a
    :class:`~repro.engine.exec.PhysicalTrace`; its rendering (operator
    tree with per-operator counters) lands in
    :attr:`ExecutionReport.physical`.
    """
    from ..engine.exec import PhysicalTrace

    budget = budget or Budget()
    candidate = plan.candidate(backend) if backend else plan.chosen
    trace = PhysicalTrace()
    result = candidate.run(database, budget, trace=trace)
    return ExecutionReport(
        candidate.backend,
        result,
        budget.spent_all(),
        cached=False,
        physical=trace.render(),
        kernel_cache=trace.kernel_stats,
        op_totals=trace.totals(),
    )
