"""Compiled rule kernels: specialised closure pipelines per rule order.

With a :func:`~repro.deductive.ordering.choose_order` schedule fixed,
the set of bound variables before each body step is *static*, so most
of the generic matching machinery in :mod:`repro.deductive.col` can be
specialised away at compile time:

* index specs are pre-resolved — each generator step knows its scan,
  its :class:`~repro.engine.ops.TupleKey` spec over the statically
  determined tuple positions, and a static key extractor (no
  ``NO_KEY`` fallback: boundness cannot vary within a batch);
* tuple matching is unrolled into a flat *action list* (check a
  constant, check a repeated variable, bind a fresh variable) executed
  over one upfront ``dict`` copy per emitted substitution — replacing
  the recursive generator cascade of :func:`repro.deductive.col.match`;
* ground selections are constant-folded (a variable-free equality
  compiles to the identity or the empty pipeline);
* the batch-vs-scan decision is *adaptive*: a step probes a persistent
  index when the index already exists, when the nested scan work would
  exceed the build-plus-probe cost, or when the step's cumulative
  fallback scanning has exceeded the build cost (so fixpoints whose
  batches are individually tiny — the old ``HASH_JOIN_MIN_*`` marginal
  case — still amortise one build across rounds).

Kernels belong to the plan, not to one run: a
:class:`KernelCache` (one per :class:`~repro.query.planner.Plan`)
holds compiled kernels keyed on ``(prepared rule, seed, order_key)``
and memoises :func:`~repro.deductive.ordering.choose_order` on exactly
what it reads — per body literal, the extent size and the distinct
counts of the positions it can determine.  A compiled step holds no
run state: each run resolves its scans from its own
:class:`~repro.deductive.col.Interp`, reads the prepared plan's slot
values from its binding, and writes its actuals into its own
:class:`~repro.engine.ops.OpStats` blocks (:class:`KernelRun`,
:class:`RunKernel`), so concurrent runs of one plan share kernels and
EXPLAIN ANALYZE renders each run's own orders, estimates and counters.
Within a run a kernel is re-ordered (and switched only if the order
actually moved) when its ordering inputs change materially
(:func:`~repro.deductive.ordering.material_change`).

Budget charging mirrors the naive drivers' textual join
(:func:`repro.deductive.col.textual_substitutions`): one ``steps`` unit
per candidate fact considered and one per pipeline step, so
budget-bounded runs observe ``?`` exactly as before.
"""

from __future__ import annotations

from ..catalog.estimator import FuncStats
from ..catalog.policy import material_change, should_index as _should_index
from ..engine.ops import FIRST_COORDINATE, OpStats, TupleKey
from ..model.substitute import substitute
from ..model.values import Tup
from ..obs.span import span
from .ast import ConstD, EqLit, FuncLit, FuncT, PredLit, SetD, TupD, VarD
from .col import Interp, _eval_ground, eval_term, match
from .ordering import choose_order

__all__ = ["KernelCache", "KernelRun", "RuleKernel", "RunKernel"]


def _has_funct(term) -> bool:
    if isinstance(term, FuncT):
        return True
    if isinstance(term, (TupD, SetD)):
        return any(_has_funct(item) for item in term.items)
    return False


# ---------------------------------------------------------------------------
# Step compilers
# ---------------------------------------------------------------------------
#
# Each returns ``(run, params, source)``: ``run(substitutions, neg,
# budget, delta, state) -> list`` is shared by every run of the kernel;
# ``params`` are the values it reads that may mention a prepared plan's
# placeholder atoms (bound once per run into ``state.params``); and
# ``source`` names the extent the step reads (resolved per run into
# ``state.source``).  ``state`` is the run's :class:`StepState`.


def _compile_seed():
    def run(substitutions, neg, budget, delta, state):
        count = len(substitutions)
        stats = state.stats
        stats.rows_in += count
        stats.rows_out += count
        return substitutions

    return run, None, None


def _compile_bind(step):
    def run(substitutions, neg, budget, delta, state):
        name, val_side = state.params
        stats = state.stats
        stats.rows_in += len(substitutions)
        out = []
        for subst in substitutions:
            extended = dict(subst)
            extended[name] = eval_term(val_side, subst, neg)
            out.append(extended)
        stats.rows_out += len(out)
        return out

    return run, step.binder, None


def _compile_filter(literal):
    if isinstance(literal, EqLit):
        left, right, positive = literal.left, literal.right, literal.positive
        if not literal.variables() and not (_has_funct(left) or _has_funct(right)):
            # Ground comparison: constant-fold to identity or empty.  A
            # prepared plan's placeholders compare exactly as its
            # constants do (equal constants share a placeholder), so
            # the fold holds for every binding.
            truth = (_eval_ground(left, {}) == _eval_ground(right, {})) == positive

            def run(substitutions, neg, budget, delta, state):
                stats = state.stats
                stats.rows_in += len(substitutions)
                out = substitutions if truth else []
                stats.rows_out += len(out)
                return out

            return run, None, None

        def run(substitutions, neg, budget, delta, state):
            left, right = state.params
            stats = state.stats
            stats.rows_in += len(substitutions)
            out = [
                subst
                for subst in substitutions
                if (eval_term(left, subst, neg) == eval_term(right, subst, neg))
                == positive
            ]
            stats.rows_out += len(out)
            return out

        return run, (left, right), None
    if isinstance(literal, PredLit):  # negated membership
        name = literal.name

        def run(substitutions, neg, budget, delta, state):
            term = state.params
            stats = state.stats
            stats.rows_in += len(substitutions)
            facts = neg.preds.get(name, ())
            out = [
                subst
                for subst in substitutions
                if eval_term(term, subst, neg) not in facts
            ]
            stats.rows_out += len(out)
            return out

        return run, literal.term, None
    # Negated function membership.
    func = literal.func

    def run(substitutions, neg, budget, delta, state):
        arg_term, el_term = state.params
        stats = state.stats
        stats.rows_in += len(substitutions)
        graphs = neg.funcs
        out = []
        for subst in substitutions:
            arg = eval_term(arg_term, subst, neg)
            element = eval_term(el_term, subst, neg)
            if element not in graphs.get(func, {}).get(arg, ()):
                out.append(subst)
        stats.rows_out += len(out)
        return out

    return run, (literal.arg, literal.element), None


def _tuple_shape(term: TupD, bound: set):
    """Static analysis of a tuple generator term.

    Returns ``(det_positions, key_parts, actions, probe_actions)``:
    determined positions and their static key extractors, plus the flat
    action list over *all* positions (kind 0: check constant, 1: check
    against current binding, 2: bind fresh variable) and the reduced
    list that skips the determined positions (sound on the indexed
    path: bucket membership already guarantees them).  ``actions`` is
    ``None`` when some item is not a plain constant/variable (the
    runner then falls back to :func:`repro.deductive.col.match`).
    """
    det_positions: list = []
    key_parts: list = []
    actions: list = []
    simple = True
    seen: set = set()
    for position, sub in enumerate(term.items):
        if isinstance(sub, ConstD):
            det_positions.append(position)
            key_parts.append((True, sub.value))
            actions.append((0, position, sub.value))
        elif isinstance(sub, VarD):
            if sub.name in bound:
                det_positions.append(position)
                key_parts.append((False, sub.name))
                actions.append((1, position, sub.name))
            elif sub.name in seen:
                actions.append((1, position, sub.name))
            else:
                seen.add(sub.name)
                actions.append((2, position, sub.name))
        else:
            simple = False
    if not simple:
        actions = None
        probe_actions = None
    else:
        determined = set(det_positions)
        probe_actions = [a for a in actions if a[1] not in determined]
    return det_positions, key_parts, actions, probe_actions


def _compile_pred(literal, bound: set, mode: str):
    name = literal.name
    term = literal.term
    source = ("pred", name)

    if isinstance(term, TupD):
        det_positions, key_parts, actions, probe_actions = _tuple_shape(term, bound)
        arity = len(term.items)
        spec = TupleKey(arity, tuple(det_positions)) if det_positions else None
        lead = term.items[0]
        lead_const = lead.value if isinstance(lead, ConstD) else None
        lead_var = (
            lead.name
            if isinstance(lead, VarD) and lead.name in bound
            else None
        )
        params = (tuple(key_parts), actions, probe_actions, lead_const, term)

        def run(substitutions, neg, budget, delta, state):
            key_parts, actions, probe_actions, lead_const, term = state.params
            stats = state.stats
            scan = state.source
            batch = len(substitutions)
            stats.rows_in += batch
            exclude = delta.preds.get(name) if mode == "old" and delta else None
            if not exclude:
                exclude = None
            facts = scan.facts
            extent = len(facts)
            out: list = []
            use_index = Interp.use_index
            charge = budget.charge
            if (
                spec is not None
                and use_index
                and extent
                and (scan.has_index(spec) or _should_index(batch, extent, state.scanned))
            ):
                index = scan.index(spec)
                stats.probes += batch
                for subst in substitutions:
                    bucket = index.get(
                        tuple(
                            value if is_const else subst[value]
                            for is_const, value in key_parts
                        )
                    )
                    if not bucket:
                        continue
                    if exclude is None:
                        charge("steps", len(bucket))
                    if probe_actions is not None:
                        for fact in bucket:
                            if exclude is not None:
                                if fact in exclude:
                                    continue
                                charge("steps")
                            items = fact.items
                            extended = dict(subst)
                            matched = True
                            for kind, position, payload in probe_actions:
                                value = items[position]
                                if kind == 2:
                                    extended[payload] = value
                                elif value != (
                                    extended[payload] if kind == 1 else payload
                                ):
                                    matched = False
                                    break
                            if matched:
                                out.append(extended)
                    else:
                        for fact in bucket:
                            if exclude is not None:
                                if fact in exclude:
                                    continue
                                charge("steps")
                            out.extend(match(term, fact, subst))
            else:
                state.scanned += batch * extent
                for subst in substitutions:
                    if use_index and (lead_const is not None or lead_var is not None):
                        key = lead_const if lead_const is not None else subst[lead_var]
                        candidates = scan.probe(FIRST_COORDINATE, key)
                    else:
                        candidates = facts
                    if actions is not None:
                        for fact in candidates:
                            if exclude is not None and fact in exclude:
                                continue
                            charge("steps")
                            if not isinstance(fact, Tup) or len(fact.items) != arity:
                                continue
                            items = fact.items
                            extended = dict(subst)
                            matched = True
                            for kind, position, payload in actions:
                                value = items[position]
                                if kind == 2:
                                    extended[payload] = value
                                elif value != (
                                    extended[payload] if kind == 1 else payload
                                ):
                                    matched = False
                                    break
                            if matched:
                                out.append(extended)
                    else:
                        for fact in candidates:
                            if exclude is not None and fact in exclude:
                                continue
                            charge("steps")
                            out.extend(match(term, fact, subst))
            stats.rows_out += len(out)
            return out

        return run, params, source

    if isinstance(term, ConstD) or (isinstance(term, VarD) and term.name in bound):
        # Fully determined non-tuple term: a membership probe.
        const_value = term.value if isinstance(term, ConstD) else None
        var_name = term.name if isinstance(term, VarD) else None

        def run(substitutions, neg, budget, delta, state):
            const_value = state.params
            stats = state.stats
            stats.rows_in += len(substitutions)
            exclude = delta.preds.get(name) if mode == "old" and delta else None
            facts = state.source.facts
            out = []
            charge = budget.charge
            for subst in substitutions:
                value = const_value if var_name is None else subst[var_name]
                charge("steps")
                stats.probes += 1
                if value in facts and not (exclude and value in exclude):
                    out.append(subst)
            stats.rows_out += len(out)
            return out

        return run, const_value, source

    if isinstance(term, VarD):
        # Fresh variable over the whole extent: bind every fact.
        var_name = term.name

        def run(substitutions, neg, budget, delta, state):
            stats = state.stats
            stats.rows_in += len(substitutions)
            exclude = delta.preds.get(name) if mode == "old" and delta else None
            if not exclude:
                exclude = None
            facts = state.source.facts
            out = []
            charge = budget.charge
            for subst in substitutions:
                if exclude is None:
                    charge("steps", len(facts))
                for fact in facts:
                    if exclude is not None:
                        if fact in exclude:
                            continue
                        charge("steps")
                    extended = dict(subst)
                    extended[var_name] = fact
                    out.append(extended)
            stats.rows_out += len(out)
            return out

        return run, None, source

    # Set patterns and anything richer: generic match over the extent.
    def run(substitutions, neg, budget, delta, state):
        term = state.params
        stats = state.stats
        stats.rows_in += len(substitutions)
        exclude = delta.preds.get(name) if mode == "old" and delta else None
        if not exclude:
            exclude = None
        facts = state.source.facts
        out = []
        charge = budget.charge
        for subst in substitutions:
            for fact in facts:
                if exclude is not None and fact in exclude:
                    continue
                charge("steps")
                out.extend(match(term, fact, subst))
        stats.rows_out += len(out)
        return out

    return run, term, source


def _compile_func(literal, bound: set, mode: str):
    func = literal.func
    arg_bound = literal.arg.variables() <= bound and not _has_funct(literal.arg)

    def run(substitutions, neg, budget, delta, state):
        arg_term, el_term = state.params
        graph = state.source
        stats = state.stats
        stats.rows_in += len(substitutions)
        exclude = delta.funcs.get(func) if mode == "old" and delta else None
        if not exclude:
            exclude = None
        out: list = []
        charge = budget.charge
        for subst in substitutions:
            if arg_bound:
                arg = _eval_ground(arg_term, subst)
                elements = graph.get(arg)
                if not elements:
                    continue
                pairs = ((arg, subst, element) for element in elements)
            else:
                pairs = (
                    (arg, arg_subst, element)
                    for arg, elements in graph.items()
                    for arg_subst in match(arg_term, arg, subst)
                    for element in elements
                )
            for arg, arg_subst, element in pairs:
                if exclude is not None and (arg, element) in exclude:
                    continue
                charge("steps")
                out.extend(match(el_term, element, arg_subst))
        stats.rows_out += len(out)
        return out

    return run, (literal.arg, literal.element), ("func", func)


# ---------------------------------------------------------------------------
# Kernels, their per-run state, and the shared cache
# ---------------------------------------------------------------------------


class StepState:
    """One run's side of a compiled step: its actuals (``stats``), its
    adaptive scan-work tally (``scanned``), the extent it reads
    (``source``) and its parameters with the run's constants bound."""

    __slots__ = ("stats", "scanned", "source", "params")

    def __init__(self, source, params):
        self.stats = OpStats()
        self.scanned = 0
        self.source = source
        self.params = params


class CompiledStep:
    """One compiled pipeline step plus its plan metadata.

    Immutable once built, so one instance serves concurrent runs:
    everything a run reads or writes beyond it lives in the run's
    :class:`StepState` (:meth:`state`)."""

    __slots__ = ("plan", "run", "params", "slotted", "source")

    def __init__(self, plan_step, bound: set, slots: dict):
        self.plan = plan_step
        kind = plan_step.kind
        if kind == "seed":
            compiled = _compile_seed()
        elif kind == "bind":
            compiled = _compile_bind(plan_step)
        elif kind == "filter":
            compiled = _compile_filter(plan_step.literal)
        elif isinstance(plan_step.literal, PredLit):
            compiled = _compile_pred(plan_step.literal, bound, plan_step.mode)
        else:
            compiled = _compile_func(plan_step.literal, bound, plan_step.mode)
        self.run, self.params, self.source = compiled
        self.slotted = substitute(self.params, slots) is not self.params

    def state(self, interp: Interp, values: dict) -> StepState:
        """A fresh run state: the step's extent in *interp* (created
        empty if absent, as compiling against it always did) and its
        parameters with *values* substituted."""
        source = self.source
        if source is not None:
            kind, name = source
            source = interp.pred(name) if kind == "pred" else interp.func_graph(name)
        params = substitute(self.params, values) if self.slotted else self.params
        return StepState(source, params)


class RuleKernel:
    """A rule body compiled against one chosen order (and seed).

    Compiled from a rule as prepared — its constants may be a plan's
    placeholder atoms, which each run binds (:meth:`CompiledStep.state`)
    — and shared by every run that reaches the same order."""

    __slots__ = ("rule", "seed", "order_key", "steps")

    def __init__(self, rule, seed, plan, order_key, slots: dict):
        self.rule = rule
        self.seed = seed
        self.order_key = order_key
        bound: set = set()
        steps = []
        for plan_step in plan:
            steps.append(CompiledStep(plan_step, bound, slots))
            if plan_step.kind in ("seed", "gen"):
                bound |= plan_step.literal.variables()
            elif plan_step.kind == "bind":
                bound.add(plan_step.binder[0])
        self.steps = steps


class RunKernel:
    """One run's use of a :class:`RuleKernel`: the bound *rule* it runs
    for, the schedule (*plan*, with its estimates) and ordering inputs
    it was chosen under, and one :class:`StepState` per step — so
    EXPLAIN renders this run's rule, estimates and counters however
    many runs share the kernel."""

    __slots__ = ("kernel", "rule", "plan", "sizes", "states")

    def __init__(self, kernel: RuleKernel, rule, plan, sizes, interp: Interp, values: dict):
        self.kernel = kernel
        self.rule = rule
        self.plan = plan
        self.sizes = sizes
        self.states = [step.state(interp, values) for step in kernel.steps]

    def describe(self) -> str:
        seed = self.kernel.seed
        suffix = f" Δ{seed}" if seed is not None else ""
        return f"{self.rule.head!r}{suffix}"

    def step_rows(self):
        """``(label, estimate, stats)`` per step, labelled with this
        run's literals."""
        body = self.rule.body
        for step, state in zip(self.plan, self.states):
            yield step.label(body[step.index]), step.est_out, state.stats

    def run(self, substitutions, neg, budget, delta=None) -> list:
        """Execute the compiled pipeline."""
        charge = budget.charge
        for step, state in zip(self.kernel.steps, self.states):
            charge("steps")
            substitutions = step.run(substitutions, neg, budget, delta, state)
            if not substitutions:
                break
        return substitutions


#: Bound on a cache's memoised orders: each distinct combination of
#: ordering inputs is one entry, and a long-lived plan meets many.
ORDER_MEMO_ENTRIES = 4096


def _order_inputs(body, stats: dict) -> tuple:
    """Exactly what :func:`~repro.deductive.ordering.choose_order` reads
    of *stats*: per positive generator, its extent size and the
    distinct counts of every position a constant or variable can
    determine."""
    inputs = []
    for literal in body:
        if isinstance(literal, PredLit):
            if not literal.positive:
                continue
            found = stats.get(("pred", literal.name), 0)
            if type(found) is int:
                inputs.append(found)
                continue
            term = literal.term
            if isinstance(term, TupD):
                inputs.append(
                    (
                        found.size,
                        tuple(
                            found.distinct(position)
                            for position, sub in enumerate(term.items)
                            if isinstance(sub, (ConstD, VarD))
                        ),
                    )
                )
            else:
                inputs.append(found.size)
        elif isinstance(literal, FuncLit) and literal.positive:
            found = stats.get(("func", literal.func), 0)
            inputs.append(found if type(found) is int else (found.size, found.args))
    return tuple(inputs)


class KernelCache:
    """Compiled kernels and chosen orders, shared by every run of one
    plan.

    Kernels are keyed on ``(prepared rule, seed, order_key)`` and
    orders on ``(prepared rule, seed, ordering inputs)``; both are pure
    functions of their keys, so concurrent runs only ever insert, and
    a duplicate insert keeps the first entry.  Nothing else is written
    during a run: counters, ordering inputs and step actuals belong to
    the run (:class:`KernelRun`).
    """

    __slots__ = ("compiled", "orders")

    def __init__(self):
        self.compiled: dict = {}
        self.orders: dict = {}

    def order(self, rule, stats: dict, seed):
        key = (rule, seed, _order_inputs(rule.body, stats))
        found = self.orders.get(key)
        if found is None:
            found = choose_order(rule.body, stats, seed=seed)
            if len(self.orders) < ORDER_MEMO_ENTRIES:
                found = self.orders.setdefault(key, found)
        return found


class KernelRun:
    """One fixpoint run's view of a :class:`KernelCache`, per
    :class:`~repro.deductive.col.Interp`.

    A lookup revalidates the run's current kernel for ``(rule, seed)``
    against the extents' sizes: sizes that moved materially trigger a
    re-order, and an actually-different order switches kernels
    (counted in ``invalidations``).  ``misses`` counts compilations and
    ``hits`` every lookup a compiled kernel served — a prepared plan's
    later runs hit on their first lookup.

    *binding* (a :class:`~repro.model.substitute.Binding`) supplies the
    shared cache and the run's constants, and maps each bound rule to
    the prepared rule its kernels are compiled from; without one the
    run compiles into a cache of its own.
    """

    __slots__ = (
        "cache", "interp", "binding", "values", "current",
        "hits", "misses", "invalidations",
    )

    def __init__(self, interp: Interp, binding=None):
        self.interp = interp
        self.binding = binding
        self.cache = binding.kernels if binding is not None else KernelCache()
        self.values = binding.values if binding is not None else {}
        self.current: dict = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _sizes(self, rule) -> dict:
        sizes: dict = {}
        preds = self.interp.preds
        funcs = self.interp.funcs
        for literal in rule.body:
            if isinstance(literal, PredLit):
                scan = preds.get(literal.name)
                sizes[("pred", literal.name)] = len(scan) if scan is not None else 0
            elif isinstance(literal, FuncLit):
                graph = funcs.get(literal.func)
                sizes[("func", literal.func)] = (
                    sum(len(elements) for elements in graph.values()) if graph else 0
                )
        return sizes

    def _stats(self, rule) -> dict:
        """Ordering inputs with per-position statistics: predicate
        extents report their (material-change-cached) ``RelStats``,
        function graphs their pair/argument counts."""
        stats: dict = {}
        preds = self.interp.preds
        funcs = self.interp.funcs
        for literal in rule.body:
            if isinstance(literal, PredLit):
                scan = preds.get(literal.name)
                stats[("pred", literal.name)] = (
                    scan.rel_stats() if scan is not None and len(scan) else 0
                )
            elif isinstance(literal, FuncLit):
                graph = funcs.get(literal.func)
                pairs = (
                    sum(len(elements) for elements in graph.values())
                    if graph
                    else 0
                )
                stats[("func", literal.func)] = FuncStats(
                    pairs, len(graph) if graph else 0
                )
        return stats

    def kernel(self, rule, seed: int | None = None) -> RunKernel:
        prepared = self.binding.original(rule) if self.binding is not None else rule
        key = (prepared, seed)
        entry = self.current.get(key)
        sizes = self._sizes(rule)
        if entry is not None and not material_change(entry.sizes, sizes):
            self.hits += 1
            return entry
        plan, order_key = self.cache.order(prepared, self._stats(rule), seed)
        if entry is not None:
            if order_key == entry.kernel.order_key:
                entry.sizes = sizes
                self.hits += 1
                return entry
            self.invalidations += 1
        compiled_key = (prepared, seed, order_key)
        kernel = self.cache.compiled.get(compiled_key)
        if kernel is None:
            self.misses += 1
            with span("deductive.kernel_compile", seed=seed):
                kernel = RuleKernel(prepared, seed, plan, order_key, self.values)
            kernel = self.cache.compiled.setdefault(compiled_key, kernel)
        else:
            self.hits += 1
        entry = RunKernel(kernel, rule, plan, sizes, self.interp, self.values)
        self.current[key] = entry
        return entry

    def kernels(self) -> list:
        """This run's kernels in first-lookup order."""
        return list(self.current.values())

    def counters(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }
