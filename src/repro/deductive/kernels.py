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

Kernels live in a per-:class:`~repro.deductive.col.Interp`
:class:`KernelCache` keyed on rule identity and seed occurrence; a
cached kernel is re-ordered (and recompiled only if the order actually
moved) when its ordering inputs change materially
(:func:`~repro.deductive.ordering.material_change`).  Each step carries
an :class:`~repro.engine.ops.OpStats` block, so EXPLAIN ANALYZE can
render the chosen order with estimated vs. actual cardinalities.

Budget charging mirrors the naive drivers' textual join
(:func:`repro.deductive.col.textual_substitutions`): one ``steps`` unit
per candidate fact considered and one per pipeline step, so
budget-bounded runs observe ``?`` exactly as before.
"""

from __future__ import annotations

from ..catalog.estimator import FuncStats
from ..catalog.policy import material_change, should_index as _should_index
from ..engine.ops import FIRST_COORDINATE, OpStats, TupleKey
from ..model.values import Tup
from ..obs.span import span
from .ast import ConstD, EqLit, FuncLit, FuncT, PredLit, SetD, TupD, VarD
from .col import Interp, _eval_ground, eval_term, match
from .ordering import choose_order

__all__ = ["KernelCache", "RuleKernel"]


def _has_funct(term) -> bool:
    if isinstance(term, FuncT):
        return True
    if isinstance(term, (TupD, SetD)):
        return any(_has_funct(item) for item in term.items)
    return False


# ---------------------------------------------------------------------------
# Step compilers — each returns run(substitutions, neg, budget, delta) -> list
# ---------------------------------------------------------------------------


def _compile_seed(stats: OpStats):
    def run(substitutions, neg, budget, delta):
        count = len(substitutions)
        stats.rows_in += count
        stats.rows_out += count
        return substitutions

    return run


def _compile_bind(step, stats: OpStats):
    name, val_side = step.binder

    def run(substitutions, neg, budget, delta):
        stats.rows_in += len(substitutions)
        out = []
        for subst in substitutions:
            extended = dict(subst)
            extended[name] = eval_term(val_side, subst, neg)
            out.append(extended)
        stats.rows_out += len(out)
        return out

    return run


def _compile_filter(literal, stats: OpStats):
    if isinstance(literal, EqLit):
        left, right, positive = literal.left, literal.right, literal.positive
        if not literal.variables() and not (_has_funct(left) or _has_funct(right)):
            # Ground comparison: constant-fold to identity or empty.
            truth = (_eval_ground(left, {}) == _eval_ground(right, {})) == positive

            def run(substitutions, neg, budget, delta):
                stats.rows_in += len(substitutions)
                out = substitutions if truth else []
                stats.rows_out += len(out)
                return out

            return run

        def run(substitutions, neg, budget, delta):
            stats.rows_in += len(substitutions)
            out = [
                subst
                for subst in substitutions
                if (eval_term(left, subst, neg) == eval_term(right, subst, neg))
                == positive
            ]
            stats.rows_out += len(out)
            return out

        return run
    if isinstance(literal, PredLit):  # negated membership
        name, term = literal.name, literal.term

        def run(substitutions, neg, budget, delta):
            stats.rows_in += len(substitutions)
            facts = neg.preds.get(name, ())
            out = [
                subst
                for subst in substitutions
                if eval_term(term, subst, neg) not in facts
            ]
            stats.rows_out += len(out)
            return out

        return run
    # Negated function membership.
    func, arg_term, el_term = literal.func, literal.arg, literal.element

    def run(substitutions, neg, budget, delta):
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

    return run


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


def _compile_pred(literal, bound: set, mode: str, interp: Interp, stats: OpStats):
    scan = interp.pred(literal.name)
    name = literal.name
    term = literal.term

    if isinstance(term, TupD):
        det_positions, key_parts, actions, probe_actions = _tuple_shape(term, bound)
        arity = len(term.items)
        spec = TupleKey(arity, tuple(det_positions)) if det_positions else None

        def key_of(subst, _parts=tuple(key_parts)):
            return tuple(
                value if is_const else subst[value] for is_const, value in _parts
            )

        lead = term.items[0]
        lead_const = lead.value if isinstance(lead, ConstD) else None
        lead_var = (
            lead.name
            if isinstance(lead, VarD) and lead.name in bound
            else None
        )
        scanned = [0]

        def run(substitutions, neg, budget, delta):
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
                and (scan.has_index(spec) or _should_index(batch, extent, scanned[0]))
            ):
                index = scan.index(spec)
                stats.probes += batch
                for subst in substitutions:
                    bucket = index.get(key_of(subst))
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
                scanned[0] += batch * extent
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

        return run

    if isinstance(term, ConstD) or (isinstance(term, VarD) and term.name in bound):
        # Fully determined non-tuple term: a membership probe.
        const_value = term.value if isinstance(term, ConstD) else None
        var_name = term.name if isinstance(term, VarD) else None

        def run(substitutions, neg, budget, delta):
            stats.rows_in += len(substitutions)
            exclude = delta.preds.get(name) if mode == "old" and delta else None
            facts = scan.facts
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

        return run

    if isinstance(term, VarD):
        # Fresh variable over the whole extent: bind every fact.
        var_name = term.name

        def run(substitutions, neg, budget, delta):
            stats.rows_in += len(substitutions)
            exclude = delta.preds.get(name) if mode == "old" and delta else None
            if not exclude:
                exclude = None
            facts = scan.facts
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

        return run

    # Set patterns and anything richer: generic match over the extent.
    def run(substitutions, neg, budget, delta):
        stats.rows_in += len(substitutions)
        exclude = delta.preds.get(name) if mode == "old" and delta else None
        if not exclude:
            exclude = None
        facts = scan.facts
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

    return run


def _compile_func(literal, bound: set, mode: str, interp: Interp, stats: OpStats):
    graph = interp.func_graph(literal.func)
    func = literal.func
    arg_term, el_term = literal.arg, literal.element
    arg_bound = arg_term.variables() <= bound and not _has_funct(arg_term)

    def run(substitutions, neg, budget, delta):
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

    return run


# ---------------------------------------------------------------------------
# Kernels and their cache
# ---------------------------------------------------------------------------


class CompiledStep:
    """One compiled pipeline step plus its plan metadata and actuals."""

    __slots__ = ("plan", "stats", "run")

    def __init__(self, plan_step, bound: set, interp: Interp):
        self.plan = plan_step
        self.stats = OpStats()
        kind = plan_step.kind
        if kind == "seed":
            self.run = _compile_seed(self.stats)
        elif kind == "bind":
            self.run = _compile_bind(plan_step, self.stats)
        elif kind == "filter":
            self.run = _compile_filter(plan_step.literal, self.stats)
        elif isinstance(plan_step.literal, PredLit):
            self.run = _compile_pred(
                plan_step.literal, bound, plan_step.mode, interp, self.stats
            )
        else:
            self.run = _compile_func(
                plan_step.literal, bound, plan_step.mode, interp, self.stats
            )


class RuleKernel:
    """A rule body compiled against one chosen order (and seed)."""

    __slots__ = ("rule", "seed", "order_key", "sizes", "steps")

    def __init__(self, rule, seed, plan, order_key, sizes, interp: Interp):
        self.rule = rule
        self.seed = seed
        self.order_key = order_key
        self.sizes = sizes
        bound: set = set()
        steps = []
        for plan_step in plan:
            steps.append(CompiledStep(plan_step, bound, interp))
            if plan_step.kind in ("seed", "gen"):
                bound |= plan_step.literal.variables()
            elif plan_step.kind == "bind":
                bound.add(plan_step.binder[0])
        self.steps = steps

    def describe(self) -> str:
        suffix = f" Δ{self.seed}" if self.seed is not None else ""
        return f"{self.rule.head!r}{suffix}"

    def run(self, substitutions, neg, budget, delta=None) -> list:
        """Execute the compiled pipeline."""
        charge = budget.charge
        for step in self.steps:
            charge("steps")
            substitutions = step.run(substitutions, neg, budget, delta)
            if not substitutions:
                break
        return substitutions


class KernelCache:
    """Per-:class:`~repro.deductive.col.Interp` compiled-kernel cache.

    Keyed on ``(id(rule), seed)`` — the kernel keeps a strong reference
    to the rule, so ids cannot be recycled under us.  A hit revalidates
    the cached ordering inputs: sizes that moved materially trigger a
    re-order, and only an actually-different order recompiles (counted
    in ``invalidations``).
    """

    __slots__ = ("interp", "entries", "hits", "misses", "invalidations")

    def __init__(self, interp: Interp):
        self.interp = interp
        self.entries: dict = {}
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

    def kernel(self, rule, seed: int | None = None) -> RuleKernel:
        key = (id(rule), seed)
        entry = self.entries.get(key)
        sizes = self._sizes(rule)
        if entry is not None and not material_change(entry.sizes, sizes):
            self.hits += 1
            return entry
        plan, order_key = choose_order(rule.body, self._stats(rule), seed=seed)
        if entry is not None:
            if order_key == entry.order_key:
                entry.sizes = sizes
                self.hits += 1
                return entry
            self.invalidations += 1
        self.misses += 1
        with span("deductive.kernel_compile", seed=seed):
            entry = RuleKernel(rule, seed, plan, order_key, sizes, self.interp)
        self.entries[key] = entry
        return entry

    def kernels(self) -> list:
        """All cached kernels in first-compilation order."""
        return list(self.entries.values())

    def counters(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }
