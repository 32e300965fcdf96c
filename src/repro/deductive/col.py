"""COL evaluation core: interpretations, matching, rule application.

An :class:`Interp` holds the current facts: a set of member objects per
predicate, and a graph ``arg -> set of elements`` per data function.
Rules are evaluated by naive join over the current facts — variables
are instantiated by *matching* rule terms against stored objects
(range-restriction guarantees this covers every variable), never by
enumerating rtype domains, so untyped-set programs with growing values
(the Theorem 5.1 counter!) run in time proportional to what they
derive.

Set-term patterns in bodies are supported when ground or of the
singleton form ``{t}`` (which is all the paper's constructions need);
richer set matching would require an ACI-unification engine with no
additional expressive payoff here.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..budget import Budget
from ..catalog.policy import should_index
from ..engine.ops import (
    FIRST_COORDINATE,
    NO_KEY,
    FixpointDriver,
    HashJoin,
    Scan,
    TupleKey,
)
from ..errors import EvaluationError
from ..model.schema import Database
from ..model.values import SetVal, Tup, Value
from .ast import (
    ConstD,
    DTerm,
    EqLit,
    FuncLit,
    FuncT,
    PredLit,
    Rule,
    SetD,
    TupD,
    VarD,
)


class Interp:
    """An interpretation: predicate extents and data-function graphs.

    Each predicate's extent is a kernel :class:`~repro.engine.ops.Scan`
    — a relation extent with lazily-built, incrementally-maintained
    hash indexes.  The first-coordinate index
    (:data:`~repro.engine.ops.FIRST_COORDINATE`) makes rule bodies
    whose leading tuple component is already bound join in
    near-constant time — without this, the Theorem 5.1 machine
    histories (facts keyed by a time column) degrade to quadratic
    scans — and the scans' per-operator counters feed EXPLAIN's
    physical actuals.
    """

    #: Class-wide ablation switch: set to False to disable index use
    #: (every bound-leading-component join then falls back to a full
    #: scan).  Used by the ablation benchmark.
    use_index = True

    def __init__(self, binding=None):
        self.preds: dict = {}
        self.funcs: dict = {}
        #: The run's :class:`~repro.model.substitute.Binding` when it
        #: executes a prepared plan: where its compiled kernels are
        #: shared and its constants bound (see :meth:`kernels`).
        self.binding = binding
        self._kernels = None

    @classmethod
    def from_database(cls, database: Database, binding=None) -> "Interp":
        from ..catalog import Catalog

        interp = cls(binding)
        catalog = Catalog.for_database(database)
        for name in database.schema.names():
            for value in database[name].items:
                interp.add_pred(name, value)
            scan = interp.pred(name)
            if scan.facts:
                # Seed the scan's statistics snapshot from the
                # database's catalog: computed once per database, not
                # once per evaluation, and replaced (never mutated)
                # if this extent later moves materially.
                scan._rel_stats = catalog.rel(name)
        return interp

    def copy(self) -> "Interp":
        duplicate = Interp()
        duplicate.preds = {name: scan.copy() for name, scan in self.preds.items()}
        duplicate.funcs = {
            name: {arg: set(elems) for arg, elems in graph.items()}
            for name, graph in self.funcs.items()
        }
        return duplicate

    def kernels(self):
        """This interpretation's :class:`~repro.deductive.kernels.KernelRun`
        (lazy): the run's view of its plan's shared kernel cache, or of
        a cache of its own outside a plan."""
        run = self._kernels
        if run is None:
            from .kernels import KernelRun

            run = self._kernels = KernelRun(self, self.binding)
        return run

    def pred(self, name: str) -> Scan:
        scan = self.preds.get(name)
        if scan is None:
            scan = self.preds[name] = Scan(name)
        return scan

    def pred_by_first(self, name: str, first: Value) -> set:
        """Facts of *name* whose first coordinate equals *first*."""
        scan = self.preds.get(name)
        if scan is None:
            return set()
        return scan.probe(FIRST_COORDINATE, first)

    def func_graph(self, name: str) -> dict:
        return self.funcs.setdefault(name, {})

    def func_value(self, name: str, arg: Value) -> SetVal:
        """The (current) set value ``F(arg)`` — empty if undefined."""
        return SetVal(self.funcs.get(name, {}).get(arg, set()))

    def add_pred(self, name: str, value: Value) -> bool:
        return self.pred(name).add(value)

    def add_func(self, name: str, arg: Value, element: Value) -> bool:
        graph = self.func_graph(name)
        elems = graph.setdefault(arg, set())
        if element in elems:
            return False
        elems.add(element)
        return True

    def instance(self, name: str) -> SetVal:
        return SetVal(self.preds.get(name, set()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interp)
            and self.preds == other.preds
            and self.funcs == other.funcs
        )

    def __repr__(self) -> str:
        parts = [f"{n}={SetVal(v)}" for n, v in sorted(self.preds.items())]
        for name, graph in sorted(self.funcs.items()):
            for arg, elems in graph.items():
                parts.append(f"{name}({arg})={SetVal(elems)}")
        return "Interp(" + ", ".join(parts) + ")"


def match(term: DTerm, value: Value, subst: dict) -> Iterator[dict]:
    """All extensions of *subst* making *term* equal *value*."""
    if isinstance(term, VarD):
        if term.name in subst:
            if subst[term.name] == value:
                yield subst
            return
        extended = dict(subst)
        extended[term.name] = value
        yield extended
        return
    if isinstance(term, ConstD):
        if term.value == value:
            yield subst
        return
    if isinstance(term, TupD):
        if not isinstance(value, Tup) or len(value) != len(term.items):
            return
        yield from _match_sequence(term.items, value.items, subst)
        return
    if isinstance(term, SetD):
        if not isinstance(value, SetVal):
            return
        free = term.variables() - set(subst)
        if not free:
            # Ground (under subst): compare evaluated set for equality.
            evaluated = SetVal(
                _eval_ground(item, subst) for item in term.items
            )
            if evaluated == value:
                yield subst
            return
        if len(term.items) == 1:
            # Singleton pattern {t}: matches only singleton sets.
            if len(value) == 1:
                yield from match(term.items[0], next(iter(value)), subst)
            return
        raise EvaluationError(
            f"set pattern {term!r} too complex to match (ground or "
            f"singleton patterns only)"
        )
    if isinstance(term, FuncT):
        raise EvaluationError(
            f"function-value term {term!r} cannot appear in a matched "
            f"position; use it in equalities or heads"
        )
    raise EvaluationError(f"unknown term {term!r}")  # pragma: no cover


def _match_sequence(terms, values, subst: dict) -> Iterator[dict]:
    if not terms:
        yield subst
        return
    for extended in match(terms[0], values[0], subst):
        yield from _match_sequence(terms[1:], values[1:], extended)


def _eval_ground(term: DTerm, subst: dict) -> Value:
    if isinstance(term, VarD):
        return subst[term.name]
    if isinstance(term, ConstD):
        return term.value
    if isinstance(term, TupD):
        return Tup([_eval_ground(item, subst) for item in term.items])
    if isinstance(term, SetD):
        return SetVal([_eval_ground(item, subst) for item in term.items])
    raise EvaluationError(f"term {term!r} is not ground-evaluable here")


def eval_term(term: DTerm, subst: dict, interp: Interp) -> Value:
    """Evaluate a (ground-under-*subst*) term, resolving ``F(t)`` values."""
    if isinstance(term, FuncT):
        arg = eval_term(term.arg, subst, interp)
        return interp.func_value(term.func, arg)
    if isinstance(term, VarD):
        try:
            return subst[term.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {term.name!r}") from None
    if isinstance(term, ConstD):
        return term.value
    if isinstance(term, TupD):
        return Tup([eval_term(item, subst, interp) for item in term.items])
    if isinstance(term, SetD):
        return SetVal([eval_term(item, subst, interp) for item in term.items])
    raise EvaluationError(f"unknown term {term!r}")  # pragma: no cover


def _candidate_facts(literal: PredLit, interp: Interp, subst: dict):
    """Facts worth matching against, using the first-coordinate index
    when the leading tuple component is already determined."""
    if not Interp.use_index:
        return interp.preds.get(literal.name, set())
    term = literal.term
    lead = None
    if isinstance(term, TupD):
        lead = term.items[0]
    elif isinstance(term, (VarD, ConstD)):
        lead = term
    if isinstance(lead, VarD) and lead.name in subst:
        return interp.pred_by_first(literal.name, subst[lead.name])
    if isinstance(lead, ConstD):
        return interp.pred_by_first(literal.name, lead.value)
    return interp.preds.get(literal.name, set())


def _literal_order(body) -> list:
    """Positive generators, then (binding) equalities, then negations."""
    generators: list = []
    equalities: list = []
    negations: list = []
    for literal in body:
        if isinstance(literal, (PredLit, FuncLit)) and literal.positive:
            generators.append(literal)
        elif isinstance(literal, EqLit) and literal.positive:
            equalities.append(literal)
        else:
            negations.append(literal)
    return generators + equalities + negations


def _hash_join_positions(term, first_subst: dict) -> list | None:
    """Tuple positions of *term* whose value is determined per-substitution.

    A position qualifies when its subterm is a constant or a variable
    bound in the batch (probed via *first_subst* — batches extend a
    common prefix, so bound-variable sets agree across a batch; a
    deviant substitution falls back to a scan at probe time).
    """
    if not isinstance(term, TupD):
        return None
    positions = [
        (index, sub)
        for index, sub in enumerate(term.items)
        if isinstance(sub, ConstD)
        or (isinstance(sub, VarD) and sub.name in first_subst)
    ]
    return positions or None


def _hash_join_pred(
    literal: PredLit,
    substitutions: list,
    interp: Interp,
    budget: Budget,
) -> list | None:
    """Hash-join a batch of substitutions with a positive predicate literal.

    Probes the scan's persistent :class:`~repro.engine.ops.TupleKey`
    index keyed on the literal's determined tuple positions (built
    lazily on first use and maintained incrementally as facts arrive —
    the values' construction-time cached hashes make the keying O(1)
    per fact): O(|facts| + |substitutions|) instead of the nested
    O(|facts| × |substitutions|) scan.  Returns ``None`` when the shape
    does not qualify (caller falls back to the scan).

    The batch-vs-scan decision is adaptive (no fixed minimum batch):
    an already-built index is always probed; otherwise a build must be
    paid for either by this batch's nested work or by the cumulative
    fallback scanning the scan has already absorbed
    (``Scan.fallback_work``) — so fixpoints whose batches are
    individually tiny still amortise one build across rounds.
    """
    if not Interp.use_index:
        return None
    scan = interp.preds.get(literal.name)
    if not scan or not len(scan):
        return None
    term = literal.term
    positions = _hash_join_positions(term, substitutions[0])
    if positions is None:
        return None
    spec = TupleKey(len(term.items), tuple(pos for pos, _ in positions))
    if not scan.has_index(spec):
        if positions[0][0] == 0:
            # The leading coordinate is determined, so the persistent
            # first-coordinate index already prunes the scan to
            # near-constant work per substitution; a second index over
            # the remaining positions would cost more than it saves.
            return None
        if not should_index(len(substitutions), len(scan), scan.fallback_work):
            return None
    join = HashJoin(scan, spec, stats=scan.stats, budget=budget)

    def key_for(subst):
        try:
            return tuple(
                sub.value if isinstance(sub, ConstD) else subst[sub.name]
                for _, sub in positions
            )
        except KeyError:
            # This substitution does not bind a probed variable: scan.
            return NO_KEY

    def extend(subst, fact):
        return list(match(term, fact, subst))

    def fallback(subst):
        extended: list = []
        for fact in _candidate_facts(literal, interp, subst):
            budget.charge("steps")
            extended.extend(match(term, fact, subst))
        return extended

    return join.join(substitutions, key_for, extend, fallback=fallback)


def extend_with_literal(
    literal,
    substitutions: list,
    interp: Interp,
    neg: Interp,
    budget: Budget,
) -> list:
    """One join/filter step: extensions of *substitutions* satisfying
    *literal* — the textual-order join of the naive drivers.

    Positive predicate joins over a batch of substitutions go through
    :func:`_hash_join_pred` when the literal has determined tuple
    positions; otherwise each substitution scans the (first-coordinate
    indexed) candidate facts.
    """
    next_substitutions: list = []
    if isinstance(literal, PredLit) and literal.positive:
        joined = _hash_join_pred(literal, substitutions, interp, budget)
        if joined is not None:
            return joined
        scan = interp.preds.get(literal.name)
        stats = scan.stats if scan is not None else None
        for subst in substitutions:
            if stats is not None:
                stats.rows_in += 1
            facts = _candidate_facts(literal, interp, subst)
            if scan is not None:
                scan.fallback_work += len(facts)
            for fact in facts:
                budget.charge("steps")
                before = len(next_substitutions)
                next_substitutions.extend(match(literal.term, fact, subst))
                if stats is not None:
                    stats.rows_out += len(next_substitutions) - before
    elif isinstance(literal, FuncLit) and literal.positive:
        graph = interp.funcs.get(literal.func, {})
        for subst in substitutions:
            for arg, elements in graph.items():
                for arg_subst in match(literal.arg, arg, subst):
                    for element in elements:
                        budget.charge("steps")
                        next_substitutions.extend(
                            match(literal.element, element, arg_subst)
                        )
    elif isinstance(literal, PredLit):
        for subst in substitutions:
            value = eval_term(literal.term, subst, neg)
            if value not in neg.preds.get(literal.name, set()):
                next_substitutions.append(subst)
    elif isinstance(literal, FuncLit):
        for subst in substitutions:
            arg = eval_term(literal.arg, subst, neg)
            element = eval_term(literal.element, subst, neg)
            if element not in neg.funcs.get(literal.func, {}).get(arg, set()):
                next_substitutions.append(subst)
    elif isinstance(literal, EqLit):
        for subst in substitutions:
            # A positive equality with one unbound variable side is a
            # binder: x ≈ t assigns x the value of t.
            binder = None
            if literal.positive:
                for var_side, val_side in (
                    (literal.left, literal.right),
                    (literal.right, literal.left),
                ):
                    if (
                        isinstance(var_side, VarD)
                        and var_side.name not in subst
                        and val_side.variables() <= set(subst)
                    ):
                        binder = (var_side.name, val_side)
                        break
            if binder is not None:
                name, val_side = binder
                extended = dict(subst)
                extended[name] = eval_term(val_side, subst, neg)
                next_substitutions.append(extended)
                continue
            left = eval_term(literal.left, subst, neg)
            right = eval_term(literal.right, subst, neg)
            if (left == right) == literal.positive:
                next_substitutions.append(subst)
    else:  # pragma: no cover - defensive
        raise EvaluationError(f"unknown literal {literal!r}")
    return next_substitutions


def rule_substitutions(
    rule: Rule,
    interp: Interp,
    budget: Budget,
    negation_interp: Interp | None = None,
) -> Iterator[dict]:
    """All body-satisfying substitutions of *rule* under *interp*.

    Negated literals (and function-value terms in equalities) are
    evaluated against *negation_interp* when given — the stratified
    semantics points it at the completed lower strata; the inflationary
    semantics at the current interpretation.  The body runs as the
    cached, cost-ordered compiled kernel of
    :mod:`repro.deductive.kernels`.
    """
    neg = negation_interp if negation_interp is not None else interp
    yield from interp.kernels().kernel(rule).run([{}], neg, budget)


def textual_substitutions(
    rule: Rule,
    interp: Interp,
    budget: Budget,
    negation_interp: Interp | None = None,
) -> Iterator[dict]:
    """:func:`rule_substitutions` joined in the textual literal order
    (generators, then equalities, then negations) through
    :func:`extend_with_literal` — the reference join of the naive
    drivers, which never consult statistics or compiled kernels."""
    neg = negation_interp if negation_interp is not None else interp
    substitutions = [dict()]
    for literal in _literal_order(rule.body):
        budget.charge("steps")
        substitutions = extend_with_literal(literal, substitutions, interp, neg, budget)
        if not substitutions:
            return
    yield from substitutions


def apply_rule(
    rule: Rule,
    interp: Interp,
    budget: Budget,
    negation_interp: Interp | None = None,
) -> bool:
    """Add all immediate consequences of *rule*; report change.

    This is the naive driver's step, so it joins in the textual literal
    order (:func:`textual_substitutions`)."""
    changed = False
    head = rule.head
    for subst in list(textual_substitutions(rule, interp, budget, negation_interp)):
        if isinstance(head, PredLit):
            value = eval_term(head.term, subst, interp)
            if interp.add_pred(head.name, value):
                budget.charge("facts")
                changed = True
        else:
            arg = eval_term(head.arg, subst, interp)
            element = eval_term(head.element, subst, interp)
            if interp.add_func(head.func, arg, element):
                budget.charge("facts")
                changed = True
    return changed


def fixpoint(
    rules: Iterable[Rule],
    interp: Interp,
    budget: Budget,
    negation_interp: Interp | None = None,
    stats=None,
) -> Interp:
    """Iterate the rules to a (cumulative) fixpoint in place.

    The naive driver is the reference implementation the semi-naive
    machinery is cross-checked against, so it joins every rule in the
    textual literal order — the cost-based kernels belong to the
    semi-naive drivers."""
    rules = list(rules)

    def step(_round: int) -> bool:
        changed = False
        for rule in rules:
            if apply_rule(rule, interp, budget, negation_interp):
                changed = True
        return changed

    FixpointDriver(budget, stats=stats).run(step)
    return interp
