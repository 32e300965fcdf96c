"""Stratified semantics for COL (COL^str).

The dependency graph has a node per predicate and per data function.
A rule with head symbol H contributes:

* a **positive** edge B → H for every positive body literal on B;
* a **negative** edge B → H for every negated body literal on B;
* a **negative** edge F → H for every function-*value* term ``F(t)``
  occurring anywhere in the rule — using the complete set value of a
  data function requires F to be fully computed first, COL's analogue
  of negation [AG87].

A program is stratifiable iff no cycle contains a negative edge; the
stratum of a symbol is then the longest chain of negative edges into
it.  Evaluation runs each stratum's rules to fixpoint, with negation
(and function values) read from the interpretation completed so far.
"""

from __future__ import annotations

from ..budget import Budget
from ..errors import BudgetExceeded, StratificationError, UNDEFINED
from ..model.schema import Database
from .ast import ColProgram, DTerm, EqLit, FuncLit, FuncT, PredLit, SetD, TupD
from .col import Interp


def _function_value_terms(term: DTerm) -> set:
    """Function names used as value terms inside *term*."""
    names: set = set()
    if isinstance(term, FuncT):
        names.add(term.func)
        names |= _function_value_terms(term.arg)
    elif isinstance(term, (TupD, SetD)):
        for item in term.items:
            names |= _function_value_terms(item)
    return names


def dependency_edges(program: ColProgram) -> set:
    """Edges ``(source, target, negative?)`` over symbol nodes.

    Nodes are ``("pred", name)`` / ``("func", name)``.
    """
    edges: set = set()
    for rule in program.rules:
        head = rule.head
        target = (
            ("pred", head.name) if isinstance(head, PredLit) else ("func", head.func)
        )
        rule_terms: list = []
        if isinstance(head, PredLit):
            rule_terms.append(head.term)
        else:
            rule_terms.extend([head.arg, head.element])
        for literal in rule.body:
            if isinstance(literal, PredLit):
                edges.add((("pred", literal.name), target, not literal.positive))
                rule_terms.append(literal.term)
            elif isinstance(literal, FuncLit):
                edges.add((("func", literal.func), target, not literal.positive))
                rule_terms.extend([literal.arg, literal.element])
            elif isinstance(literal, EqLit):
                rule_terms.extend([literal.left, literal.right])
        for term in rule_terms:
            for func in _function_value_terms(term):
                edges.add((("func", func), target, True))
    return edges


def recursive_symbols(program: ColProgram) -> set:
    """The symbol nodes of :func:`dependency_edges` that lie on a cycle.

    A block is recursive exactly when this is non-empty: a symbol that
    only reads symbols defined before it is settled in one pass,
    however many rules mention it.
    """
    successors: dict = {}
    for source, target, _ in dependency_edges(program):
        successors.setdefault(source, set()).add(target)
    cyclic = set()
    for start in successors:
        seen, stack = set(), list(successors[start])
        while stack:
            node = stack.pop()
            if node == start:
                cyclic.add(start)
                break
            if node not in seen:
                seen.add(node)
                stack.extend(successors.get(node, ()))
    return cyclic


def stratify(program: ColProgram) -> list:
    """Assign strata; returns a list of rule groups in evaluation order.

    Raises :class:`StratificationError` when a negative edge lies on a
    cycle.
    """
    edges = dependency_edges(program)
    nodes = {target for _, target, _ in edges} | {source for source, _, _ in edges}
    for rule in program.rules:
        head = rule.head
        nodes.add(
            ("pred", head.name) if isinstance(head, PredLit) else ("func", head.func)
        )

    # Longest-path stratum numbers via Bellman-Ford-style relaxation:
    # stratum(H) >= stratum(B) for positive, > for negative edges.
    stratum = {node: 0 for node in nodes}
    for _ in range(len(nodes) + 1):
        changed = False
        for source, target, negative in edges:
            required = stratum[source] + (1 if negative else 0)
            if stratum[target] < required:
                stratum[target] = required
                changed = True
        if not changed:
            break
    else:
        raise StratificationError(
            f"{program.name}: no stratification exists (negative cycle)"
        )

    groups: dict = {}
    for rule in program.rules:
        head = rule.head
        node = (
            ("pred", head.name) if isinstance(head, PredLit) else ("func", head.func)
        )
        groups.setdefault(stratum[node], []).append(rule)
    return [groups[level] for level in sorted(groups)]


def run_stratified(
    program: ColProgram,
    database: Database,
    budget: Budget | None = None,
    naive: bool = False,
    trace=None,
    binding=None,
):
    """COL^str semantics: the answer instance, or ``?`` on divergence.

    Each stratum runs to fixpoint with negation and function values
    frozen at the previous strata's result.  In the presence of untyped
    sets a stratum may fail to reach a finite fixpoint (Theorem 5.1's
    machines encode arbitrary computations); the budget observes this
    and the program's value is then ``?``, matching "in this case, we
    view the output to be undefined".

    Strata run semi-naive by default (:mod:`repro.engine.seminaive`);
    ``naive=True`` selects the original full-re-join driver.  *trace*
    (a :class:`~repro.engine.exec.PhysicalTrace`) collects the physical
    operator tree — fixpoint rounds plus per-predicate scan counters —
    for EXPLAIN's post-run actuals.
    """
    from ..engine.seminaive import seminaive_fixpoint
    from .physical import col_physical, fixpoint_stats

    budget = budget or Budget()
    strata = stratify(program)
    interp = Interp.from_database(database, binding)
    stats = fixpoint_stats(trace)
    try:
        for rules in strata:
            frozen = interp.copy()
            seminaive_fixpoint(
                rules, interp, budget, negation_interp=frozen, naive=naive,
                stats=stats,
            )
    except BudgetExceeded:
        return UNDEFINED
    finally:
        col_physical(
            trace, "col-naive" if naive else "col-stratified", stats, interp
        )
    return interp.instance(program.answer)
