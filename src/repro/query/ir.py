"""The shared typed IR of the surface language.

Every parsed surface query lowers into one of the forms below before
planning.  The comprehension form deliberately *reuses* the calculus
AST (:mod:`repro.calculus.ast`) as its formula representation — the
calculus is the paper's most general declarative language, and the
cross-language lowerings (``algebra.lowering``, ``deductive.lowering``)
pattern-match on that shared syntax.  The other forms wrap the native
program objects of their language packages; the planner treats each
wrapped program as already-lowered and only chooses among execution
strategies.

Typing.  A :class:`Comprehension` carries an rtype for every variable.
Free-variable types are *inferred* from the schema (a variable used in
``R([x, y])`` gets the component type of ``R``; membership and equality
conjuncts propagate), with explicit ``x / T`` annotations overriding.
Quantified variables keep the annotation given at the quantifier
(default ``Obj``).  A comprehension whose variables all carry genuine
types stays inside tsCALC; one that mentions ``Obj`` enters the
invention-capable fragment of Section 6 — the planner marks such
queries non-generic and they bypass the memo cache.
"""

from __future__ import annotations

from typing import Mapping

from ..calculus.ast import (
    And,
    Compare,
    ConstT,
    Exists,
    Forall,
    Formula,
    In,
    Not,
    Or,
    Pred,
    Term,
    TupT,
    VarT,
)
from ..errors import ReproError, SchemaError, TypeCheckError
from ..model.schema import Schema
from ..model.types import OBJ, RType, SetType, TupleType
from ..model.values import Value, adom as value_adom


class LoweringUnsupported(ReproError):
    """A cross-language lowering pass does not cover this query.

    Not an error for the user: the planner records the reason in the
    EXPLAIN output and plans with the backends that remain.
    """


class SurfaceQuery:
    """Base class of parsed surface queries."""

    #: Short form tag shown by EXPLAIN ("literal", "comprehension", ...).
    form = "query"

    def __init__(self, text: str):
        self.text = " ".join(text.split())

    def constants(self) -> frozenset:
        """The atoms of the query's constant objects (its set C)."""
        return frozenset()

    def predicates(self) -> tuple:
        """Input predicate names the query reads (sorted)."""
        return ()

    def describe(self) -> str:
        """One-line structural summary for EXPLAIN."""
        return self.form

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.text!r}>"


class LiteralQuery(SurfaceQuery):
    """A ground object: ``{1, [2, 3]}``.  Evaluates to itself."""

    form = "literal"

    def __init__(self, text: str, value: Value):
        super().__init__(text)
        self.value = value

    def constants(self) -> frozenset:
        return value_adom(self.value)

    def describe(self) -> str:
        return f"literal (size {self.value.size}, depth {self.value.depth})"


class Comprehension(SurfaceQuery):
    """``{ head | formula }`` over the calculus AST, plus variable types.

    ``var_types`` covers every *free* variable of the head/body;
    quantified variables carry their rtype on the quantifier node.
    Construct via the parser, then call :meth:`typecheck` with the
    database schema before planning.
    """

    form = "comprehension"

    def __init__(self, text: str, head: Term, body: Formula):
        super().__init__(text)
        self.head = head
        self.body = body
        self.annotations: dict = {}  # explicit x/T annotations (parser)
        self.var_types: dict = {}  # filled by typecheck()
        self._typed_against: Schema | None = None

    def free_variables(self) -> set:
        return self.body.free_variables() | self.head.variables()

    def typecheck(self, schema: Schema) -> "Comprehension":
        """Infer free-variable rtypes against *schema* (idempotent)."""
        if self._typed_against == schema:
            return self
        self.var_types = infer_variable_types(self, schema)
        self._typed_against = schema
        return self

    def is_typed(self) -> bool:
        """Does every variable carry a genuine type (no ``Obj``)?

        ``Obj``-typed variables behave like invented values (Section 6);
        the planner treats such comprehensions as non-generic.
        """
        rtypes = list(self.var_types.values())
        _collect_quantifier_rtypes(self.body, rtypes)
        return all(rtype.is_type() for rtype in rtypes)

    def constants(self) -> frozenset:
        atoms: set = set()
        _collect_constants_term(self.head, atoms)
        _collect_constants_formula(self.body, atoms)
        return frozenset(atoms)

    def predicates(self) -> tuple:
        names: set = set()
        _collect_predicates(self.body, names)
        return tuple(sorted(names))

    def describe(self) -> str:
        free = sorted(self.free_variables())
        kind = "typed" if (self.var_types and self.is_typed()) else "relaxed"
        return (
            f"comprehension ({kind}; free {', '.join(free) if free else '—'}; "
            f"reads {', '.join(self.predicates()) or '—'})"
        )


class PipelineQuery(SurfaceQuery):
    """An algebra pipeline ``R |> select(1=2) |> project(1)``.

    Wraps the native algebra :class:`~repro.algebra.ast.Program` the
    parser assembles (a single ``ANS := expr`` assignment).
    """

    form = "pipeline"

    def __init__(self, text: str, program, uses: tuple, const_atoms: frozenset):
        super().__init__(text)
        self.program = program
        self._uses = tuple(sorted(set(uses)))
        self._const_atoms = frozenset(const_atoms)

    def constants(self) -> frozenset:
        return self._const_atoms

    def predicates(self) -> tuple:
        return self._uses

    def describe(self) -> str:
        return f"algebra pipeline (reads {', '.join(self._uses) or '—'})"


class RuleQuery(SurfaceQuery):
    """A COL rule block ``rules { ... } answer P``."""

    form = "rules"

    def __init__(self, text: str, program, const_atoms: frozenset):
        super().__init__(text)
        self.program = program
        self._const_atoms = frozenset(const_atoms)

    def has_negation(self) -> bool:
        from ..deductive.ast import PredLit

        return any(
            isinstance(lit, PredLit) and not lit.positive
            for rule in self.program.rules
            for lit in rule.body
        )

    def is_recursive(self) -> bool:
        from ..deductive.stratify import recursive_symbols

        return bool(recursive_symbols(self.program))

    def constants(self) -> frozenset:
        return self._const_atoms

    def predicates(self) -> tuple:
        defined = {name for _, name in self.program.head_symbols()}
        used: set = set()
        for rule in self.program.rules:
            used |= rule.predicates()
        return tuple(sorted(used - defined))

    def describe(self) -> str:
        flags = []
        if self.is_recursive():
            flags.append("recursive")
        if self.has_negation():
            flags.append("negation")
        suffix = f" ({', '.join(flags)})" if flags else ""
        return (
            f"COL rule block: {len(self.program.rules)} rules, "
            f"answer {self.program.answer}{suffix}"
        )


class BKQuery(SurfaceQuery):
    """A Bancilhon–Khoshafian rule block ``bk { ... } answer P``."""

    form = "bk"

    def __init__(self, text: str, program, const_atoms: frozenset):
        super().__init__(text)
        self.program = program
        self._const_atoms = frozenset(const_atoms)

    def constants(self) -> frozenset:
        return self._const_atoms

    def predicates(self) -> tuple:
        defined = {rule.head.pred for rule in self.program.rules}
        used = {
            tail.pred for rule in self.program.rules for tail in rule.tails
        }
        return tuple(sorted(used - defined))

    def describe(self) -> str:
        return (
            f"BK rule block: {len(self.program.rules)} rules, "
            f"answer {self.program.answer}"
        )


class GTMQuery(SurfaceQuery):
    """``gtm <name>`` — a library generic Turing machine.

    The planner lowers it through the paper's constructive theorem
    compilers (Theorems 4.1(b), 5.1, 6.4), so one machine plans across
    every language in the repository.
    """

    form = "gtm"

    def __init__(self, text: str, name: str, machine, schema: Schema, output_type: RType):
        super().__init__(text)
        self.name = name
        self.machine = machine
        self.schema = schema
        self.output_type = output_type

    def constants(self) -> frozenset:
        return frozenset(self.machine.constants)

    def predicates(self) -> tuple:
        return tuple(self.schema.names())

    def describe(self) -> str:
        return (
            f"generic Turing machine {self.name!r} "
            f"(input <{', '.join(self.schema.names())}>, "
            f"output {self.output_type!r})"
        )


# ---------------------------------------------------------------------------
# The conjunctive core (shared by the algebra and COL lowerings)
# ---------------------------------------------------------------------------


def conjunctive_core(comp: Comprehension):
    """Normalise *comp*'s body into existential-conjunctive form.

    Returns ``(exist_types, conjuncts)``: the rtypes of existentially
    quantified variables, and a list of ``(literal, positive)`` pairs
    where each literal is a :class:`Pred`, :class:`Compare` or
    :class:`In` node.  Raises :class:`LoweringUnsupported` for anything
    outside the fragment (disjunction, universals, nested negation) —
    those queries evaluate on the calculus backend only.
    """
    exist_types: dict = {}
    conjuncts: list = []
    _strip(comp.body, exist_types, conjuncts, comp.free_variables())
    return exist_types, conjuncts


def _strip(formula: Formula, exist_types: dict, conjuncts: list, seen: set) -> None:
    if isinstance(formula, Exists):
        if formula.var in seen or formula.var in exist_types:
            raise LoweringUnsupported(
                f"variable {formula.var!r} is shadowed; the conjunctive "
                f"lowerings require distinct variable names"
            )
        exist_types[formula.var] = formula.rtype
        _strip(formula.body, exist_types, conjuncts, seen)
    elif isinstance(formula, And):
        for part in formula.parts:
            _strip(part, exist_types, conjuncts, seen)
    elif isinstance(formula, Not):
        inner = formula.part
        if isinstance(inner, (Pred, Compare, In)):
            conjuncts.append((inner, False))
        else:
            raise LoweringUnsupported(
                "negation of a compound formula is outside the "
                "conjunctive fragment"
            )
    elif isinstance(formula, (Pred, Compare, In)):
        conjuncts.append((formula, True))
    else:
        kind = "universal quantification" if isinstance(formula, Forall) else (
            "disjunction" if isinstance(formula, Or) else type(formula).__name__
        )
        raise LoweringUnsupported(f"{kind} is outside the conjunctive fragment")


# ---------------------------------------------------------------------------
# Type inference for comprehensions
# ---------------------------------------------------------------------------


def member_rtype(schema: Schema, name: str) -> RType:
    """The rtype of one member of predicate *name*'s instance.

    Schema entries declare the *member* rtype directly (an instance of
    ``R : [U, U]`` is a set of pairs; ``N : {U}`` holds set-valued
    members), so this is the schema rtype itself."""
    return schema.rtype(name)


def infer_variable_types(comp: Comprehension, schema: Schema) -> dict:
    """Assign an rtype to every free variable of *comp*.

    Fixpoint constraint propagation: predicate conjuncts seed types from
    the schema, membership and equality conjuncts transfer them.
    Explicit annotations win; anything still unknown is an error (the
    usual symptom is a typo'd variable) unless the comprehension has an
    ``Obj`` annotation making intent explicit.
    """
    types: dict = dict(comp.annotations)
    free = comp.free_variables()
    for _ in range(len(free) + 2):
        changed = _propagate(comp.body, types, schema, comp.annotations)
        if not changed:
            break
    unknown = sorted(name for name in free if name not in types)
    if unknown:
        raise TypeCheckError(
            f"cannot infer types for {unknown}; annotate with 'x / T' "
            f"(e.g. x / U or x / Obj)"
        )
    return {name: types[name] for name in sorted(free)}


def _propagate(formula: Formula, types: dict, schema: Schema, pinned: Mapping) -> bool:
    changed = False
    if isinstance(formula, Pred):
        if formula.name not in schema:
            raise SchemaError(f"unknown predicate {formula.name!r} in query")
        changed |= _unify(formula.term, member_rtype(schema, formula.name), types, pinned)
    elif isinstance(formula, In):
        container = formula.container
        if isinstance(container, VarT) and container.name in types:
            container_type = types[container.name]
            if isinstance(container_type, SetType):
                changed |= _unify(formula.element, container_type.element, types, pinned)
            elif container_type == OBJ:
                changed |= _unify(formula.element, OBJ, types, pinned)
        elif isinstance(container, ConstT):
            changed |= _unify(formula.element, OBJ, types, pinned)
        # Reverse direction: a typed element constrains the container.
        element = formula.element
        if (
            isinstance(container, VarT)
            and container.name not in types
            and isinstance(element, VarT)
            and element.name in types
        ):
            types[container.name] = SetType(types[element.name])
            changed = True
    elif isinstance(formula, Compare):
        left, right = formula.left, formula.right
        for one, other in ((left, right), (right, left)):
            if (
                isinstance(one, VarT)
                and one.name not in types
                and isinstance(other, VarT)
                and other.name in types
            ):
                types[one.name] = types[other.name]
                changed = True
    elif isinstance(formula, (And, Or)):
        for part in formula.parts:
            changed |= _propagate(part, types, schema, pinned)
    elif isinstance(formula, Not):
        changed |= _propagate(formula.part, types, schema, pinned)
    elif isinstance(formula, (Exists, Forall)):
        # The quantifier's own variable is typed on the node; shadow it.
        shadowed = types.pop(formula.var, None)
        inner_pinned = {k: v for k, v in pinned.items() if k != formula.var}
        types[formula.var] = formula.rtype
        changed |= _propagate(formula.body, types, schema, inner_pinned)
        if shadowed is None:
            types.pop(formula.var, None)
        else:
            types[formula.var] = shadowed
    return changed


def _unify(term: Term, rtype: RType, types: dict, pinned: Mapping) -> bool:
    """Record ``term : rtype``, descending through tuple structure."""
    changed = False
    if isinstance(term, VarT):
        if term.name in pinned:
            return False
        known = types.get(term.name)
        if known is None:
            types[term.name] = rtype
            return True
        if known != rtype and known == OBJ:
            # Obj is the top rtype; a more specific constraint refines it.
            types[term.name] = rtype
            return True
        return False
    if isinstance(term, TupT):
        if isinstance(rtype, TupleType) and len(rtype) == len(term.items):
            for item, comp_type in zip(term.items, rtype.components):
                changed |= _unify(item, comp_type, types, pinned)
        else:
            for item in term.items:
                changed |= _unify(item, OBJ, types, pinned)
    return changed


def _collect_quantifier_rtypes(formula: Formula, out: list) -> None:
    if isinstance(formula, (Exists, Forall)):
        out.append(formula.rtype)
        _collect_quantifier_rtypes(formula.body, out)
    elif isinstance(formula, (And, Or)):
        for part in formula.parts:
            _collect_quantifier_rtypes(part, out)
    elif isinstance(formula, Not):
        _collect_quantifier_rtypes(formula.part, out)


def _collect_constants_term(term: Term, atoms: set) -> None:
    if isinstance(term, ConstT):
        atoms |= set(value_adom(term.value))
    elif isinstance(term, TupT):
        for item in term.items:
            _collect_constants_term(item, atoms)


def _collect_constants_formula(formula: Formula, atoms: set) -> None:
    if isinstance(formula, Compare):
        _collect_constants_term(formula.left, atoms)
        _collect_constants_term(formula.right, atoms)
    elif isinstance(formula, In):
        _collect_constants_term(formula.element, atoms)
        _collect_constants_term(formula.container, atoms)
    elif isinstance(formula, Pred):
        _collect_constants_term(formula.term, atoms)
    elif isinstance(formula, (And, Or)):
        for part in formula.parts:
            _collect_constants_formula(part, atoms)
    elif isinstance(formula, Not):
        _collect_constants_formula(formula.part, atoms)
    elif isinstance(formula, (Exists, Forall)):
        _collect_constants_formula(formula.body, atoms)


def _collect_predicates(formula: Formula, names: set) -> None:
    if isinstance(formula, Pred):
        names.add(formula.name)
    elif isinstance(formula, (And, Or)):
        for part in formula.parts:
            _collect_predicates(part, names)
    elif isinstance(formula, Not):
        _collect_predicates(formula.part, names)
    elif isinstance(formula, (Exists, Forall)):
        _collect_predicates(formula.body, names)
