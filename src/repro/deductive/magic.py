"""Demand-driven rewriting of constant-bound rule blocks (magic sets).

A recursive rule block queried through constants — the closure pair
``Q(x, y) :- T(x, y), x = 'a', y = 'b'`` over ``T``'s full transitive
closure — only needs the ``T`` facts reachable from those constants.
The generalized magic-sets rewrite (Bancilhon, Maier, Sagiv & Ullman,
1986; Beeri & Ramakrishnan, 1991) turns that demand into rules:

1. **Adornment.**  Starting from the answer predicate with every
   argument free, each rule body is read left to right (a *sideways
   information passing* order), with equalities taken as soon as one
   side is known.  An argument of a derived (IDB) literal is *bound*
   (``b``) when it is a constant or a variable bound by what came
   before it, else *free* (``f``): ``T(x, y)`` after ``x = 'a', y =
   'b'`` is ``T^bb``.
2. **Magic predicates.**  For every adorned literal with a bound
   argument, a magic predicate ``magic^T^bb`` collects the bound tuples
   demanded of it, by a rule whose body is the guard of the rule it
   occurs in plus the literals before it.
3. **Modified rules.**  Every rule of an adorned predicate is guarded
   by its magic predicate, so the fixpoint only derives demanded facts.

Predicates reached with every argument free keep their names (their
full extent is demanded), so the answer predicate keeps its head; every
new name is fresh against the program *and* the reserved names the
caller passes (the database schema).

Scope: positive rules over flat atom tuples.  Data functions, set or
function terms (invention and set-valued heads), nested tuple terms,
negated predicates, derived predicates that are also base predicates,
and predicates used at several arities are left as written; the
reason comes back in :class:`NotDemandable`.

On the rules it rewrites, the answer predicate derives exactly the
original program's answer: the guarded rules compute the original
facts for every demanded binding, and the answer's own rules are
unguarded.  Under a budget the smaller fixpoint may halt where the
original exhausts it, so a ``?`` of the original may become a defined
answer — Hoare equivalence allows that, and only that.
"""

from __future__ import annotations

from ..errors import TypeCheckError
from .ast import ColProgram, ConstD, EqLit, FuncLit, PredLit, Rule, TupD, VarD
from .stratify import recursive_symbols

__all__ = ["DemandRewrite", "NotDemandable", "demand_rewrite"]


class NotDemandable(ValueError):
    """The block is outside the rewrite's scope, or no constant binds
    a recursive predicate's argument; the message says which."""


class DemandRewrite:
    """A rewritten program plus what the planner needs to price it.

    * :attr:`program` — the rewritten :class:`ColProgram` (same answer);
    * :attr:`adorned` — ``name -> (predicate, adornment)`` for every
      predicate with a bound argument;
    * :attr:`magic` — ``magic name -> adorned name`` it guards.
    """

    __slots__ = ("program", "adorned", "magic")

    def __init__(self, program: ColProgram, adorned: dict, magic: dict):
        self.program = program
        self.adorned = adorned
        self.magic = magic

    def describe(self) -> str:
        """``T^bb, T^bf`` — the bound adornments, in generation order."""
        return ", ".join(f"{pred}^{adornment}" for pred, adornment in self.adorned.values())


def _args(term) -> tuple:
    return term.items if isinstance(term, TupD) else (term,)


def _shape(term):
    """``None`` for a bare argument, else the tuple arity."""
    return len(term.items) if isinstance(term, TupD) else None


def _flat_argument(term) -> bool:
    return isinstance(term, (VarD, ConstD))


def _check_scope(program: ColProgram, reserved: frozenset) -> dict:
    """Reject out-of-scope blocks; return ``IDB name -> term shape``."""
    shapes: dict = {}

    def record(literal) -> None:
        term = literal.term
        if not all(_flat_argument(arg) for arg in _args(term)):
            raise NotDemandable(
                f"{literal.name} has a set, function or nested term"
            )
        shape = _shape(term)
        if shapes.setdefault(literal.name, shape) != shape:
            raise NotDemandable(f"{literal.name} is used at several arities")

    for rule in program.rules:
        head = rule.head
        if isinstance(head, FuncLit):
            raise NotDemandable(f"rule head defines data function {head.func}")
        if head.name in reserved:
            raise NotDemandable(f"derived {head.name} is also a base predicate")
        record(head)
    for rule in program.rules:
        for literal in rule.body:
            if isinstance(literal, FuncLit):
                raise NotDemandable(f"body reads data function {literal.func}")
            if isinstance(literal, PredLit):
                if not literal.positive:
                    raise NotDemandable(f"negation on {literal.name}")
                if literal.name in shapes:
                    record(literal)
                elif not all(_flat_argument(arg) for arg in _args(literal.term)):
                    raise NotDemandable(
                        f"{literal.name} has a set, function or nested term"
                    )
            elif not all(
                _flat_argument(side) for side in (literal.left, literal.right)
            ):
                raise NotDemandable("an equality compares non-flat terms")
    if program.answer not in shapes:
        raise NotDemandable(f"answer {program.answer} is not derived by the block")
    return shapes


def _bindable(literal: EqLit, bound: set) -> bool:
    """Whether *literal* can be evaluated now: a filter over bound
    variables, or (positive) a binding of one variable side."""
    left, right = literal.left.variables(), literal.right.variables()
    if left <= bound and right <= bound:
        return True
    if not literal.positive:
        return False
    return (isinstance(literal.left, VarD) and right <= bound) or (
        isinstance(literal.right, VarD) and left <= bound
    )


def _sip_order(body: tuple, bound: set) -> list:
    """*body* in sideways-information-passing order: predicate literals
    as written, each equality as soon as it can be evaluated."""
    bound = set(bound)
    pending = [lit for lit in body if isinstance(lit, EqLit)]
    ordered: list = []

    def drain() -> None:
        progress = True
        while progress:
            progress = False
            for literal in list(pending):
                if _bindable(literal, bound):
                    pending.remove(literal)
                    ordered.append(literal)
                    bound.update(literal.variables())
                    progress = True

    drain()
    for literal in body:
        if isinstance(literal, EqLit):
            continue
        ordered.append(literal)
        bound.update(literal.variables())
        drain()
    ordered.extend(pending)  # unreachable for range-restricted rules
    return ordered


def _adornment(term, bound: set) -> str:
    return "".join(
        "b" if isinstance(arg, ConstD) or arg.name in bound else "f"
        for arg in _args(term)
    )


def _bound_term(term, adornment: str):
    """The magic tuple of *term*: its arguments at bound positions."""
    picked = [arg for arg, mark in zip(_args(term), adornment) if mark == "b"]
    return picked[0] if len(picked) == 1 else TupD(picked)


def demand_rewrite(program: ColProgram, reserved=()) -> DemandRewrite:
    """The magic-sets rewrite of *program*, or :class:`NotDemandable`.

    *reserved* names the base predicates (the schema): a derived
    predicate sharing one is out of scope, since its base facts would
    seed the original but not a renamed copy, and no fresh name may
    collide with one.
    """
    reserved = frozenset(reserved)
    shapes = _check_scope(program, reserved)
    recursive = {name for kind, name in recursive_symbols(program) if kind == "pred"}
    if not recursive:
        raise NotDemandable("block is not recursive")
    taken = set(reserved) | set(shapes)
    for rule in program.rules:
        taken |= rule.predicates()

    def fresh(base: str) -> str:
        name = base
        while name in taken:
            name += "'"
        taken.add(name)
        return name

    names: dict = {}  # (pred, adornment) -> (adorned name, magic name | None)
    adorned: dict = {}
    magic: dict = {}
    worklist: list = []

    def adorned_name(pred: str, adornment: str) -> str:
        entry = names.get((pred, adornment))
        if entry is None:
            if "b" not in adornment:
                entry = (pred, None)
            else:
                name = fresh(f"{pred}^{adornment}")
                guard = fresh(f"magic^{pred}^{adornment}")
                entry = (name, guard)
                adorned[name] = (pred, adornment)
                magic[guard] = name
            names[(pred, adornment)] = entry
            worklist.append((pred, adornment))
        return entry[0]

    rules_of: dict = {}
    for rule in program.rules:
        rules_of.setdefault(rule.head.name, []).append(rule)

    answer_shape = shapes[program.answer]
    adorned_name(program.answer, "f" * (answer_shape or 1))
    rewritten: list = []
    seen_magic: set = set()
    while worklist:
        pred, adornment = worklist.pop(0)
        name, guard_name = names[(pred, adornment)]
        for rule in rules_of.get(pred, ()):
            head_bound = {
                arg.name
                for arg, mark in zip(_args(rule.head.term), adornment)
                if mark == "b" and isinstance(arg, VarD)
            }
            guard = (
                [PredLit(guard_name, _bound_term(rule.head.term, adornment))]
                if guard_name
                else []
            )
            bound = set(head_bound)
            body: list = []
            for literal in _sip_order(rule.body, head_bound):
                if isinstance(literal, PredLit) and literal.name in shapes:
                    inner = _adornment(literal.term, bound)
                    target = adorned_name(literal.name, inner)
                    inner_guard = names[(literal.name, inner)][1]
                    if inner_guard is not None:
                        magic_rule = _rule(
                            PredLit(inner_guard, _bound_term(literal.term, inner)),
                            guard + body,
                        )
                        text = repr(magic_rule)
                        trivial = len(magic_rule.body) == 1 and repr(
                            magic_rule.body[0]
                        ) == repr(magic_rule.head)
                        if not trivial and text not in seen_magic:
                            seen_magic.add(text)
                            rewritten.append(magic_rule)
                    literal = PredLit(target, literal.term)
                body.append(literal)
                bound.update(literal.variables())
            rewritten.append(_rule(PredLit(name, rule.head.term), guard + body))
    if not any(pred in recursive for pred, _ in adorned.values()):
        raise NotDemandable("no constant binds a recursive predicate's argument")
    return DemandRewrite(
        ColProgram(rewritten, answer=program.answer, name=program.name),
        adorned,
        magic,
    )


def _rule(head: PredLit, body: list) -> Rule:
    try:
        return Rule(head, body)
    except TypeCheckError as exc:  # pragma: no cover - SIP order binds all
        raise NotDemandable(f"rewritten rule is not range-restricted: {exc}") from None
