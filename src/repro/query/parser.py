"""The textual surface language: one grammar, four query families.

::

    query      := literal | comprehension | pipeline | rules | bk | gtm

    literal    := value [pipeline steps…]          {1, [2, 3], {4}}
    comprehension := '{' term '|' formula '}'      { [x,z] | some y/U : R([x,y]) and R([y,z]) }
    pipeline   := source ('|>' step)*              R |> select(1 = 2) |> project(1)
    rules      := 'rules' '{' rule+ '}' ['answer' NAME]
    bk         := 'bk' '{' bkrule+ '}' ['answer' NAME]
    gtm        := 'gtm' NAME                       gtm parity

Conventions shared by the declarative forms: bare names are
*variables*, quoted names (``'alice'``) and integers are *atom
constants*, ``[...]`` builds tuples and ``{...}`` sets.  In *value*
context (literals, pipeline constants) bare names are atom labels —
there are no variables to confuse them with.  Variables may carry
explicit rtype annotations ``x / {U}`` anywhere they occur; quantifiers
default to ``Obj`` when unannotated (``some y : ...``), entering the
invention-capable fragment.

Pipeline steps mirror the algebra operators: ``select(1 = 2, 1 in 3)``,
``project(1, 2)``, ``nest(2)``, ``unnest(1)``, ``product(S)``,
``union(S)``, ``diff(S)``, ``intersect(S)``, ``powerset``, ``expand``,
``collapse``, ``undefine``.  In select conditions an integer names a
coordinate; write ``const(5)`` (or a quoted/bracketed value) for a
constant.

Rule blocks use ``:-`` and a final ``.`` per rule; COL data functions
appear as ``F(t)`` terms and ``x in F(u)`` literals; BK patterns use the
named-tuple syntax ``[A: x, B: y]``.
"""

from __future__ import annotations

import re

from ..algebra.ast import (
    Assign,
    Collapse,
    Const,
    Diff,
    Eq,
    EqConst,
    Expand,
    Intersect,
    Member,
    Nest,
    Powerset,
    Product,
    Program,
    Project,
    Select,
    Undefine,
    Union,
    Unnest,
    Var,
)
from ..calculus.ast import (
    And,
    Compare,
    ConstT,
    Exists,
    Forall,
    In,
    Not,
    Or,
    Pred,
    TupT,
    VarT,
)
from ..deductive.ast import (
    ColProgram,
    ConstD,
    EqLit,
    FuncLit,
    FuncT,
    PredLit,
    Rule,
    SetD,
    TupD,
    VarD,
)
from ..deductive.bk import BKAtom, BKProgram, BKRule, BKVar
from ..errors import ReproError
from ..model.schema import Schema
from ..model.types import OBJ, RType, SetType, TupleType, U
from ..model.values import Atom, SetVal, Tup, Value, adom as value_adom
from .ir import (
    BKQuery,
    Comprehension,
    GTMQuery,
    LiteralQuery,
    PipelineQuery,
    RuleQuery,
    SurfaceQuery,
)
from .shape import unquote


class ParseError(ReproError):
    """The surface text does not parse."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<int>-?\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>\|\>|:-|!=|->|[{}\[\](),|:.=/])
    """,
    re.VERBOSE,
)

#: Names with grammatical meaning (still usable as predicate names where
#: the grammar position is unambiguous, but not as variables).
_KEYWORDS = {"in", "and", "or", "not", "some", "all"}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:
        return f"{self.kind}:{self.text!r}@{self.pos}"


def _tokenize(text: str) -> list:
    tokens: list = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        tokens.append(_Token(kind, match.group(), match.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        token = self.peek()
        if token.kind != "eof":
            self.index += 1
        return token

    def at(self, text: str, ahead: int = 0) -> bool:
        return self.peek(ahead).text == text and self.peek(ahead).kind != "string"

    def at_name(self, text: str, ahead: int = 0) -> bool:
        token = self.peek(ahead)
        return token.kind == "name" and token.text == text

    def expect(self, text: str) -> _Token:
        token = self.next()
        if token.text != text or token.kind == "string":
            got = repr(token.text) if token.text else "end of input"
            raise ParseError(
                f"expected {text!r} at position {token.pos}, got {got}"
            )
        return token

    def expect_name(self) -> str:
        token = self.next()
        if token.kind != "name":
            raise ParseError(f"expected a name at position {token.pos}")
        if token.text in _KEYWORDS:
            raise ParseError(f"{token.text!r} is a keyword (position {token.pos})")
        return token.text

    def fail(self, message: str) -> "ParseError":
        token = self.peek()
        where = f"position {token.pos}" if token.kind != "eof" else "end of input"
        return ParseError(f"{message} at {where}")

    # -- entry -------------------------------------------------------------

    def parse_query(self) -> SurfaceQuery:
        token = self.peek()
        if token.kind == "name" and token.text == "rules" and self.at("{", 1):
            query = self.parse_rules_block()
        elif token.kind == "name" and token.text == "bk" and self.at("{", 1):
            query = self.parse_bk_block()
        elif token.kind == "name" and token.text == "gtm":
            query = self.parse_gtm()
        elif token.text == "{" and token.kind == "punct" and self._brace_is_comprehension():
            query = self.parse_comprehension()
        else:
            query = self.parse_pipeline_or_literal()
        if self.peek().kind != "eof":
            raise self.fail(f"trailing input {self.peek().text!r}")
        return query

    def _brace_is_comprehension(self) -> bool:
        """Does the '{' at the cursor contain a top-level '|'?"""
        depth = 0
        for ahead in range(0, len(self.tokens) - self.index):
            token = self.peek(ahead)
            if token.kind != "punct":
                continue
            if token.text in "{[(":
                depth += 1
            elif token.text in ")]}":
                depth -= 1
                if depth == 0:
                    return False
            elif token.text == "|" and depth == 1:
                return True
        return False

    # -- values (ground objects) ------------------------------------------

    def parse_value(self) -> Value:
        token = self.peek()
        if token.kind == "int":
            self.next()
            return Atom(int(token.text))
        if token.kind == "string":
            self.next()
            return Atom(unquote(token.text))
        if token.kind == "name":
            self.next()
            return Atom(token.text)
        if self.at("["):
            self.next()
            items = [self.parse_value()]
            while self.at(","):
                self.next()
                items.append(self.parse_value())
            self.expect("]")
            return Tup(items)
        if self.at("{"):
            self.next()
            members: list = []
            if not self.at("}"):
                members.append(self.parse_value())
                while self.at(","):
                    self.next()
                    members.append(self.parse_value())
            self.expect("}")
            return SetVal(members)
        raise self.fail("expected a value")

    # -- rtypes (reuses the compact type grammar over our tokens) ----------

    def parse_rtype(self) -> RType:
        if self.at("{"):
            self.next()
            inner = self.parse_rtype()
            self.expect("}")
            return SetType(inner)
        if self.at("["):
            self.next()
            components = [self.parse_rtype()]
            while self.at(","):
                self.next()
                components.append(self.parse_rtype())
            self.expect("]")
            return TupleType(components)
        token = self.next()
        if token.kind == "name" and token.text == "U":
            return U
        if token.kind == "name" and token.text == "Obj":
            return OBJ
        raise ParseError(f"unknown rtype {token.text!r} at position {token.pos}")

    # -- comprehensions ----------------------------------------------------

    def parse_comprehension(self) -> Comprehension:
        annotations: dict = {}
        self.expect("{")
        head = self.parse_cterm(annotations)
        self.expect("|")
        body = self.parse_formula(annotations)
        self.expect("}")
        comp = Comprehension(self.text, head, body)
        comp.annotations = annotations
        return comp

    def parse_cterm(self, annotations: dict):
        token = self.peek()
        if token.kind == "name" and token.text not in _KEYWORDS:
            self.next()
            if self.at("/"):
                self.next()
                rtype = self.parse_rtype()
                previous = annotations.get(token.text)
                if previous is not None and previous != rtype:
                    raise ParseError(
                        f"conflicting annotations for {token.text!r}"
                    )
                annotations[token.text] = rtype
            return VarT(token.text)
        if token.kind in ("int", "string"):
            return ConstT(self.parse_value())
        if self.at("["):
            self.next()
            items = [self.parse_cterm(annotations)]
            while self.at(","):
                self.next()
                items.append(self.parse_cterm(annotations))
            self.expect("]")
            return TupT(items)
        if self.at("{"):
            # Set-valued constants only (set *patterns* are not terms).
            return ConstT(self.parse_value())
        raise self.fail("expected a term")

    def parse_formula(self, annotations: dict):
        parts = [self.parse_conjunction(annotations)]
        while self.at_name("or"):
            self.next()
            parts.append(self.parse_conjunction(annotations))
        return parts[0] if len(parts) == 1 else Or(*parts)

    def parse_conjunction(self, annotations: dict):
        parts = [self.parse_unary(annotations)]
        while self.at_name("and"):
            self.next()
            parts.append(self.parse_unary(annotations))
        return parts[0] if len(parts) == 1 else And(*parts)

    def parse_unary(self, annotations: dict):
        if self.at_name("not"):
            self.next()
            return Not(self.parse_unary(annotations))
        if self.at_name("some") or self.at_name("all"):
            universal = self.next().text == "all"
            var = self.expect_name()
            rtype = OBJ
            if self.at("/"):
                self.next()
                rtype = self.parse_rtype()
            self.expect(":")
            # Quantifier scope extends as far right as possible.
            body = self.parse_formula(annotations)
            return (Forall if universal else Exists)(var, rtype, body)
        if self.at("("):
            self.next()
            inner = self.parse_formula(annotations)
            self.expect(")")
            return inner
        # Predicate application: NAME '(' ... ')'.
        token = self.peek()
        if token.kind == "name" and token.text not in _KEYWORDS and self.at("(", 1):
            self.next()
            self.next()
            args = [self.parse_cterm(annotations)]
            while self.at(","):
                self.next()
                args.append(self.parse_cterm(annotations))
            self.expect(")")
            term = args[0] if len(args) == 1 else TupT(args)
            return Pred(token.text, term)
        # Comparison / membership between two terms.
        left = self.parse_cterm(annotations)
        if self.at("="):
            self.next()
            return Compare(left, self.parse_cterm(annotations))
        if self.at("!="):
            self.next()
            return Not(Compare(left, self.parse_cterm(annotations)))
        if self.at_name("in"):
            self.next()
            return In(left, self.parse_cterm(annotations))
        if self.at_name("not") and self.at_name("in", 1):
            self.next()
            self.next()
            return Not(In(left, self.parse_cterm(annotations)))
        raise self.fail("expected '=', '!=' or 'in' after term")

    # -- pipelines and literals -------------------------------------------

    def parse_pipeline_or_literal(self) -> SurfaceQuery:
        expr, uses, const_atoms, literal = self.parse_source()
        steps = 0
        while self.at("|>"):
            self.next()
            expr = self.parse_step(expr, uses, const_atoms)
            steps += 1
        if steps == 0 and literal is not None:
            return LiteralQuery(self.text, literal)
        program = Program(
            [Assign("ANS", expr)], ans_var="ANS", input_names=tuple(sorted(uses))
        )
        return PipelineQuery(
            self.text, program, tuple(uses), frozenset(const_atoms)
        )

    def parse_source(self):
        """One pipeline source: (expr, uses, const_atoms, literal_value)."""
        token = self.peek()
        if token.kind == "name" and token.text not in _KEYWORDS:
            self.next()
            return Var(token.text), {token.text}, set(), None
        if self.at("("):
            self.next()
            expr, uses, const_atoms, _ = self.parse_source()
            while self.at("|>"):
                self.next()
                expr = self.parse_step(expr, uses, const_atoms)
            self.expect(")")
            return expr, uses, const_atoms, None
        value = self.parse_value()
        if not isinstance(value, SetVal):
            if self.at("|>"):
                raise self.fail("pipeline sources must be instances (sets)")
            return None, set(), set(value_adom(value)), value
        return Const(value), set(), set(value_adom(value)), value

    def parse_step(self, expr, uses: set, const_atoms: set):
        name = self.expect_name()
        if name in ("powerset", "expand", "collapse", "undefine"):
            if self.at("("):
                self.next()
                self.expect(")")
            return {
                "powerset": Powerset,
                "expand": Expand,
                "collapse": Collapse,
                "undefine": Undefine,
            }[name](expr)
        self.expect("(")
        if name in ("product", "union", "diff", "intersect"):
            other, other_uses, other_atoms, _ = self.parse_source()
            while self.at("|>"):
                self.next()
                other = self.parse_step(other, other_uses, other_atoms)
            self.expect(")")
            if other is None:
                raise self.fail(f"{name} needs an instance operand")
            uses |= other_uses
            const_atoms |= other_atoms
            op = {
                "product": Product,
                "union": Union,
                "diff": Diff,
                "intersect": Intersect,
            }[name]
            return op(expr, other)
        if name == "select":
            conditions = [self.parse_condition(const_atoms)]
            while self.at(","):
                self.next()
                conditions.append(self.parse_condition(const_atoms))
            self.expect(")")
            return Select(expr, conditions)
        if name in ("project", "nest"):
            cols = [self.parse_coordinate()]
            while self.at(","):
                self.next()
                cols.append(self.parse_coordinate())
            self.expect(")")
            return (Project if name == "project" else Nest)(expr, cols)
        if name == "unnest":
            col = self.parse_coordinate()
            self.expect(")")
            return Unnest(expr, col)
        raise ParseError(f"unknown pipeline operator {name!r}")

    def parse_coordinate(self) -> int:
        token = self.next()
        if token.kind != "int" or int(token.text) < 1:
            raise ParseError(
                f"expected a 1-based coordinate at position {token.pos}"
            )
        return int(token.text)

    def parse_condition(self, const_atoms: set):
        if self.at("("):
            # Tuple membership: (i, j, ...) in k.
            self.next()
            cols = [self.parse_coordinate()]
            while self.at(","):
                self.next()
                cols.append(self.parse_coordinate())
            self.expect(")")
            if not self.at_name("in"):
                raise self.fail("expected 'in' after coordinate tuple")
            self.next()
            return Member(tuple(cols), self.parse_coordinate())
        left = self.parse_coordinate()
        if self.at_name("in"):
            self.next()
            return Member(left, self.parse_coordinate())
        self.expect("=")
        token = self.peek()
        if token.kind == "int":
            return Eq(left, self.parse_coordinate())
        if self.at_name("const"):
            self.next()
            self.expect("(")
            value = self.parse_value()
            self.expect(")")
        else:
            value = self.parse_value()
        const_atoms |= set(value_adom(value))
        return EqConst(left, value)

    # -- COL rule blocks ---------------------------------------------------

    def parse_rules_block(self) -> RuleQuery:
        self.expect("rules")
        self.expect("{")
        rules: list = []
        const_atoms: set = set()
        while not self.at("}"):
            rules.append(self.parse_rule(const_atoms))
        self.expect("}")
        answer = self._parse_answer(rules)
        return RuleQuery(
            self.text,
            ColProgram(rules, answer=answer, name="surface-rules"),
            frozenset(const_atoms),
        )

    def _parse_answer(self, rules) -> str:
        if self.at_name("answer"):
            self.next()
            return self.expect_name()
        heads = []
        for rule in rules:
            head = rule.head if isinstance(rule, Rule) else rule.head
            name = getattr(head, "name", None) or getattr(head, "pred", None)
            if name is not None and name not in heads:
                heads.append(name)
        if "ANS" in heads:
            return "ANS"
        if len(heads) == 1:
            return heads[0]
        raise self.fail(
            "ambiguous answer predicate; add 'answer NAME' after the block"
        )

    def parse_rule(self, const_atoms: set) -> Rule:
        head = self.parse_col_literal(const_atoms, head=True)
        body: list = []
        if self.at(":-"):
            self.next()
            body.append(self.parse_col_literal(const_atoms))
            while self.at(","):
                self.next()
                body.append(self.parse_col_literal(const_atoms))
        self.expect(".")
        return Rule(head, body)

    def parse_col_literal(self, const_atoms: set, head: bool = False):
        positive = True
        if self.at_name("not"):
            if head:
                raise self.fail("rule heads must be positive")
            self.next()
            positive = False
        token = self.peek()
        if token.kind == "name" and token.text not in _KEYWORDS and self.at("(", 1):
            # Could be P(t) — or the start of `F(u) = t`-style equality?
            # COL equalities never have function terms on the left in our
            # grammar, so NAME '(' here is always a predicate literal.
            self.next()
            self.next()
            args = [self.parse_dterm(const_atoms)]
            while self.at(","):
                self.next()
                args.append(self.parse_dterm(const_atoms))
            self.expect(")")
            term = args[0] if len(args) == 1 else TupD(args)
            return PredLit(token.text, term, positive=positive)
        left = self.parse_dterm(const_atoms)
        if self.at_name("in"):
            self.next()
            func = self.expect_name()
            self.expect("(")
            arg = self.parse_dterm(const_atoms)
            self.expect(")")
            return FuncLit(func, arg, left, positive=positive)
        if self.at("="):
            self.next()
            return EqLit(left, self.parse_dterm(const_atoms), positive=positive)
        if self.at("!="):
            if not positive:
                raise self.fail("'not' cannot negate '!='")
            self.next()
            return EqLit(left, self.parse_dterm(const_atoms), positive=False)
        raise self.fail("expected a rule literal")

    def parse_dterm(self, const_atoms: set):
        token = self.peek()
        if token.kind == "name" and token.text not in _KEYWORDS:
            self.next()
            if self.at("("):
                # A data-function value term F(t).
                self.next()
                arg = self.parse_dterm(const_atoms)
                self.expect(")")
                return FuncT(token.text, arg)
            return VarD(token.text)
        if token.kind in ("int", "string"):
            value = self.parse_value()
            const_atoms |= set(value_adom(value))
            return ConstD(value)
        if self.at("["):
            self.next()
            items = [self.parse_dterm(const_atoms)]
            while self.at(","):
                self.next()
                items.append(self.parse_dterm(const_atoms))
            self.expect("]")
            return TupD(items)
        if self.at("{"):
            self.next()
            items: list = []
            if not self.at("}"):
                items.append(self.parse_dterm(const_atoms))
                while self.at(","):
                    self.next()
                    items.append(self.parse_dterm(const_atoms))
            self.expect("}")
            return SetD(items)
        raise self.fail("expected a rule term")

    # -- BK rule blocks ----------------------------------------------------

    def parse_bk_block(self) -> BKQuery:
        self.expect("bk")
        self.expect("{")
        rules: list = []
        const_atoms: set = set()
        while not self.at("}"):
            rules.append(self.parse_bk_rule(const_atoms))
        self.expect("}")
        answer = "ANS"
        if self.at_name("answer"):
            self.next()
            answer = self.expect_name()
        else:
            heads = []
            for rule in rules:
                if rule.head.pred not in heads:
                    heads.append(rule.head.pred)
            if "ANS" not in heads and len(heads) == 1:
                answer = heads[0]
        return BKQuery(
            self.text,
            BKProgram(rules, answer=answer, name="surface-bk"),
            frozenset(const_atoms),
        )

    def parse_bk_rule(self, const_atoms: set) -> BKRule:
        head = self.parse_bk_atom(const_atoms)
        tails: list = []
        if self.at(":-"):
            self.next()
            tails.append(self.parse_bk_atom(const_atoms))
            while self.at(","):
                self.next()
                tails.append(self.parse_bk_atom(const_atoms))
        self.expect(".")
        return BKRule(head, tails)

    def parse_bk_atom(self, const_atoms: set) -> BKAtom:
        pred = self.expect_name()
        self.expect("(")
        pattern = self.parse_bk_pattern(const_atoms)
        self.expect(")")
        return BKAtom(pred, pattern)

    def parse_bk_pattern(self, const_atoms: set):
        token = self.peek()
        if token.kind == "name" and token.text not in _KEYWORDS:
            self.next()
            return BKVar(token.text)
        if token.kind in ("int", "string"):
            value = self.parse_value()
            const_atoms |= set(value_adom(value))
            return value
        if self.at("["):
            # BK named tuples: [A: pattern, B: pattern].
            self.next()
            fields: dict = {}
            while True:
                field = self.expect_name()
                self.expect(":")
                fields[field] = self.parse_bk_pattern(const_atoms)
                if not self.at(","):
                    break
                self.next()
            self.expect("]")
            return fields
        if self.at("{"):
            self.next()
            members: list = []
            if not self.at("}"):
                members.append(self.parse_bk_pattern(const_atoms))
                while self.at(","):
                    self.next()
                    members.append(self.parse_bk_pattern(const_atoms))
            self.expect("}")
            hashable = all(not isinstance(m, (dict, set)) for m in members)
            if not hashable:
                raise self.fail("nested set/tuple patterns inside BK sets")
            return set(members)
        raise self.fail("expected a BK pattern")

    # -- GTM queries -------------------------------------------------------

    def parse_gtm(self) -> GTMQuery:
        self.expect("gtm")
        name = self.expect_name()
        from ..gtm.library import all_machines

        machines = all_machines()
        if name not in machines:
            raise ParseError(
                f"unknown library machine {name!r}; "
                f"available: {', '.join(sorted(machines))}"
            )
        machine, schema, output_type = machines[name]
        return GTMQuery(self.text, name, machine, schema, output_type)


def parse(text: str, schema: Schema | None = None) -> SurfaceQuery:
    """Parse one surface query.

    With a *schema*, comprehensions are typechecked immediately (free
    variable rtypes inferred); without one, call
    :meth:`Comprehension.typecheck` before planning.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty query text")
    query = _Parser(text).parse_query()
    if schema is not None and isinstance(query, Comprehension):
        query.typecheck(schema)
    return query
