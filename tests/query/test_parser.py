"""Surface-language parsing: every form, annotations, and errors."""

import pytest

from repro.errors import SchemaError, TypeCheckError
from repro.model.schema import Schema
from repro.model.types import SetType, U, parse_type
from repro.model.values import Atom, SetVal, Tup
from repro.query.ir import (
    BKQuery,
    Comprehension,
    GTMQuery,
    LiteralQuery,
    PipelineQuery,
    RuleQuery,
)
from repro.query.parser import ParseError, parse


SCHEMA = Schema({"R": parse_type("[U, U]"), "S": parse_type("U")})


class TestLiterals:
    def test_ground_set(self):
        query = parse("{ 1, [2, 3], {4} }")
        assert isinstance(query, LiteralQuery)
        assert query.value == SetVal([Atom(1), Tup([Atom(2), Atom(3)]), SetVal([Atom(4)])])

    def test_empty_set(self):
        assert parse("{}").value == SetVal([])

    def test_string_atoms(self):
        assert parse("{ 'a' }").value == SetVal([Atom("a")])

    def test_constants_reported(self):
        assert parse("{ 1, [2, 3] }").constants() == frozenset(
            {Atom(1), Atom(2), Atom(3)}
        )


class TestComprehensions:
    def test_basic_join(self):
        query = parse("{ [x, z] | some y / U : R([x, y]) and R([y, z]) }")
        assert isinstance(query, Comprehension)
        assert query.free_variables() == {"x", "z"}
        assert query.predicates() == ("R",)

    def test_literal_vs_comprehension_brace(self):
        assert isinstance(parse("{ {1}, {2} }"), LiteralQuery)
        assert isinstance(parse("{ x | S(x) }"), Comprehension)

    def test_annotations_collected(self):
        query = parse("{ x / U | S(x) or x = 1 }")
        assert query.annotations == {"x": U}

    def test_typecheck_infers_from_schema(self):
        query = parse("{ [x, y] | R([x, y]) }", schema=SCHEMA)
        assert query.var_types == {"x": U, "y": U}
        assert query.is_typed()

    def test_quantifier_default_rtype_is_obj(self):
        query = parse("{ x | some s : S(x) and x in s }", schema=SCHEMA)
        assert not query.is_typed()

    def test_membership_types_container(self):
        query = parse("{ s | some x / U : S(x) and x in s }", schema=SCHEMA)
        assert query.var_types["s"] == SetType(U)

    def test_untypable_variable_is_an_error(self):
        with pytest.raises(TypeCheckError, match="cannot infer"):
            parse("{ x | y = y and S(y) }", schema=SCHEMA)

    def test_unknown_predicate_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="NOPE"):
            parse("{ x | NOPE(x) }", schema=SCHEMA)

    def test_conflicting_annotations_rejected(self):
        with pytest.raises(ParseError, match="conflicting"):
            parse("{ x / U | S(x / Obj) }")


class TestPipelines:
    def test_steps_compose(self):
        query = parse("R |> select(1 = 2) |> project(1)")
        assert isinstance(query, PipelineQuery)
        assert query.predicates() == ("R",)

    def test_binary_steps_merge_uses(self):
        query = parse("R |> product(S) |> select(3 = 'a')")
        assert query.predicates() == ("R", "S")
        assert Atom("a") in query.constants()

    def test_tuple_membership_condition(self):
        query = parse("R |> select((1, 2) in 3)")
        assert isinstance(query, PipelineQuery)

    def test_bad_operator(self):
        with pytest.raises(ParseError, match="unknown pipeline operator"):
            parse("R |> frobnicate(1)")

    def test_atom_source_cannot_be_piped(self):
        with pytest.raises(ParseError, match="instances"):
            parse("1 |> project(1)")


class TestRuleBlocks:
    def test_answer_inference_single_head(self):
        query = parse("rules { T(x) :- S(x). }")
        assert isinstance(query, RuleQuery)
        assert query.program.answer == "T"

    def test_answer_explicit(self):
        query = parse("rules { T(x) :- S(x). P(x) :- T(x). } answer P")
        assert query.program.answer == "P"

    def test_ambiguous_answer_rejected(self):
        with pytest.raises(ParseError, match="ambiguous"):
            parse("rules { T(x) :- S(x). P(x) :- S(x). }")

    def test_negation_and_recursion_flags(self):
        query = parse(
            "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). } answer T"
        )
        assert query.is_recursive()
        assert not query.has_negation()
        negated = parse("rules { P(x) :- S(x), not T(x). T(x) :- R(x, x). } answer P")
        assert negated.has_negation()

    def test_recursion_is_a_dependency_cycle(self):
        """A body that reads another rule's head is not recursion by
        itself: T is settled before P reads it."""
        negated = parse("rules { P(x) :- S(x), not T(x). T(x) :- R(x, x). } answer P")
        assert not negated.is_recursive()
        chained = parse("rules { T(x) :- S(x). P(x) :- T(x). } answer P")
        assert not chained.is_recursive()
        mutual = parse("rules { A(x) :- S(x). A(x) :- B(x). B(x) :- A(x). } answer B")
        assert mutual.is_recursive()

    def test_range_restriction_enforced_at_parse(self):
        with pytest.raises(TypeCheckError, match="range-restricted"):
            parse("rules { T(x, y) :- S(x). }")

    def test_function_literals(self):
        query = parse(
            "rules { x in F(y) :- R(y, x). T(y, F(y)) :- S(y). } answer T"
        )
        assert isinstance(query, RuleQuery)


class TestBKBlocks:
    def test_basic_block(self):
        query = parse("bk { A(x) :- S(x). } answer A")
        assert isinstance(query, BKQuery)
        assert query.predicates() == ("S",)

    def test_named_tuple_patterns(self):
        query = parse("bk { A([F: x]) :- R([F: x, G: y]). } answer A")
        pattern = query.program.rules[0].head.pattern
        assert set(pattern) == {"F"}

    def test_set_patterns(self):
        query = parse("bk { A(x) :- S({x}). } answer A")
        assert isinstance(query, BKQuery)


class TestGTM:
    def test_library_lookup(self):
        query = parse("gtm parity")
        assert isinstance(query, GTMQuery)
        assert query.name == "parity"
        assert query.predicates() == ("R",)

    def test_unknown_machine(self):
        with pytest.raises(ParseError, match="unknown library machine"):
            parse("gtm does_not_exist")


class TestErrors:
    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("{ 1 } { 2 }")

    def test_keywords_are_not_variables(self):
        with pytest.raises(ParseError):
            parse("{ in | S(in) }")
