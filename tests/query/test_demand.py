"""The demand (magic-set) rewrite of constant-bound rule blocks.

``col-demand`` runs :func:`repro.deductive.magic.demand_rewrite`'s
program on the semi-naive stratified driver.  The naive driver on the
*original* program stays the oracle: on generated positive blocks —
left- and right-linear and non-linear transitive closure and
same-generation, queried through one or two bound arguments — over
generated graphs with cycles and disconnected parts, every defined
answer agrees.  A ``?`` of the original beside a defined rewrite
answer is allowed (Hoare order); the converse fails.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.budget import Budget
from repro.deductive.magic import NotDemandable, demand_rewrite
from repro.deductive.stratify import run_stratified
from repro.errors import is_undefined
from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.query.parser import parse
from repro.query.planner import BACKEND_RANK, FACT_DRIVEN, build_plan, execute_plan
from repro.query.session import Session

GRAPH = Schema({"R": parse_type("[U, U]"), "S": parse_type("[U, U]")})
NODES = "abcdefg"

#: Recursive bodies over R (and S as same-generation's flat relation).
CLOSURES = {
    "left-linear": "T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z).",
    "right-linear": "T(x, y) :- R(x, y). T(x, z) :- R(x, y), T(y, z).",
    "non-linear": "T(x, y) :- R(x, y). T(x, z) :- T(x, y), T(y, z).",
    "same-generation": "T(x, y) :- S(x, y). T(x, y) :- R(x, u), T(u, v), R(y, v).",
}

#: Query rules binding one or two of T's arguments.
QUERIES = [
    "Q(y) :- T('{a}', y).",
    "Q(x) :- T(x, '{a}').",
    "Q(x, y) :- T(x, y), x = '{a}'.",
    "Q(x, y) :- T(x, y), y = '{b}'.",
    "Q(x, y) :- T(x, y), x = '{a}', y = '{b}'.",
    "Q(x, y) :- x = '{a}', T(x, y), T(y, '{b}').",
]

_edges = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)), max_size=14
)


@st.composite
def demand_cases(draw):
    closure = draw(st.sampled_from(sorted(CLOSURES)))
    query = draw(st.sampled_from(QUERIES)).format(
        a=draw(st.sampled_from(NODES)), b=draw(st.sampled_from(NODES))
    )
    rules = CLOSURES[closure].split(". ")
    if draw(st.booleans()):
        rules.reverse()
    body = " ".join(rule.rstrip(".") + "." for rule in rules)
    text = f"rules {{ {body} {query} }} answer Q"
    database = Database.from_plain(GRAPH, R=draw(_edges), S=draw(_edges))
    return text, database


def _agree(oracle, rewritten) -> None:
    """Hoare order: the rewrite may be defined where the oracle is
    ``?``, never the other way round; defined answers are equal."""
    if is_undefined(oracle):
        return
    assert not is_undefined(rewritten)
    assert rewritten == oracle


class TestDifferential:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(demand_cases())
    def test_rewrite_agrees_with_the_naive_oracle(self, case):
        text, database = case
        plan = build_plan(parse(text, schema=database.schema), database)
        assert plan.find("col-demand") is not None, text
        oracle = execute_plan(plan, database, Budget(), backend="col-naive").result
        rewritten = execute_plan(plan, database, Budget(), backend="col-demand").result
        _agree(oracle, rewritten)

    @pytest.mark.parametrize(
        "text",
        [
            # Shrunk from the generator: a cycle through the bound node,
            # and a bound node with no edges at all.
            "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). "
            "Q(x, y) :- T(x, y), x = 'a', y = 'a'. } answer Q",
            "rules { T(x, y) :- R(x, y). T(x, z) :- R(x, y), T(y, z). "
            "Q(y) :- T('g', y). } answer Q",
        ],
    )
    def test_pinned_cases(self, text):
        database = Database.from_plain(
            GRAPH, R=[("a", "b"), ("b", "c"), ("c", "a"), ("d", "e")], S=[]
        )
        plan = build_plan(parse(text, schema=database.schema), database)
        oracle = execute_plan(plan, database, Budget(), backend="col-naive").result
        rewritten = execute_plan(plan, database, Budget(), backend="col-demand").result
        _agree(oracle, rewritten)

    def test_budget_question_mark_is_only_ever_lifted(self):
        # A budget the full closure exhausts but the demanded part fits:
        # the rewrite may be defined where the original is ``?``.
        ring = [(f"n{i}", f"n{(i + 1) % 12}") for i in range(12)]
        database = Database.from_plain(GRAPH, R=ring + [("m0", "m1")], S=[])
        text = (
            "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). "
            "Q(y) :- T('m0', y). } answer Q"
        )
        program = parse(text, schema=database.schema).program
        rewrite = demand_rewrite(program, database.schema.names())
        oracle = run_stratified(program, database, Budget(facts=40), naive=True)
        rewritten = run_stratified(rewrite.program, database, Budget(facts=40))
        assert is_undefined(oracle)
        assert not is_undefined(rewritten)
        assert rewritten == run_stratified(program, database, Budget())


def closure_pair(a: str, b: str) -> str:
    return (
        "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). "
        f"Q(x, y) :- T(x, y), x = '{a}', y = '{b}'. }} answer Q"
    )


def _ring_with_chords(nodes: int = 24, edges: int = 60) -> Database:
    """A strongly connected graph: a ring plus seeded random chords."""
    rng = random.Random(f"ring/{nodes}/{edges}")
    rows = {(f"a{i}", f"a{(i + 1) % nodes}") for i in range(nodes)}
    while len(rows) < edges:
        a, b = rng.sample(range(nodes), 2)
        rows.add((f"a{a}", f"a{b}"))
    return Database.from_plain(Schema({"R": parse_type("[U, U]")}), R=sorted(rows))


class TestRewrite:
    def test_answer_keeps_its_head_and_names_are_fresh(self):
        schema = Schema(
            {
                "R": parse_type("[U, U]"),
                "T^bf": parse_type("[U, U]"),
                "magic^T^bf": parse_type("U"),
            }
        )
        text = (
            "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). "
            "Q(y) :- T('a', y). } answer Q"
        )
        program = parse(text, schema=schema).program
        rewrite = demand_rewrite(program, schema.names())
        heads = {rule.head.name for rule in rewrite.program.rules}
        assert rewrite.program.answer == "Q" and "Q" in heads
        assert not heads & set(schema.names())
        assert rewrite.describe() == "T^bf"
        # The colliding schema names stay untouched in the database.
        database = Database.from_plain(
            schema, R=[("a", "b"), ("b", "c")], **{"T^bf": [("z", "z")], "magic^T^bf": ["z"]}
        )
        assert run_stratified(rewrite.program, database, Budget()) == run_stratified(
            program, database, Budget()
        )

    @pytest.mark.parametrize(
        "text,reason",
        [
            (
                "rules { P(x) :- R(x, y), not T(x). T(x) :- R(x, x). T(y) :- T(x), R(x, y). "
                "Q(x) :- P(x), x = 'a'. } answer Q",
                "negation on T",
            ),
            (
                "rules { T({x}) :- R(x, y). T(y) :- T(x), R(x, y). Q(x) :- T(x), x = 'a'. } answer Q",
                "T has a set, function or nested term",
            ),
            (
                "rules { T(y) :- R('a', y). T(z) :- T(y), R(y, z). } answer T",
                "no constant binds a recursive predicate's argument",
            ),
            (
                "rules { Q(x) :- R(x, y), x = 'a'. } answer Q",
                "block is not recursive",
            ),
            (
                "rules { T(x, y) :- R(x, y). T(x) :- T(x, y). Q(x) :- T(x), x = 'a'. } answer Q",
                "T is used at several arities",
            ),
            (
                "rules { R(x, z) :- R(x, y), R(y, z). Q(y) :- R('a', y). } answer Q",
                "derived R is also a base predicate",
            ),
        ],
    )
    def test_out_of_scope_blocks_are_left_as_written(self, text, reason):
        schema = Schema({"R": parse_type("[U, U]")})
        program = parse(text, schema=schema).program
        with pytest.raises(NotDemandable, match=reason):
            demand_rewrite(program, schema.names())
        database = Database.from_plain(schema, R=[("a", "b")])
        plan = build_plan(parse(text, schema=schema), database)
        assert plan.find("col-demand") is None
        notes = [r for r in plan.rewrites if r.name == "demand"]
        assert len(notes) == 1 and not notes[0].applied
        assert reason in notes[0].note

    def test_data_function_heads_are_out_of_scope(self):
        schema = Schema({"R": parse_type("[U, U]")})
        text = (
            "rules { y in F(x) :- R(x, y). T(x) :- R(x, y). T(y) :- T(x), R(x, y). "
            "Q(x) :- T(x), x = 'a'. } answer Q"
        )
        program = parse(text, schema=schema).program
        with pytest.raises(NotDemandable, match="data function F"):
            demand_rewrite(program, schema.names())


class TestPlanning:
    def test_closure_pair_plans_col_demand(self):
        database = _ring_with_chords()
        session = Session(database)
        text = closure_pair("a3", "a7")
        plan = session.plan(text)
        assert plan.chosen.backend == "col-demand"
        explained = session.explain(text)
        assert "-> col-demand" in explained
        assert "+ demand: T^bb, T^bf" in explained

    def test_planner_declines_a_domain_sized_seed(self):
        database = _ring_with_chords()
        text = (
            "rules { T(x, y) :- R(x, y). T(x, z) :- R(x, y), T(y, z). "
            "Q(y) :- R(x, x), T(x, y). } answer Q"
        )
        plan = build_plan(parse(text, schema=database.schema), database)
        assert plan.find("col-demand") is not None
        assert plan.chosen.backend != "col-demand"

    def test_backend_is_registered(self):
        assert "col-demand" in FACT_DRIVEN
        assert "col-demand" in BACKEND_RANK

    def test_memo_keys_demand_apart_from_the_original(self):
        session = Session(_ring_with_chords())
        text = closure_pair("a1", "a5")
        demanded = session.query(text)
        assert session.last_report.backend == "col-demand"
        full = session.query(text, backend="col-stratified")
        assert not session.last_report.cached
        assert full == demanded
        session.query(text, backend="col-stratified")
        assert session.last_report.cached
