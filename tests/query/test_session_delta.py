"""Session.apply_delta: memo keying and plans across commits.

A commit only switches the session's database.  The genericity-aware
memo is keyed on the query text and the data each entry was computed
from, so entries whose footprint intersects the delta miss and the
others *hit* across the commit (restricted keying); plans are keyed on
(text, database), so every plan after a commit is the one a fresh
session builds.
"""

from hypothesis import given, settings, strategies as st

from repro.budget import Budget
from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.algebra.ast import Assign, EncodeInput, Program, Var
from repro.query.explain import render_plan
from repro.query.parser import parse
from repro.query.planner import algebra_reads_only, build_plan, execute_plan
from repro.query.session import Session, _program_predicates
from repro.store.codec import rows_from_json
from repro.store.tx import apply_ops

TC = "rules { T(x, y) :- E(x, y). T(x, z) :- E(x, y), T(y, z). } answer T"
R_CLOSURE = "rules { T(x, y) :- R(x, y). T(x, z) :- R(x, y), T(y, z). } answer T"

MIXED = Schema(
    {"E": parse_type("[U, U]"), "R": parse_type("[U, U]"), "S": parse_type("U")}
)
#: Fact-driven queries over MIXED: reach over E and over R, a BK block,
#: and a rule block whose IDB head S is also a schema predicate read by
#: no body (only the base S facts seeding its fixpoint bring S in).
FACT_QUERIES = (
    TC,
    R_CLOSURE,
    "bk { A(x) :- S(x). } answer A",
    "rules { S(y) :- E(x, y). } answer S",
)

#: Five atoms shared by every predicate, so states recur and one
#: transaction's facts overlap across predicates.
_label = st.sampled_from(("a", "b", "c", "d", "e"))
_pairs = st.lists(st.lists(_label, min_size=2, max_size=2), max_size=3)
_batch = st.fixed_dictionaries(
    {"E": _pairs, "R": _pairs, "S": st.lists(_label, max_size=2)}
)


def make_db(edges, s=("q",)):
    schema = Schema({"E": parse_type("[U, U]"), "S": parse_type("U")})
    return Database(schema, {"E": set(edges), "S": set(s)})


def commit(database, asserts=None, retracts=None):
    schema = database.schema
    decoded = [
        {
            name: rows_from_json(rows, schema.rtype(name), name)
            for name, rows in (batch or {}).items()
        }
        for batch in (asserts, retracts)
    ]
    return apply_ops(database, *decoded)


class TestRestrictedMemoKeying:
    def test_unrelated_delta_preserves_the_memo_entry(self):
        session = Session(make_db([("a", "b"), ("b", "c")]))
        first, report = session.run(TC, backend="col-stratified")
        assert not report.cached
        new_db, _ = commit(session.database, {"S": ["zz"]})
        session.apply_delta(new_db)
        second, report = session.run(TC, backend="col-stratified")
        assert report.cached  # memo HIT across the commit
        assert second == first

    def test_intersecting_delta_invalidates(self):
        session = Session(make_db([("a", "b")]))
        session.run(TC, backend="col-stratified")
        new_db, _ = commit(session.database, {"E": [["b", "c"]]})
        session.apply_delta(new_db)
        result, report = session.run(TC, backend="col-stratified")
        assert not report.cached
        assert "Atom('c')" in repr(result)  # fresh answer sees the edge

    def test_footprint_includes_idb_named_predicates(self):
        """A schema predicate sharing an IDB head's name seeds the
        fixpoint, so a delta on it must miss the entry."""
        schema = Schema({"E": parse_type("[U, U]"), "T": parse_type("[U, U]")})
        database = Database(schema, {"E": {("a", "b")}, "T": set()})
        session = Session(database)
        first, _ = session.run(TC, backend="col-stratified")
        new_db, _ = commit(session.database, {"T": [["x", "y"]]})
        session.apply_delta(new_db)
        second, report = session.run(TC, backend="col-stratified")
        assert not report.cached
        assert second != first  # the base T fact feeds the answer

    def test_restored_state_hits_the_memo(self):
        """Toggling an edge on and off restores the footprint's data, so
        the entry computed before the toggle answers again."""
        session = Session(make_db([("a", "b"), ("b", "c")]))
        first, _ = session.run(TC, backend="col-stratified")
        session.apply_delta(commit(session.database, {"E": [["c", "a"]]})[0])
        _, report = session.run(TC, backend="col-stratified")
        assert not report.cached
        session.apply_delta(
            commit(session.database, retracts={"E": [["c", "a"]]})[0]
        )
        restored, report = session.run(TC, backend="col-stratified")
        assert report.cached
        cold, _ = Session(session.database).run(TC, backend="col-stratified")
        assert restored == first == cold

    def test_empty_delta_only_rebinds(self):
        session = Session(make_db([("a", "b")]))
        session.run(TC)
        new_db, delta = commit(session.database, {"E": [["a", "b"]]})
        assert delta.empty() and new_db == session.database
        session.apply_delta(new_db)
        assert session.database is new_db
        _, report = session.run(TC)
        assert report.cached

    def test_footprint_hit_survives_a_replan(self):
        """The memo key holds the query text, not the plan's costs: a
        replan on the committed state (the plan LRU cleared) keys the
        unchanged R footprint alike, although eight new E facts
        reprice every candidate."""
        database = Database(
            MIXED, {"E": set(), "R": {("a", "b"), ("b", "c")}, "S": set()}
        )
        session = Session(database)
        first, report = session.run(R_CLOSURE)
        assert not report.cached
        edges = [[f"e{i}", f"e{i + 1}"] for i in range(8)]
        new_db, _ = commit(session.database, {"E": edges})
        session.apply_delta(new_db)
        session.plans.clear()
        second, again = session.run(R_CLOSURE)
        assert again.backend == report.backend
        assert again.cached
        assert second == first


class TestPlansAcrossCommits:
    """A plan is a pure function of (text, database): after any commit
    sequence, the long-lived session's plan is the one a fresh session
    builds on the same state — candidates, costs, fingerprint and
    EXPLAIN bytes."""

    TEXTS = FACT_QUERIES + (
        "{ [x, z] | some y / U : R([x, y]) and R([y, z]) }",
        "R |> select(1 = 'b') |> project(2)",
    )

    @staticmethod
    def _shape(plan):
        return (
            [(c.backend, c.cost) for c in plan.candidates],
            plan.fingerprint,
            render_plan(plan),
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(_batch, _batch), min_size=1, max_size=6))
    def test_plan_equals_a_fresh_sessions(self, transactions):
        database = Database(
            MIXED, {"E": {("a", "b")}, "R": {("b", "c")}, "S": {"a"}}
        )
        session = Session(database)
        for text in self.TEXTS:
            session.plan(text)
        for asserts, retracts in transactions:
            new_db, _ = commit(session.database, asserts, retracts)
            session.apply_delta(new_db)
            fresh = Session(new_db)
            for text in self.TEXTS:
                assert self._shape(session.plan(text)) == self._shape(
                    fresh.plan(text)
                ), text


class TestMemoSoundnessAcrossCommits:
    """The memo is never invalidated; soundness rests on its key alone.
    After every commit, each answer the long-lived session gives (hit
    or miss) must equal a fresh session's on the new database."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(_batch, _batch), max_size=8))
    def test_answers_equal_a_fresh_session(self, transactions):
        database = Database(
            MIXED, {"E": {("a", "b")}, "R": {("b", "c")}, "S": {"a"}}
        )
        session = Session(database)
        for text in FACT_QUERIES:
            session.run(text)
        for asserts, retracts in transactions:
            new_db, _ = commit(session.database, asserts, retracts)
            session.apply_delta(new_db)
            for text in FACT_QUERIES:
                result, _ = session.run(text)
                fresh, _ = Session(new_db).run(text)
                assert result == fresh, text


#: Pipeline steps over binary instances that keep them binary.
_STEPS = st.sampled_from(
    [
        "select(1 = 'a')",
        "select(2 = 'b')",
        "select(1 = 2)",
        "project(2, 1)",
        "union(E)",
        "union(R |> project(2, 1))",
        "diff(R)",
        "intersect(E)",
        "product(R) |> select(2 = 3) |> project(1, 4)",
    ]
)
_pipelines = st.builds(
    lambda source, steps: " |> ".join([source, *steps]),
    st.sampled_from(["E", "R"]),
    st.lists(_STEPS, max_size=3),
)


class TestAlgebraFootprint:
    """An algebra candidate that reads the database through its
    footprint's predicate variables alone keys on that footprint."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_pipelines, st.tuples(_batch, _batch))
    def test_answer_depends_only_on_the_footprint(self, text, batches):
        database = Database(
            MIXED, {"E": {("a", "b")}, "R": {("b", "c")}, "S": {"a"}}
        )
        database, _ = commit(database, *batches)
        plan = build_plan(parse(text, schema=MIXED), database)
        candidate = plan.candidate("algebra")
        assert candidate.fact_driven
        restricted = database.restrict(_program_predicates(plan.query, MIXED))
        full = execute_plan(plan, database, Budget(), backend="algebra").result
        assert execute_plan(plan, restricted, Budget(), backend="algebra").result == full

    def test_r_query_hits_across_an_e_commit(self):
        database = Database(
            MIXED, {"E": {("a", "b")}, "R": {("b", "c")}, "S": {"a"}}
        )
        session = Session(database)
        text = "R |> select(1 = 'b') |> project(2)"
        first, report = session.run(text)
        assert report.backend == "algebra" and not report.cached
        session.plans.clear()
        new_db, _ = commit(session.database, {"E": [["c", "d"]]})
        session.apply_delta(new_db)
        second, report = session.run(text)
        assert report.cached
        assert second == first

    def test_whole_database_reads_are_not_fact_driven(self):
        encoded = Program([Assign("ANS", EncodeInput(["R"]))], input_names=("R",))
        assert not algebra_reads_only(encoded, {"R"})
        other = Program([Assign("ANS", Var("S"))], input_names=("S",))
        assert not algebra_reads_only(other, {"R"})
        assert algebra_reads_only(other, {"R", "S"})
