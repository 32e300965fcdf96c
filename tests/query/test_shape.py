"""Prepared shapes: one plan per query shape, bound per text.

A text whose shape is already planned must get exactly what a fresh
session planning that text gets: the same EXPLAIN bytes, the same
answers, and the same EXPLAIN ANALYZE apart from the cache-counter
lines — for every bank query and for generated constant substitutions
(repeated constants, constants outside the active domain, escaped
quotes).  Two threads may run one prepared plan at once.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.budget import Budget
from repro.model.values import Atom
from repro.query.explain import render_plan
from repro.query.parser import ParseError
from repro.query.session import Session
from repro.query.shape import lift, placeholders
from tests.query.test_differential import BANK, DATABASES

#: Labels constants are drawn from: atoms of the bank databases, one
#: absent from every active domain, and one that needs escaping.
LABELS = ["a", "b", "c", "d", "zz", "a'b"]

#: EXPLAIN ANALYZE lines that count cache traffic, which differs
#: between a warm session and a fresh one by design.
_COUNTER_LINES = ("kernel cache:", "memo cache:", "plan cache:", "interner:")


def _quote(label: str) -> str:
    return "'" + label.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _substitute(text: str, labels) -> str:
    """*text* with its liftable constants replaced, slot by slot."""
    key = lift(text).key
    for slot, label in zip(placeholders(len(labels)), labels):
        key = key.replace(_quote(slot.label), _quote(label))
    return key


def _without_counters(transcript: str) -> str:
    return "\n".join(
        line
        for line in transcript.splitlines()
        if not line.strip().startswith(_COUNTER_LINES)
    )


def _run_sibling(warm: Session, text: str) -> None:
    """Plan and run *text* in *warm*, then drop its memo entry: a
    same-shape text then binds the prepared plan and reuses the
    kernels and orders this run left, but still runs."""
    warm.query(text)
    warm.memo.clear()


def _assert_as_fresh(database, warm: Session, text: str) -> None:
    assert render_plan(warm.plan(text)) == render_plan(Session(database).plan(text))
    assert _without_counters(warm.explain(text, run=True)) == _without_counters(
        Session(database).explain(text, run=True)
    )
    assert warm.query(text) == Session(database).query(text)


SHAPED = [(db, text) for db, text in BANK if lift(text).constants]


def _pair_query(x: str, y: str) -> str:
    """A constant-bound closure (demand-rewritten) between *x* and *y*."""
    return (
        "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). "
        f"Q(x, y) :- T(x, y), x = '{x}', y = '{y}'. }} answer Q"
    )


class TestLift:
    def test_equal_constants_share_a_slot(self):
        same = lift("rules { Q(x, y) :- R(x, y), x = 'a', y = 'a'. } answer Q")
        other = lift("rules { Q(x, y) :- R(x, y), x = 'a', y = 'b'. } answer Q")
        assert same.constants == (Atom("a"),)
        assert other.constants == (Atom("a"), Atom("b"))
        assert same.key != other.key

    def test_constants_differing_only_in_value_share_a_shape(self):
        first = lift("R |> select(1 = 'a', 2 = 'b')")
        second = lift("R |> select(1 = 'c', 2 = 'd')")
        assert first.key == second.key
        assert second.constants == (Atom("c"), Atom("d"))

    def test_integers_and_bare_names_stay_in_the_shape(self):
        assert lift("R |> select(1 = 2) |> project(1)").constants == ()
        assert lift("{ 1, [2, a] }").constants == ()

    def test_a_constant_spelled_as_a_bare_name_is_not_lifted(self):
        # In value context 'a' and a are one atom; a slot would split them.
        shape = lift("{ 'a', a, 'b' }")
        assert shape.constants == (Atom("b"),)
        assert "'a'" in shape.key

    def test_escapes_and_comments(self):
        shape = lift("R |> select(1 = 'a\\'b') # it's 'c'")
        assert shape.constants == (Atom("a'b"),)
        assert shape.key.endswith("# it's 'c'")


class TestPlanCounters:
    def test_same_shape_is_one_plan_miss_and_two_memo_misses(self):
        session = Session(DATABASES["main"])
        session.query("R |> select(1 = 'a') |> project(2)")
        session.query("R |> select(1 = 'b') |> project(2)")
        assert session.plans.stats.misses == 1
        assert session.plans.stats.hits == 1
        assert session.memo.stats.misses == 2
        assert session.memo.stats.hits == 0

    def test_swapped_constants_do_not_share_a_memo_entry(self):
        session = Session(DATABASES["main"])
        forward = session.query(_pair_query("a", "b"))
        backward = session.query(_pair_query("b", "a"))
        assert session.plans.stats.hits == 1
        assert session.memo.stats.misses == 2
        assert forward == Session(DATABASES["main"]).query(_pair_query("a", "b"))
        assert backward == Session(DATABASES["main"]).query(_pair_query("b", "a"))

    def test_kernels_compile_once_per_shape(self):
        session = Session(DATABASES["main"])
        _, first = session.run(_pair_query("a", "d"))
        _, second = session.run(_pair_query("b", "c"))
        # The second text reuses the first's kernels; it compiles only
        # a schedule its own extents choose that the first never met.
        assert second.kernel_cache["misses"] < first.kernel_cache["misses"]
        assert second.kernel_cache["hits"] > second.kernel_cache["misses"]


class TestUnsharedShapes:
    # The rejected COL lowering quotes the rule, constant included.
    QUOTING = "{ [x, y] | S(x) and not R([y, '%s']) }"

    def test_a_note_quoting_a_constant_is_the_texts_own(self):
        database = DATABASES["main"]
        warm = Session(database)
        warm.plan(self.QUOTING % "zz")
        for label in ("a", "a'b"):
            text = self.QUOTING % label.replace("'", "\\'")
            _assert_as_fresh(database, warm, text)
        # One LRU entry marks the shape; no text of it is cached.
        assert len(warm.plans) == 1

    def test_a_text_that_fails_raises_its_own_error(self):
        database = DATABASES["main"]
        warm = Session(database)
        with pytest.raises(ParseError) as first:
            warm.plan("{ x | S('a' }")
        with pytest.raises(ParseError) as second:
            warm.plan("{ x | S('abc' }")
        with pytest.raises(ParseError) as fresh:
            Session(database).plan("{ x | S('abc' }")
        assert str(second.value) == str(fresh.value) != str(first.value)


class TestShapeMatchesFreshPlan:
    @pytest.mark.parametrize("db_key,text", BANK, ids=[t[:40] for _, t in BANK])
    def test_bank_query_after_its_shape_is_planned(self, db_key, text):
        database = DATABASES[db_key]
        warm = Session(database)
        shape = lift(text)
        if shape.constants:
            # Run a same-shape sibling first, so *text* binds its plan.
            _run_sibling(warm, _substitute(text, [f"zz{i}" for i in range(len(shape.constants))]))
        _assert_as_fresh(database, warm, text)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        entry=st.sampled_from(SHAPED),
        first=st.lists(st.sampled_from(LABELS), min_size=3, max_size=3),
        second=st.lists(st.sampled_from(LABELS), min_size=3, max_size=3),
    )
    def test_generated_substitutions(self, entry, first, second):
        db_key, text = entry
        database = DATABASES[db_key]
        count = len(lift(text).constants)
        warm = Session(database)
        _run_sibling(warm, _substitute(text, first[:count]))
        _assert_as_fresh(database, warm, _substitute(text, second[:count]))


class TestLateRender:
    def test_a_report_renders_its_own_run(self):
        database = DATABASES["main"]
        session = Session(database)
        _, report = session.run(_pair_query("a", "d"))
        session.run(_pair_query("b", "c"))  # shares the first run's kernels
        _, fresh = Session(database).run(_pair_query("a", "d"))
        assert report.physical == fresh.physical


class TestConcurrentRuns:
    def test_two_threads_on_one_prepared_plan(self):
        database = DATABASES["main"]
        pairs = [(x, y) for x in "abcd" for y in "abcd" if x != y]
        expected = {pair: Session(database).query(_pair_query(*pair)) for pair in pairs}
        session = Session(database, memo_entries=1)
        results: dict = {}
        errors: list = []

        def drive(order):
            try:
                for _ in range(3):
                    for pair in order:
                        # A forced backend keys its own memo entry, and
                        # the one-entry memo evicts: every call runs.
                        result, _ = session.run(
                            _pair_query(*pair), backend="col-stratified",
                            budget=Budget(),
                        )
                        results.setdefault(pair, set()).add(result)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(pairs,)),
            threading.Thread(target=drive, args=(pairs[::-1],)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert session.plans.stats.misses == 1
        for pair in pairs:
            assert results[pair] == {expected[pair]}
