"""Property tests for the physical-operator kernel.

Two families of properties pin the kernel down:

* **differential** — the indexed paths (:class:`HashJoin` probing a
  :class:`Scan` index) must produce exactly the multiset of extensions
  the un-indexed reference :func:`nested_loop_join` produces, both at
  the operator level on random binding/fact sets and end-to-end through
  the COL and BK evaluators on seeded random databases (indexed vs
  naive/no-index modes are full program runs through different join
  code paths);
* **counter consistency** — the :class:`OpStats` actuals that EXPLAIN
  renders must obey the obvious data-flow inequalities
  (``rows_out <= rows_in * |facts|``, one probe per keyed binding, one
  index build per spec).
"""

from hypothesis import given, settings, strategies as st

from repro.budget import Budget
from repro.deductive.bk import (
    BKAtom,
    BKProgram,
    BKRule,
    BKVar,
    chain_to_list_program,
    hashjoin_fixpoint,
    leq,
    run_bk,
    seed_extents,
)
from repro.deductive.col import Interp
from repro.deductive.stratify import run_stratified
from repro.engine.ops import (
    FIRST_COORDINATE,
    HashJoin,
    OpStats,
    Scan,
    TupleKey,
    nested_loop_join,
)
from repro.errors import is_undefined
from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.model.values import Atom, NamedTup, Tup
from repro.query.parser import parse
from repro.workloads import chain_for_bk


ATOMS = [Atom(label) for label in "abcd"]

pairs = st.lists(
    st.tuples(st.sampled_from(ATOMS), st.sampled_from(ATOMS)),
    max_size=12,
    unique=True,
)


def _pair_facts(raw):
    return {Tup(pair) for pair in raw}


def _extend(binding, fact):
    """Join {x: atom} bindings against R(x, y) pair facts."""
    if fact.items[0] == binding["x"]:
        yield {**binding, "y": fact.items[1]}


def _canon(bindings):
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in b.items())) for b in bindings
    )


class TestHashJoinVsReference:
    @given(pairs, st.lists(st.sampled_from(ATOMS), max_size=8))
    @settings(max_examples=100)
    def test_tuple_key_join_matches_nested_loop(self, raw, seeds):
        facts = _pair_facts(raw)
        bindings = [{"x": atom} for atom in seeds]
        scan = Scan("R", facts)
        join = HashJoin(scan, TupleKey(2, (0,)))
        indexed = join.join(
            bindings, lambda b: (b["x"],), _extend
        )
        reference = nested_loop_join(bindings, facts, _extend)
        assert _canon(indexed) == _canon(reference)

    @given(pairs, st.lists(st.sampled_from(ATOMS), max_size=8))
    @settings(max_examples=100)
    def test_first_coordinate_probe_matches_filter(self, raw, seeds):
        facts = _pair_facts(raw)
        scan = Scan("R", facts)
        for atom in seeds:
            probed = scan.probe(FIRST_COORDINATE, atom)
            assert probed == {f for f in facts if f.items[0] == atom}

    @given(pairs, st.lists(st.sampled_from(ATOMS), max_size=8))
    @settings(max_examples=100)
    def test_exclusion_agrees_with_reference(self, raw, seeds):
        facts = _pair_facts(raw)
        exclude = {f for f in facts if f.items[1] == Atom("a")}
        bindings = [{"x": atom} for atom in seeds]
        scan = Scan("R", facts)
        join = HashJoin(scan, TupleKey(2, (0,)))
        indexed = join.join(
            bindings, lambda b: (b["x"],), _extend, exclude=exclude
        )
        reference = nested_loop_join(
            bindings, facts, _extend, exclude=exclude
        )
        assert _canon(indexed) == _canon(reference)


class TestCounterConsistency:
    @given(pairs, st.lists(st.sampled_from(ATOMS), max_size=8))
    @settings(max_examples=100)
    def test_hash_join_counters(self, raw, seeds):
        facts = _pair_facts(raw)
        bindings = [{"x": atom} for atom in seeds]
        stats = OpStats()
        scan = Scan("R", facts)
        join = HashJoin(scan, TupleKey(2, (0,)), stats=stats)
        out = join.join(bindings, lambda b: (b["x"],), _extend)
        assert stats.rows_in == len(bindings)
        assert stats.probes == len(bindings)  # every binding has a key
        assert stats.rows_out == len(out)
        assert stats.rows_out <= stats.rows_in * max(len(facts), 1)
        assert scan.stats.index_builds == 1

    @given(pairs, st.lists(st.sampled_from(ATOMS), max_size=8))
    @settings(max_examples=100)
    def test_nested_loop_counters(self, raw, seeds):
        facts = _pair_facts(raw)
        bindings = [{"x": atom} for atom in seeds]
        stats = OpStats()
        out = nested_loop_join(bindings, facts, _extend, stats=stats)
        assert stats.rows_in == len(bindings)
        assert stats.rows_out == len(out)
        assert stats.rows_out <= stats.rows_in * max(len(facts), 1)

    @given(pairs)
    @settings(max_examples=50)
    def test_incremental_index_maintenance(self, raw):
        facts = list(_pair_facts(raw))
        scan = Scan("R")
        scan.index(TupleKey(2, (0,)))  # build empty, then maintain
        for fact in facts:
            assert scan.add(fact)
            assert not scan.add(fact)  # idempotent
        rebuilt = Scan("R", facts)
        spec = TupleKey(2, (0,))
        assert scan.index(spec) == rebuilt.index(spec)
        assert scan.stats.index_builds == 1


TC_TEXT = (
    "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). } answer T"
)
COL_SCHEMA = Schema({"R": parse_type("[U, U]")})


class TestColIndexedVsNaive:
    @given(pairs)
    @settings(max_examples=40, deadline=None)
    def test_transitive_closure_agrees(self, raw):
        database = Database.from_plain(COL_SCHEMA, R=[tuple(p) for p in raw])
        program = parse(TC_TEXT, schema=COL_SCHEMA).program
        indexed = run_stratified(program, database, Budget())
        naive = run_stratified(program, database, Budget(), naive=True)
        saved = Interp.use_index
        Interp.use_index = False
        try:
            unindexed = run_stratified(program, database, Budget())
        finally:
            Interp.use_index = saved
        assert indexed == naive == unindexed


def _bk_join_program():
    x, y, z = BKVar("x"), BKVar("y"), BKVar("z")
    rules = [
        BKRule(
            BKAtom("ANS", {"A": x, "C": z}),
            [BKAtom("R1", {"A": x, "B": y}), BKAtom("R2", {"B": y, "C": z})],
        ),
        BKRule(
            BKAtom("ANS", {"A": x, "C": x}),
            [BKAtom("R1", {"A": x, "B": x})],
        ),
    ]
    return BKProgram(rules, answer="ANS", name="prop-join")


def _extents_at_cut(program, database, rounds: int, naive: bool) -> tuple:
    """(converged, non-empty extents) after *rounds* fixpoint rounds."""
    extents = seed_extents(database)
    converged = hashjoin_fixpoint(
        program, extents, Budget(), max_rounds=rounds, naive=naive
    )
    return converged, {
        pred: frozenset(extent.facts) for pred, extent in extents.items() if extent.facts
    }


def _subsumed(lower: dict, upper: dict) -> bool:
    """Every fact of *lower* is ≤ some fact of *upper* in the same extent."""
    return all(
        any(fact == other or leq(fact, other) for other in upper.get(pred, ()))
        for pred, facts in lower.items()
        for fact in facts
    )


class TestBKModesAgree:
    @given(pairs, pairs)
    @settings(max_examples=40, deadline=None)
    def test_hashjoin_naive_agree_at_every_cut(self, raw1, raw2):
        database = {
            "R1": [NamedTup({"A": a, "B": b}) for a, b in raw1],
            "R2": [NamedTup({"B": b, "C": c}) for b, c in raw2],
        }
        program = _bk_join_program()
        for rounds in range(1, 10):
            hashed = _extents_at_cut(program, database, rounds, naive=False)
            naive = _extents_at_cut(program, database, rounds, naive=True)
            assert hashed == naive, f"cut {rounds}"
            if naive[0]:
                break
        else:
            raise AssertionError("no convergence within 9 rounds")
        results = [run_bk(program, database, Budget(), naive=flag) for flag in (False, True)]
        assert not any(is_undefined(r) for r in results), f"unexpected ?: {results}"
        assert results[0] == results[1]

    def test_e8_hashjoin_subsumed_by_naive_at_every_cut(self):
        # Example 5.4 diverges, so every cut is below convergence.  The
        # extents agree after the full first round; later, the naive
        # driver lets ANS read this round's LIST facts, while the
        # hash-join driver reads them next round, from the delta.
        program = chain_to_list_program()
        database = chain_for_bk(2)
        for rounds in range(1, 4):
            hash_converged, hashed = _extents_at_cut(program, database, rounds, naive=False)
            naive_converged, naive = _extents_at_cut(program, database, rounds, naive=True)
            assert not hash_converged and not naive_converged
            assert _subsumed(hashed, naive), f"cut {rounds}"
            assert hashed["LIST"] == naive["LIST"], f"cut {rounds}"
            if rounds == 1:
                assert hashed == naive
