"""Interner invariants: identity, equality, and observational parity.

Every value constructor consults the module interner
(:data:`repro.model.intern.INTERNER`).  The non-interned oracle is the
past-cap path: values built while the table is full are equal to, but
not the same object as, their canonical twins.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.intern import INTERNER, Interner
from repro.model.values import BOTTOM, TOP, Atom, NamedTup, SetVal, Tup

from tests.conftest import interner_full, rebuild


def _sample_values():
    return [
        Atom("a"),
        Atom(7),
        Tup([Atom("a"), Atom("b")]),
        SetVal([Atom(1), Atom(2)]),
        SetVal([Tup([Atom("x"), SetVal([])])]),
        NamedTup({"A": Atom("a"), "B": SetVal([Atom("b")])}),
    ]


def _metadata(value):
    return (
        value.struct_hash,
        value.canon_key(),
        value.depth,
        value.size,
        value.atoms,
        value.has_top,
    )


class TestIdentity:
    def test_repeated_construction_is_identical(self):
        assert Atom("a") is Atom("a")
        assert Tup([Atom(1), Atom(2)]) is Tup([Atom(1), Atom(2)])
        assert SetVal([Atom(1), Atom(2)]) is SetVal([Atom(2), Atom(1)])
        assert NamedTup({"A": Atom(1), "B": Atom(2)}) is NamedTup(
            {"B": Atom(2), "A": Atom(1)}
        )

    def test_distinct_structures_stay_distinct(self):
        assert Atom("a") is not Atom("b")
        assert Atom(1) is not Atom("1")
        assert SetVal([Atom(1)]) != Tup([Atom(1)])

    def test_no_identity_without_interning(self):
        # Past the cap nothing is stored, so equal builds stay distinct.
        with interner_full():
            assert Tup([Atom(1)]) is not Tup([Atom(1)])

    def test_nested_shares_substructure(self):
        inner = SetVal([Atom("x")])
        outer = SetVal([SetVal([Atom("x")]), Atom("y")])
        member = next(m for m in outer.items if isinstance(m, SetVal))
        assert member is inner


class TestObservationalParity:
    """Interned and past-cap values are indistinguishable to == and hash."""

    def test_equality_and_hash_match_plain(self):
        with interner_full():
            plain = _sample_values()
        for value in plain:
            rebuilt = rebuild(value)
            assert rebuilt is not value
            assert rebuilt == value
            assert hash(rebuilt) == hash(value)
            assert value == rebuilt

    def test_bool_vs_int_labels_not_conflated(self):
        with pytest.raises(Exception):
            Atom(True)

    def test_pickle_round_trip(self):
        value = SetVal([Tup([Atom("a"), Atom(1)])])
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value
        assert clone is value


class TestLifecycle:
    def test_stats_count_hits_and_misses(self):
        Atom("fresh-0")
        before = INTERNER.stats()
        Atom("fresh-0")
        after = INTERNER.stats()
        assert after.hits == before.hits + 1
        assert after.size == before.size
        assert 0.0 <= after.hit_rate() <= 1.0
        assert set(after.as_dict()) == {"hits", "misses", "skips", "size", "hit_rate"}

    def test_bounded_table_skips_instead_of_evicting(self):
        interner = Interner(max_entries=1)
        interner.store(("Atom", "a"), object())
        kept = interner._table[("Atom", "a")]
        interner.store(("Atom", "b"), object())
        assert len(interner) == 1
        assert interner.skips == 1
        assert interner._table[("Atom", "a")] is kept


# -- generated nested untyped values -------------------------------------

_atoms = st.one_of(st.text(max_size=3), st.integers(-5, 20)).map(Atom)

_values = st.recursive(
    st.one_of(_atoms, st.just(BOTTOM), st.just(TOP)),
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(Tup),
        st.lists(children, max_size=4).map(SetVal),  # heterogeneous
        st.dictionaries(
            st.sampled_from("ABC"), children, min_size=1, max_size=3
        ).map(NamedTup),
    ),
    max_leaves=12,
)


@st.composite
def _past_cap_values(draw):
    """A generated value, every node of it built past the cap."""
    with interner_full():
        return draw(_values)


class TestGeneratedValues:
    @settings(max_examples=120, deadline=None)
    @given(_past_cap_values())
    def test_rebuild_identity_and_past_cap_parity(self, plain):
        canonical = rebuild(plain)
        # A structural rebuild returns the one canonical object.
        assert rebuild(plain) is canonical
        assert rebuild(canonical) is canonical
        # Built past the cap: equal in every observable, not identical
        # (⊥ and ⊤ are singletons, so only composites and atoms differ).
        with interner_full():
            again = rebuild(canonical)
        if canonical is not BOTTOM and canonical is not TOP:
            assert plain is not canonical
            assert again is not canonical
        for other in (plain, again):
            assert other == canonical and canonical == other
            assert hash(other) == hash(canonical)
            assert _metadata(other) == _metadata(canonical)
        # Unpickling rebuilds through the constructors: the canonical
        # instance comes back, whichever twin was pickled.
        assert pickle.loads(pickle.dumps(canonical)) is canonical
        assert pickle.loads(pickle.dumps(plain)) is canonical
