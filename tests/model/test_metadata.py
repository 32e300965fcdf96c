"""Property tests for construction-time cached structural metadata.

Every Value caches its canon key, 64-bit structural hash, depth, size,
active-atom set, and ⊤-flag at ``__new__`` time.  These tests pin down
the invariants the hot paths rely on:

* ``a == b  ⇔  a.canon_key() == b.canon_key()`` (total order agrees
  with equality);
* structural-hash collisions are allowed but never change equality
  semantics (the hash is a prefilter, equality stays structural);
* metadata survives pickling, interned and past the interner's cap;
* set members are pre-sorted once — iteration, ``repr``, and
  ``sorted_members()`` all expose the same cached order.
"""

import pickle
import random

import pytest

from repro.model.values import (
    BOTTOM,
    TOP,
    Atom,
    NamedTup,
    SetVal,
    Tup,
    Value,
    adom,
    canon_key,
    set_height,
    value_size,
)

from tests.conftest import interner_full


def random_value(rng: random.Random, max_depth: int = 4) -> Value:
    """A deterministic pseudo-random member of cons_Obj({a..e})."""
    if max_depth == 0 or rng.random() < 0.35:
        return Atom(rng.choice("abcde"))
    if rng.random() < 0.5:
        return Tup(
            [random_value(rng, max_depth - 1) for _ in range(rng.randrange(1, 4))]
        )
    return SetVal(
        [random_value(rng, max_depth - 1) for _ in range(rng.randrange(0, 4))]
    )


def reference_metadata(value: Value) -> tuple:
    """(depth, size, atoms) recomputed by plain recursion."""
    if isinstance(value, Atom):
        return 0, 1, frozenset((value,))
    if isinstance(value, Tup):
        children = list(value.items)
    elif isinstance(value, SetVal):
        children = list(value.items)
        if not children:
            return 1, 1, frozenset()
    elif isinstance(value, NamedTup):
        children = [item for _, item in value.fields]
    else:
        return 0, 1, frozenset()
    parts = [reference_metadata(child) for child in children]
    depth = max((d for d, _, _ in parts), default=0)
    if isinstance(value, SetVal):
        depth += 1
    size = 1 + sum(s for _, s, _ in parts)
    atoms = frozenset().union(*(a for _, _, a in parts)) if parts else frozenset()
    return depth, size, atoms


class TestCanonKeyEquality:
    def test_equal_iff_equal_canon_keys(self):
        rng = random.Random(7)
        values = [random_value(rng) for _ in range(120)]
        for left in values:
            for right in values:
                assert (left == right) == (left.canon_key() == right.canon_key())

    def test_canon_key_module_alias(self):
        value = SetVal([Atom("a"), Tup([Atom("b"), Atom("c")])])
        assert canon_key(value) == value.canon_key()

    def test_rebuilt_value_same_key(self):
        rng = random.Random(11)
        for _ in range(40):
            value = random_value(rng)
            rebuilt = pickle.loads(pickle.dumps(value))
            assert rebuilt == value
            assert rebuilt.canon_key() == value.canon_key()
            assert rebuilt.struct_hash == value.struct_hash


class TestStructuralHash:
    def test_equal_values_equal_hashes(self):
        rng = random.Random(13)
        values = [random_value(rng) for _ in range(120)]
        for left in values:
            for right in values:
                if left == right:
                    assert left.struct_hash == right.struct_hash

    def test_hash_is_order_independent_for_sets(self):
        forward = SetVal([Atom("a"), Atom("b"), Atom("c")])
        backward = SetVal([Atom("c"), Atom("b"), Atom("a")])
        assert forward.struct_hash == backward.struct_hash

    def test_hash_is_order_dependent_for_tuples(self):
        assert (
            Tup([Atom("a"), Atom("b")]).struct_hash
            != Tup([Atom("b"), Atom("a")]).struct_hash
        )

    def test_collisions_do_not_change_equality(self):
        # Equality must stay structural even when hashes collide.  We
        # can't force a 64-bit collision, so simulate one: values whose
        # struct_hash fields agree modulo a tiny bucket count land in
        # the same bucket of any hash-keyed index, and must still
        # compare unequal unless structurally equal.
        rng = random.Random(17)
        values = [random_value(rng) for _ in range(200)]
        buckets: dict = {}
        for value in values:
            buckets.setdefault(value.struct_hash % 7, []).append(value)
        checked = 0
        for bucket in buckets.values():
            for left in bucket:
                for right in bucket:
                    checked += 1
                    if left.struct_hash == right.struct_hash and left != right:
                        # A genuine (simulated or real) collision:
                        # equality still distinguishes the two.
                        assert left.canon_key() != right.canon_key()
                    if left == right:
                        assert left.canon_key() == right.canon_key()
        assert checked > 0

    def test_hash_fits_64_bits(self):
        rng = random.Random(19)
        for _ in range(60):
            value = random_value(rng)
            assert 0 <= value.struct_hash < (1 << 64)


class TestCachedKernels:
    def test_depth_size_atoms_match_reference(self):
        rng = random.Random(23)
        for _ in range(80):
            value = random_value(rng)
            depth, size, atoms = reference_metadata(value)
            assert value.depth == depth == set_height(value)
            assert value.size == size == value_size(value)
            assert value.atoms == atoms == adom(value)

    def test_top_flag(self):
        assert TOP.has_top
        assert not BOTTOM.has_top
        assert not Atom("a").has_top
        assert SetVal([Tup([Atom("a"), TOP])]).has_top
        assert not SetVal([Tup([Atom("a"), Atom("b")])]).has_top
        assert NamedTup({"A": TOP}).has_top

    def test_atoms_are_shared_not_copied(self):
        inner = SetVal([Atom("a"), Atom("b")])
        outer = SetVal([inner])
        # Single-child unions reuse the child's frozenset.
        assert outer.atoms is inner.atoms


class TestPickleRoundTrips:
    CASES = [
        Atom("a"),
        Tup([Atom("a"), Atom("b")]),
        SetVal([]),
        SetVal([Atom("b"), SetVal([Atom("a")]), Tup([Atom("c")])]),
        NamedTup({"A": Atom("a"), "B": SetVal([Atom("b")])}),
        BOTTOM,
        TOP,
        SetVal([Tup([Atom("x"), TOP]), BOTTOM]),
    ]

    @pytest.mark.parametrize("value", CASES, ids=lambda v: type(v).__name__)
    def test_without_interning(self, value):
        with interner_full():
            rebuilt = pickle.loads(pickle.dumps(value))
        assert rebuilt == value
        assert rebuilt.canon_key() == value.canon_key()
        assert rebuilt.struct_hash == value.struct_hash
        assert rebuilt.depth == value.depth
        assert rebuilt.size == value.size
        assert rebuilt.atoms == value.atoms
        assert rebuilt.has_top == value.has_top

    @pytest.mark.parametrize("value", CASES, ids=lambda v: type(v).__name__)
    def test_with_interning(self, value):
        rebuilt = pickle.loads(pickle.dumps(value))
        assert rebuilt == value
        assert rebuilt.canon_key() == value.canon_key()
        assert rebuilt.struct_hash == value.struct_hash
        assert rebuilt.depth == value.depth
        assert rebuilt.size == value.size
        assert rebuilt.atoms == value.atoms
        assert rebuilt.has_top == value.has_top

    def test_interned_roundtrip_is_identity(self):
        value = SetVal([Tup([Atom("a"), Atom("b")]), Atom("c")])
        rebuilt = pickle.loads(pickle.dumps(value))
        # Unpickling rebuilds via __new__, so the interner returns
        # the already-constructed instance.
        assert rebuilt is value


class TestCachedSortedMembers:
    def test_iteration_matches_sorted_members(self):
        rng = random.Random(29)
        for _ in range(40):
            value = random_value(rng)
            if not isinstance(value, SetVal):
                value = SetVal([value, Atom("z")])
            members = value.sorted_members()
            assert tuple(value) == members
            assert members == tuple(
                sorted(value.items, key=lambda item: item.canon_key())
            )

    def test_repr_uses_cached_order(self):
        forward = SetVal([Atom("a"), Atom("b"), Atom("c")])
        backward = SetVal([Atom("c"), Atom("b"), Atom("a")])
        assert repr(forward) == repr(backward)
        assert str(forward) == str(backward)
