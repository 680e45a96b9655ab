"""Set algebra: canonical form, boolean laws, subset order.

Cofinite-mode operations are cross-checked against a truncated-prefix
oracle: materialise each set over the naturals 0..63 and compare against
plain Python set arithmetic on the prefixes.
"""

import copy
import inspect
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tarski_lab.sets import (
    DuplicateSymbolError,
    Mode,
    ModeError,
    Polarity,
    SentenceSet,
    UniverseMismatchError,
    make_universe,
)

from oracles import all_subsets

PREFIX = 64


def l3():
    return make_universe(Mode.FINITE, ["a", "b", "c"])


def naturals():
    return make_universe(Mode.COFINITE)


def prefix(s: SentenceSet) -> set[int]:
    if s.is_finite():
        return set(s.members)
    return set(range(PREFIX)) - set(s.members)


class TestUniverse:
    def test_finite_constructor(self):
        u = make_universe(Mode.FINITE, ["a", "b", "c"])
        assert u.size == 3
        assert u.index_of("b") == 1
        assert u.name_of(2) == "c"

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(DuplicateSymbolError):
            make_universe(Mode.FINITE, ["a", "a"])

    def test_empty_symbols_rejected(self):
        with pytest.raises(ValueError):
            make_universe(Mode.FINITE, [])

    def test_cofinite_constructor(self):
        u = naturals()
        assert u.full().is_full()
        assert 12345 in u.full()


class TestCanonicalForm:
    def test_members_sorted_and_deduplicated(self):
        u = l3()
        s = SentenceSet(u, Polarity.POSITIVE, (2, 0, 2, 1))
        assert s.members == (0, 1, 2)

    def test_recanonicalisation_is_identity(self):
        u = naturals()
        s = u.cosubset([5, 1, 5])
        again = SentenceSet(s.universe, s.polarity, s.members)
        assert again == s

    def test_equality_is_extensional(self):
        u = l3()
        assert u.of_names("a", "b") == u.subset([1, 0])

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError):
            l3().subset([3])


class TestBooleanAlgebra:
    def test_union_example(self):
        u = l3()
        assert u.of_names("a", "b").union(u.of_names("b", "c")) == u.of_names("a", "b", "c")

    def test_complement_of_finite_is_cofinite(self):
        u = naturals()
        assert u.subset([1, 2]).complement() == u.cosubset([1, 2])

    def test_de_morgan_frozen_example(self):
        # Oracle over the 0..63 prefix: co{0} ∩ co{1} has prefix 2..63,
        # which is the prefix of co{0,1}.
        u = naturals()
        result = u.cosubset([0]).intersect(u.cosubset([1]))
        assert result == u.cosubset([0, 1])
        assert prefix(result) == prefix(u.cosubset([0])) & prefix(u.cosubset([1]))

    def test_universe_mismatch_rejected(self):
        with pytest.raises(UniverseMismatchError):
            l3().of_names("a").union(naturals().subset([0]))

    def test_laws_exhaustive_on_size_four(self):
        u = make_universe(Mode.FINITE, ["a", "b", "c", "d"])
        subsets = all_subsets(u)
        for x, y in itertools.product(subsets, repeat=2):
            assert x.union(y) == y.union(x)
            assert x.intersect(y) == y.intersect(x)
            assert x.union(y).complement() == x.complement().intersect(y.complement())
            assert x.intersect(y).complement() == x.complement().union(y.complement())
            assert x.union(x.intersect(y)) == x
            assert x.intersect(x.union(y)) == x
        for x, y, z in itertools.product(subsets[:8], repeat=3):
            assert x.union(y.union(z)) == x.union(y).union(z)
            assert x.intersect(y.intersect(z)) == x.intersect(y).intersect(z)


cofinite_sets = st.builds(
    lambda members, negative: SentenceSet(
        make_universe(Mode.COFINITE),
        Polarity.NEGATIVE if negative else Polarity.POSITIVE,
        tuple(members),
    ),
    st.lists(st.integers(min_value=0, max_value=20), max_size=5),
    st.booleans(),
)


class TestCofinitePrefixOracle:
    @given(cofinite_sets, cofinite_sets)
    def test_binary_operations(self, a, b):
        assert prefix(a.union(b)) == prefix(a) | prefix(b)
        assert prefix(a.intersect(b)) == prefix(a) & prefix(b)
        assert prefix(a.difference(b)) == prefix(a) - prefix(b)

    @given(cofinite_sets)
    def test_complement(self, a):
        assert prefix(a.complement()) == set(range(PREFIX)) - prefix(a)

    @given(cofinite_sets, cofinite_sets)
    def test_subset_matches_oracle(self, a, b):
        # Prefix containment is necessary; for the exact verdict the
        # polarity pattern decides the tail: a finite set never swallows a
        # cofinite one.
        verdict = a.is_subset(b)
        assert verdict == (prefix(a) <= prefix(b) and not (not a.is_finite() and b.is_finite()))


class TestIsSubset:
    def test_trivial_examples(self):
        u = l3()
        assert u.of_names("a").is_subset(u.of_names("a", "b"))

    def test_cofinite_in_full(self):
        u = naturals()
        assert u.cosubset([0]).is_subset(u.full())

    def test_infinite_not_inside_finite(self):
        u = naturals()
        assert not u.cosubset([0]).is_subset(u.subset([1, 2, 3]))


def member_mask(members) -> int:
    return sum(1 << i for i in members)


class TestMaskRepresentation:
    """Finite-mode sets carry their bitmask: every operation agrees with the
    members-based definition on every pair of subsets of 1-4 symbols."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_operations_match_the_member_sets(self, n):
        u = make_universe(Mode.FINITE, "abcd"[:n])
        subsets = all_subsets(u)
        full = set(range(n))
        for x in subsets:
            assert x.mask == member_mask(x.members)
            assert x.complement().mask == member_mask(full - set(x.members))
        for x, y in itertools.product(subsets, repeat=2):
            a, b = set(x.members), set(y.members)
            assert x.is_subset(y) == (a <= b)
            assert x.union(y).mask == member_mask(a | b)
            assert x.intersect(y).mask == member_mask(a & b)
            assert x.difference(y).mask == member_mask(a - b)
            assert (x == y) == (a == b)
            if x == y:
                assert hash(x) == hash(y)

    def test_equal_sets_built_differently_hash_alike(self):
        u, again = make_universe(Mode.FINITE, "abcd"), make_universe(Mode.FINITE, "abcd")
        for m in range(16):
            x = u.from_mask(m)
            for y in (u.subset(x.members[::-1] * 2), again.from_mask(m)):
                assert x == y and hash(x) == hash(y) and x.mask == y.mask == m

    def test_mask_survives_pickle_and_copy(self):
        u = make_universe(Mode.FINITE, "abcd")
        for m in range(16):
            x = u.from_mask(m)
            other = u.from_mask(m ^ 0b0101)
            for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
                assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
                assert y.mask == m
                assert y.is_subset(other) == x.is_subset(other)
        # The fields, in order, are the constructor's parameters; the mask is not one.
        assert list(inspect.signature(SentenceSet).parameters) == ["universe", "polarity", "members"]
        assert SentenceSet.__slots__ == ("universe", "polarity", "members", "_mask")

    def test_cofinite_sets_have_no_mask(self):
        u = naturals()
        for s in (u.subset([1, 2]), u.cosubset([0]), u.full(), u.empty()):
            with pytest.raises(ModeError):
                s.mask

    def test_equal_but_distinct_universes_combine(self):
        u, v = make_universe(Mode.FINITE, "abc"), make_universe(Mode.FINITE, "abc")
        assert u is not v and u == v
        assert u.of_names("a").is_subset(v.of_names("a", "b"))
        assert not v.of_names("c").is_subset(u.of_names("a", "b"))
        assert u.of_names("a").union(v.of_names("c")) == u.of_names("a", "c")

    def test_different_universes_are_rejected(self):
        u, v = make_universe(Mode.FINITE, "ab"), make_universe(Mode.FINITE, "cd")
        x, y = u.of_names("a"), v.of_names("c", "d")
        for combine in (x.is_subset, x.union, x.intersect, x.difference):
            with pytest.raises(UniverseMismatchError):
                combine(y)
