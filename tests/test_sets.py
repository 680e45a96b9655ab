"""Set algebra: canonical form, boolean laws, subset order.

Cofinite-mode operations are cross-checked against a truncated-prefix
oracle: materialise each set over the naturals 0..63 and compare against
plain Python set arithmetic on the prefixes.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tarski_lab.sets import (
    DuplicateSymbolError,
    Mode,
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
