"""Concurrence verdicts and the monotone-union check.

The descent is checked against perfbench's literal ``oracle.concurrence``
and, for targets of mixed types, against a literal least-mask scan.
"""

import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarski_lab.sets import Mode, make_universe
from tarski_lab.operators import FromTable, SExample, evaluate
from tarski_lab.concurrence import is_concurrent, monotone_union_check

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402


def chain_pairs(n, strict=False):
    return [(i, j) for i in range(n) for j in range(n) if (i < j if strict else i <= j)]


def all_but_self(n):
    """Each element points at every other one: only the whole domain fails.
    A generator over shared int objects, so that 4 M pairs take no list."""
    nodes = list(range(n))
    return ((x, y) for x in nodes for y in nodes if x is not y)


def least_mask_scan(pairs, domain):
    """The literal definition: the common bound of the whole domain, least by
    value or else by repr, or the first index mask whose members share no
    target."""
    succ = [{y for x, y in pairs if x == d} for d in domain]
    whole = set.intersection(*succ)
    if whole:
        try:
            return True, min(whole)
        except TypeError:
            return True, min(whole, key=repr)
    for mask in range(1, 1 << len(domain)):
        if not set.intersection(*(succ[i] for i in range(len(domain)) if mask >> i & 1)):
            return False, tuple(domain[i] for i in range(len(domain)) if mask >> i & 1)


# A domain of 1-12 elements in shuffled order; lefts n and n + 1 lie outside it.
relations = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.tuples(st.integers(0, n + 1), st.integers(0, 5)), max_size=80),
        st.permutations(range(n)),
    )
)


class TestIsConcurrent:
    def test_chain_with_maximum(self):
        result = is_concurrent(chain_pairs(3), [0, 1, 2])
        assert result.concurrent
        assert result.bound == 2

    def test_inequality_relation_on_two_points(self):
        pairs = [("p", "q"), ("q", "p")]
        result = is_concurrent(pairs, ["p", "q"])
        assert not result.concurrent
        assert result.failing_subset == ("p", "q")

    def test_strict_order_fails_at_the_top(self):
        result = is_concurrent(chain_pairs(5, strict=True), list(range(5)))
        assert not result.concurrent
        assert result.failing_subset == (4,)

    def test_empty_domain_is_vacuously_concurrent(self):
        assert is_concurrent([(1, 2)], []).concurrent

    def test_domains_over_twenty_are_decided(self):
        result = is_concurrent(list(all_but_self(21)), list(range(21)))
        assert result.failing_subset == tuple(range(21))
        assert is_concurrent(chain_pairs(64), list(range(64))).bound == 63
        result = is_concurrent(chain_pairs(64, strict=True), list(range(64)))
        assert result.failing_subset == (63,)

    def test_least_failing_subset_order(self):
        # 0 has no successors at all, so the least failing subset is {0}.
        pairs = [(1, 2), (2, 2)]
        result = is_concurrent(pairs, [0, 1, 2])
        assert result.failing_subset == (0,)

    def test_bound_is_deterministic_least(self):
        pairs = [(0, 5), (0, 3), (1, 3), (1, 5)]
        result = is_concurrent(pairs, [0, 1])
        assert result.concurrent and result.bound == 3

    @settings(max_examples=300, deadline=None)
    @given(relations)
    def test_matches_the_literal_oracle(self, relation):
        pairs, domain = relation
        result = is_concurrent(pairs, domain)
        expected = oracle.concurrence(pairs, domain)
        if expected["concurrent"]:
            assert result.concurrent and result.bound == expected["bound"]
        else:
            assert not result.concurrent
            assert list(result.failing_subset) == expected["failing-subset"]

    def test_mixed_type_targets_match_the_least_mask_scan(self):
        # 1 and "a" do not compare, so the bound is the least by repr.
        pairs = [(0, 1), (0, "a"), (1, 1), (1, "a")]
        assert is_concurrent(pairs, [0, 1]).bound == least_mask_scan(pairs, [0, 1])[1] == "a"
        targets = [1, "a", (2,), 3.5, "b", (1, "x")]
        rng = random.Random(5)
        for _ in range(2000):
            domain = rng.sample(range(12), rng.randint(1, 8))
            lefts = domain + [20, 21]  # pairs outside the domain are ignored
            pairs = [(rng.choice(lefts), rng.choice(targets)) for _ in range(rng.randint(0, 50))]
            result = is_concurrent(pairs, domain)
            verdict, detail = least_mask_scan(pairs, domain)
            assert result.concurrent == verdict
            assert (result.bound if verdict else result.failing_subset) == detail

    def test_two_thousand_elements_all_but_self(self):
        started = time.perf_counter()
        result = is_concurrent(all_but_self(2000), range(2000))
        assert time.perf_counter() - started < 10.0
        assert result.failing_subset == tuple(range(2000))

    def test_chain_of_ten_to_the_fifth(self):
        n = 10**5
        started = time.perf_counter()
        result = is_concurrent([(i, i + 1) for i in range(n)], range(n))
        assert time.perf_counter() - started < 2.0
        assert result.failing_subset == (0, 1)


class TestMonotoneUnion:
    @pytest.fixture
    def u(self):
        return make_universe(Mode.FINITE, ["a", "b", "c"])

    def test_example_operator(self, u):
        op = SExample(u.of_names("a"), u.index_of("b"))
        parts = [u.of_names("a"), u.of_names("b")]
        images = evaluate(op, parts[0]).union(evaluate(op, parts[1]))
        assert images == u.full()
        assert monotone_union_check(op, parts)

    def test_single_part_trivial(self, u):
        op = SExample(u.of_names("a"), u.index_of("b"))
        assert monotone_union_check(op, [u.of_names("c")])

    def test_non_monotone_control(self, u):
        # {a} inflates to the full universe but {a,b} stays put.
        table = list(range(8))
        table[0b001] = 0b111
        op = FromTable(u, tuple(table))
        assert not monotone_union_check(op, [u.of_names("a"), u.of_names("b")])

    def test_empty_parts_rejected(self, u):
        op = SExample(u.of_names("a"), u.index_of("b"))
        with pytest.raises(ValueError):
            monotone_union_check(op, [])
