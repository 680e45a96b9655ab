"""Axiom reports, witnesses, enumeration, atoms, and dense covers.

Enumeration counts are frozen against the hand- and literature-checked
values (2, 7, 61, 2480 intersection-closed families containing L for one
to four elements); the n<=2 families are additionally spelled out by hand.
"""

import itertools

import pytest

from tarski_lab.sets import Mode, ModeError, SentenceSet, all_subsets, make_universe
from tarski_lab.operators import (
    ClosureSystem,
    CPrime,
    Cxy,
    FromSystem,
    FromTable,
    Identity,
    NaiveJoin,
    SExample,
    Top,
    compose,
    evaluate,
    table,
    to_closure_system,
)
from tarski_lab.algebra import equivalent, le
from tarski_lab import classify
from tarski_lab.classify import (
    _closure_systems,
    _cosingleton_witness,
    _extensive_idempotent_tables,
    _moore_family_masks,
    axiom_witnesses,
    check_axioms,
    count_closure_systems,
    default_universe,
    dense_cover_check,
    e0_family,
    enumerate_operators,
    is_atom,
    lemma26_witness,
    system_from_family_mask,
)
from tarski_lab.demos import run_demo


@pytest.fixture
def u():
    return make_universe(Mode.FINITE, ["a", "b", "c"])


@pytest.fixture
def nat():
    return make_universe(Mode.COFINITE)


class TestCheckAxioms:
    def test_plain_family_passes(self, u):
        report = check_axioms(Cxy(u.of_names("a"), u.of_names("b")))
        assert report.all_pass
        assert report.axiomless
        assert report.mode_note == "exhaustive"
        assert report.finitary_from_monotone

    def test_infinite_trigger_loses_finitarity(self, nat):
        report = check_axioms(CPrime(nat.subset([0]), nat.cosubset([0])))
        assert report.axiom_i.passed and report.axiom_ii.passed
        assert not report.axiom_iii.passed
        witness_set, element = report.axiom_iii.witness
        assert witness_set == nat.cosubset([0])
        assert element == 0
        assert report.axiomless
        assert report.mode_note == "closed-form"

    def test_finite_trigger_keeps_finitarity(self, nat):
        report = check_axioms(CPrime(nat.subset([7]), nat.subset([1, 2])))
        assert report.all_pass and report.mode_note == "closed-form"

    def test_degenerate_infinite_trigger_is_identity(self, nat):
        report = check_axioms(CPrime(nat.subset([3]), nat.cosubset([0])))
        assert report.all_pass  # X inside Y: the map never adds anything

    def test_naive_join_fails_idempotence_at_empty(self, u):
        joined = NaiveJoin(
            CPrime(u.of_names("b"), u.empty()), SExample(u.of_names("a"), u.index_of("b"))
        )
        report = check_axioms(joined)
        assert not report.axiom_i.passed
        assert report.axiom_i.witness == (u.empty(),)

    def test_composition_fails_idempotence(self, u):
        composite = compose(
            CPrime(u.of_names("b"), u.empty()), SExample(u.of_names("a"), u.index_of("b"))
        )
        report = check_axioms(composite)
        assert not report.axiom_i.passed
        # The generic scan reports the least witness; the demo replays the
        # published argument starting at the base set {a}.
        assert report.axiom_i.witness == (u.empty(),)
        assert evaluate(composite, u.of_names("a")) == u.of_names("a", "b")
        assert evaluate(composite, u.of_names("a", "b")) == u.full()

    def test_missing_cap_rejected(self, nat):
        # Composite expressions without a closed form need a cap.
        with pytest.raises(ValueError):
            check_axioms(NaiveJoin(Identity(nat), Identity(nat)))

    def test_bounded_search_is_inconclusive_on_pass(self, nat):
        report = check_axioms(NaiveJoin(Identity(nat), Identity(nat)), cap=16)
        assert report.axiom_i.passed and not report.axiom_i.conclusive
        assert report.mode_note == "bounded-search(cap=16)"

    def test_bounded_search_failure_is_conclusive(self, nat):
        # The naive join of two closure operators that each add an element
        # under different triggers is not idempotent.
        joined = NaiveJoin(
            CPrime(nat.subset([1]), nat.subset([0])), CPrime(nat.subset([2]), nat.subset([1]))
        )
        report = check_axioms(joined, cap=8)
        assert not report.axiom_i.passed and report.axiom_i.conclusive

    def test_monotone_failure_detected(self, u):
        # {a} closes to {a,c} but the larger {a,b} stays put.
        table = [m for m in range(8)]
        table[0b001] = 0b101
        report = check_axioms(FromTable(u, tuple(table)))
        assert report.axiom_i.passed
        assert not report.axiom_ii.passed
        smaller, larger = report.axiom_ii.witness
        assert smaller.is_subset(larger)
        assert not report.axiom_iii.passed  # finitarity falls with monotonicity


class TestLemma26:
    def test_example_operator(self, u):
        assert lemma26_witness(SExample(u.of_names("a"), u.index_of("b"))) == u.index_of("a")

    def test_top_like_system(self, u):
        op = FromSystem(ClosureSystem(u, (u.full().mask,)))
        assert lemma26_witness(op) == 0

    def test_axiomless_rejected(self, u):
        with pytest.raises(ValueError):
            lemma26_witness(Cxy(u.of_names("a"), u.of_names("b")))

    def test_non_consequence_rejected(self, u):
        joined = NaiveJoin(
            CPrime(u.of_names("b"), u.empty()), SExample(u.of_names("a"), u.index_of("b"))
        )
        with pytest.raises(ValueError):
            lemma26_witness(joined)


class TestEnumeration:
    def test_systems_build_no_sets_until_closed_is_read(self, monkeypatch):
        # Start from fresh systems: shared ones may already hold `closed`.
        _closure_systems.cache_clear()
        built = []
        init = SentenceSet.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        op = Cxy(default_universe(3).of_names("a"), default_universe(3).of_names("b"))
        monkeypatch.setattr(SentenceSet, "__init__", counting_init)
        systems = list(enumerate_operators(3)) + [to_closure_system(op)]
        assert all(len(s.table) == 8 for s in systems)
        assert built == []
        assert len(systems[-1].closed) == len(built) == 6

    def test_hand_checked_n1(self):
        u = default_universe(1)
        systems = list(enumerate_operators(1))
        assert [set(s.closed) for s in systems] == [
            {u.empty(), u.full()},
            {u.full()},
        ] or [set(s.closed) for s in systems] == [
            {u.full()},
            {u.empty(), u.full()},
        ]
        assert len(systems) == 2

    def test_hand_checked_n2(self):
        u = default_universe(2)
        a, b, empty, full = u.of_names("a"), u.of_names("b"), u.empty(), u.full()
        expected = [
            {full},
            {empty, full},
            {a, full},
            {empty, a, full},
            {b, full},
            {empty, b, full},
            {empty, a, b, full},
        ]
        got = [set(s.closed) for s in enumerate_operators(2)]
        assert sorted(map(sorted_masks := lambda fam: sorted(x.mask for x in fam), got)) == sorted(
            map(sorted_masks, expected)
        )
        assert len(got) == 7

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 7), (3, 61), (4, 2480)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_operators(n)) == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exclude_top_drops_exactly_one(self, n):
        with_top = list(enumerate_operators(n, include_top=True))
        without = list(enumerate_operators(n, include_top=False))
        dropped = [s for s in with_top if s not in without]
        assert [s.masks for s in dropped] == [((1 << n) - 1,)]
        assert [s for s in with_top if s is not dropped[0]] == without

    def test_deterministic_order(self):
        first = [s.masks for s in enumerate_operators(3)]
        second = [s.masks for s in enumerate_operators(3)]
        assert first == second
        # Families come out ordered by their characteristic bitmask.
        def family_bitmask(masks):
            out = 0
            for m in masks:
                out |= 1 << m
            return out

        bitmasks = [family_bitmask(m) for m in first]
        assert bitmasks == sorted(bitmasks)

    def test_out_of_range_rejected(self):
        cached = _closure_systems.cache_info().currsize
        for n in (0, 5):
            with pytest.raises(ValueError, match="1 <= n <= 4"):
                list(enumerate_operators(n))
        assert _closure_systems.cache_info().currsize == cached
        with pytest.raises(ValueError, match="1 <= n <= 4"):
            count_closure_systems(5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_builds_no_systems(self, n, monkeypatch):
        expected = [sum(1 for _ in enumerate_operators(n, include_top=top)) for top in (False, True)]
        monkeypatch.setattr(ClosureSystem, "__post_init__", lambda self: pytest.fail("built a system"))
        assert [count_closure_systems(n, include_top=top) for top in (False, True)] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_systems_shared_across_calls(self, n):
        first, second = list(enumerate_operators(n)), list(enumerate_operators(n))
        assert len(first) == len(second) and all(a is b for a, b in zip(first, second))
        fresh = [system_from_family_mask(n, m) for m in _moore_family_masks(n)]
        assert [s.masks for s in first] == [s.masks for s in fresh]

    @pytest.mark.parametrize("name", ["thm-2.7", "thm-3.5", "lemma-2.6", "thm-4.3-lemma"])
    def test_repeat_demo_builds_no_systems(self, name, monkeypatch):
        expected = run_demo(name)
        monkeypatch.setattr(ClosureSystem, "__post_init__", lambda self: pytest.fail("built a system"))
        assert run_demo(name) == expected

    @pytest.mark.parametrize("n", [0, -1, 11])
    def test_default_universe_size_out_of_range_rejected(self, n):
        with pytest.raises(ValueError, match=f"1 to 10 symbols, got {n}"):
            default_universe(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_system_round_trips(self, n):
        for system in enumerate_operators(n):
            op = FromSystem(system)
            report = check_axioms(op)
            assert report.all_pass
            assert to_closure_system(op) == system


class TestE0Family:
    def test_three_members_on_l3(self, u):
        members = e0_family(u)
        assert len(members) == 3
        first = members[0]
        assert first == CPrime(u.of_names("a"), u.of_names("b", "c"))
        assert evaluate(first, u.of_names("b", "c")).is_full()

    def test_members_axiomless(self, u):
        for op in e0_family(u):
            assert check_axioms(op).axiomless

    def test_single_element_universe_rejected(self):
        with pytest.raises(ValueError):
            e0_family(default_universe(1))


class TestAtoms:
    def test_candidate_is_atom(self, u):
        systems = list(enumerate_operators(3))
        assert is_atom(CPrime(u.of_names("a"), u.of_names("b", "c")), systems)

    def test_non_atom_has_middle_element(self, u):
        systems = list(enumerate_operators(3))
        big = Cxy(u.of_names("a", "c"), u.of_names("b"))
        middle = Cxy(u.of_names("a"), u.of_names("b"))
        assert le(Identity(u), middle).holds and not equivalent(Identity(u), middle)
        assert le(middle, big).holds and not equivalent(middle, big)
        assert not is_atom(big, systems)

    def test_identity_rejected(self, u):
        with pytest.raises(ValueError):
            is_atom(Identity(u), list(enumerate_operators(3)))


class TestDenseCover:
    @pytest.mark.parametrize("n", [2, 3])
    def test_holds(self, n):
        assert dense_cover_check(list(enumerate_operators(n))).holds

    def test_vacuity_control(self, monkeypatch):
        monkeypatch.setattr(classify, "_cosingleton_witness", lambda t: None)
        result = dense_cover_check(list(enumerate_operators(3)))
        assert not result.holds
        assert result.failing is not None
        # The reported failure is axiomatic: its least closed set is nonempty.
        least = min(s.mask for s in result.failing.closed)
        assert least != 0

    def test_one_symbol_refused(self):
        with pytest.raises(ValueError, match="^the atom family needs at least two elements$"):
            dense_cover_check(list(enumerate_operators(1)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scan_matches_e0_domination(self, n):
        """The co-singleton scan against the literal test: some e0 table lies
        pointwise inside the system's table."""
        e0_tables = [table(op) for op in e0_family(default_universe(n))]
        axiomless_answers = set()
        for system in enumerate_operators(n):
            values = system.table
            dominates = any(all(e & ~v == 0 for e, v in zip(etab, values)) for etab in e0_tables)
            assert (_cosingleton_witness(values) is not None) == dominates
            if values[0] == 0:
                axiomless_answers.add(dominates)
        assert axiomless_answers == {True, False}


class TestSampledTables:
    @pytest.mark.parametrize("n", [2, 3])
    def test_monotone_and_finitary_verdicts_agree(self, n):
        universe = default_universe(n)
        seen_both = {True: 0, False: 0}
        for t in _extensive_idempotent_tables(n):
            report = check_axioms(FromTable(universe, t))
            assert report.axiom_i.passed
            assert report.axiom_ii.passed == report.axiom_iii.passed
            seen_both[report.axiom_ii.passed] += 1
        # Every table is checked, and the monotone ones are the closure systems.
        assert sum(seen_both.values()) == {2: 12, 3: 1152}[n]
        assert seen_both[True] == count_closure_systems(n)
        assert seen_both[False]


class TestExtensiveIdempotentTables:
    def test_literal_oracle_on_two_symbols(self):
        maps = itertools.product(range(4), repeat=4)  # all 256 maps P(L) -> P(L)
        literal = {t for t in maps if all(m & ~t[m] == 0 and t[t[m]] == t[m] for m in range(4))}
        yielded = list(_extensive_idempotent_tables(2))
        assert len(yielded) == len(set(yielded)) == 12
        assert set(yielded) == literal

    def test_counts_on_three_symbols(self):
        supersets = [[v for v in range(8) if m & ~v == 0] for m in range(8)]
        extensive = list(itertools.product(*supersets))
        idempotent = {t for t in extensive if all(t[t[m]] == t[m] for m in range(8))}
        yielded = list(_extensive_idempotent_tables(3))
        monotone = {t for t in yielded if axiom_witnesses(t)[1] is None}
        systems = tuple(enumerate_operators(3))
        assert (len(extensive), len(yielded), len(monotone)) == (4096, 1152, 61)
        assert set(yielded) == idempotent
        assert monotone == {system.table for system in systems}
