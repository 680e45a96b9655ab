"""Axiom reports, witnesses, enumeration, atoms, and dense covers.

Enumeration counts are frozen against the hand- and literature-checked
values (2, 7, 61, 2480 intersection-closed families containing L for one
to four elements); the n<=2 families are additionally spelled out by hand.
"""

import itertools
import random
import struct
import sys
from pathlib import Path

import pytest

from tarski_lab.sets import Mode, SentenceSet, make_universe
from tarski_lab.operators import (
    ClosureSystem,
    Compose,
    CPrime,
    Cxy,
    FromSystem,
    FromTable,
    Identity,
    Meet,
    NaiveJoin,
    SExample,
    Top,
    compose,
    evaluate,
    table,
    to_closure_system,
)
from tarski_lab.algebra import equivalent, le
from tarski_lab import classify, demos
from tarski_lab.classify import (
    Verdict,
    _closure_systems,
    _cosingleton_witness,
    _extensive_idempotent_tables,
    _moore_family_masks,
    _uncovered,
    axiom_witnesses,
    check_axioms,
    count_closure_systems,
    default_universe,
    dense_cover_check,
    e0_family,
    enumerate_operators,
    is_atom,
    lemma26_witness,
)
from tarski_lab.demos import run_demo
from tarski_lab.parsing import SpecContext, parse_operator

from oracles import bounded_family, bounded_sweep, flag_bytes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402


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

    def test_check_axioms_takes_no_cap(self, nat):
        # Every expression on ℕ is decided on its finite model; no horizon is asked for.
        with pytest.raises(TypeError):
            check_axioms(NaiveJoin(Identity(nat), Identity(nat)), cap=16)

    def test_bounded_search_is_inconclusive_on_pass(self, nat):
        # The bounded family passes this composite, which fails (i) at
        # co{1,2,3}; the quotient decides both ways.
        op = parse_operator(
            "join(comp(cxy {1,3} {0,2,3}, I), join(cxy {3} {0,3}, cprime {0,2,3} co{2,3}))",
            SpecContext(nat),
        )
        first, _, _ = bounded_sweep(lambda s: evaluate(op, s), bounded_family(nat, 10))
        assert first is None
        assert check_axioms(op).axiom_i == Verdict(False, witness=(nat.cosubset([1, 2, 3]),))
        report = check_axioms(NaiveJoin(Identity(nat), Identity(nat)))
        assert report.axiom_i == report.axiom_ii == report.axiom_iii == Verdict(True)
        assert report.mode_note == "quotient"

    def test_bounded_search_failure_is_conclusive(self, nat):
        # The naive join of two closure operators that each add an element
        # under different triggers is not idempotent; the bounded family
        # finds it, and the quotient decides it with the least witness.
        joined = NaiveJoin(
            CPrime(nat.subset([1]), nat.subset([0])), CPrime(nat.subset([2]), nat.subset([1]))
        )
        first, _, _ = bounded_sweep(lambda s: evaluate(joined, s), bounded_family(nat, 8))
        report = check_axioms(joined)
        assert first is not None
        assert report.axiom_i == Verdict(False, witness=(nat.subset([0]),))

    def test_partial_tail_witness_is_the_least_unlisted_element(self, nat):
        # Classes by least element: {0}, the tail from 1, {5}.  The tail
        # partially filled, lifted to {1}, triggers cxy, whose 0 then
        # triggers cprime.
        joined = NaiveJoin(
            Cxy(nat.subset([0]), nat.cosubset([0])), CPrime(nat.subset([5]), nat.subset([0]))
        )
        assert check_axioms(joined).axiom_i == Verdict(False, witness=(nat.subset([1]),))

    def test_partial_class_witness_is_its_least_element(self, nat):
        # 2 and 3 lie in the same parameters, so they form one class whose
        # partial state lifts to {2}; {0}, the tail and {9} pass.
        joined = NaiveJoin(
            Cxy(nat.subset([9]), nat.subset([2, 3])), CPrime(nat.subset([0]), nat.subset([9]))
        )
        assert check_axioms(joined).axiom_i == Verdict(False, witness=(nat.subset([2]),))

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
        forbid_building_systems(monkeypatch)
        assert [count_closure_systems(n, include_top=top) for top in (False, True)] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_systems_shared_across_calls(self, n):
        first, second = list(enumerate_operators(n)), list(enumerate_operators(n))
        assert len(first) == len(second) and all(a is b for a, b in zip(first, second))
        fresh = [
            ClosureSystem(default_universe(n), masks) for masks in _moore_family_masks(n)
        ]
        assert [s.masks for s in first] == [s.masks for s in fresh]

    @pytest.mark.parametrize("name", ["thm-2.7", "thm-3.5", "lemma-2.6", "thm-4.3-lemma"])
    def test_repeat_demo_builds_no_systems(self, name, monkeypatch):
        expected = run_demo(name)
        forbid_building_systems(monkeypatch)
        assert run_demo(name) == expected

    @pytest.mark.parametrize("n", [0, -1, 11])
    def test_default_universe_size_out_of_range_rejected(self, n):
        with pytest.raises(ValueError, match=f"1 to 10 symbols, got {n}"):
            default_universe(n)

    def test_a_system_operand_returns_its_system(self):
        u = default_universe(3)
        for system in enumerate_operators(3):
            op = FromSystem(system)
            fixed = tuple(m for m in range(8) if evaluate(op, u.from_mask(m)).mask == m)
            assert to_closure_system(op) is system
            assert system.masks == fixed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_system_round_trips(self, n):
        for system in enumerate_operators(n):
            op = FromSystem(system)
            report = check_axioms(op)
            assert report.all_pass
            assert to_closure_system(op) == system


def forbid_building_systems(monkeypatch):
    """Fail on any system built, by the validating constructor or by the
    store's trusted one."""
    for name in ("__init__", "_trusted"):
        monkeypatch.setattr(ClosureSystem, name, lambda *args: pytest.fail("built a system"))


class TestMooreStore:
    """The store of the Moore family against perfbench's literal oracle, and
    its packed int against the join of the same lanes."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_packed_int_is_the_literal_closure_tables(self, n):
        systems, packed = _closure_systems(n)
        families = oracle.moore_families(n)
        assert [s.masks for s in systems] == families
        literal = b"".join(bytes(oracle.closure_table(f, n)) for f in families)
        assert packed.to_bytes(len(literal), "little") == literal

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_each_system_is_the_validated_one(self, n):
        for system in _closure_systems(n)[0]:
            fresh = ClosureSystem(default_universe(n), system.masks)
            assert system == fresh
            assert system.lanes == fresh.lanes

    def test_store_path_matches_the_join_path(self):
        systems = list(enumerate_operators(4))
        _, packed = _closure_systems(4)
        assert classify._joined_lanes(systems, 4, "") is packed
        equal = [ClosureSystem(s.universe, s.masks) for s in systems]
        assert classify._joined_lanes(equal, 4, "") is packed
        flipped = systems[::-1]  # joined: not the store's systems in order
        assert classify._joined_lanes(flipped, 4, "") != packed
        members = e0_family(default_universe(4))
        assert [is_atom(op, systems) for op in members] == [is_atom(op, flipped) for op in members] == [True] * 4
        rng = random.Random(2480)
        targets = []
        for system in rng.sample(systems[1:], len(systems) - 1):
            if system.table != tuple(range(16)) and not is_atom(FromSystem(system), flipped):
                targets.append(FromSystem(system))
            if len(targets) == 20:
                break
        assert [is_atom(op, systems) for op in targets] == [False] * 20
        assert dense_cover_check(systems) == dense_cover_check(flipped) == classify.CoverResult(True)
        axiomatic, failing, _ = _uncovered(systems)
        flipped_axiomatic, flipped_failing, _ = _uncovered(flipped)
        literal = sum(f[0] != 0 for f in oracle.moore_families(4))  # C(∅) = ∅ exactly when ∅ is closed
        assert (axiomatic.bit_count(), failing) == (flipped_axiomatic.bit_count(), flipped_failing) == (literal, 0)

    def test_foreign_oracle_of_the_same_length_is_joined(self):
        # A target whose only strict middle system, by family inclusion, is
        # replaced by a duplicate of the top map, which lies above it.
        systems = list(enumerate_operators(4))
        families = [sum(1 << m for m in masks) for masks in _moore_family_masks(4)]
        everything = families[-1]  # every subset closed: the identity
        for target, family in zip(systems, families):
            middle = [
                i for i, other in enumerate(families)
                if other != family and other != everything and other & family == family
            ]
            if target.table != tuple(range(16)) and len(middle) == 1:
                break
        else:
            pytest.fail("no target with exactly one middle system")
        foreign = systems[:]
        foreign[middle[0]] = systems[0]
        assert len(foreign) == len(systems) and foreign != systems
        assert not is_atom(FromSystem(target), systems)
        assert is_atom(FromSystem(target), foreign)
        assert not strictly_between(target.table, foreign)


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

    def test_empty_oracle_finds_nothing_between(self, u):
        assert is_atom(Cxy(u.of_names("a", "c"), u.of_names("b")), [])

    def test_middle_system_first_among_those_below(self, u):
        # The packed sweep flags the middle system, the identity and the
        # target, in that order; the first flag alone must decide.
        big = Cxy(u.of_names("a", "c"), u.of_names("b"))
        middle = to_closure_system(Cxy(u.of_names("a"), u.of_names("b")))
        top = to_closure_system(Top(u))
        oracle = [top, middle, to_closure_system(Identity(u)), to_closure_system(big), top]
        assert not is_atom(big, oracle)
        assert is_atom(big, oracle[:1] + oracle[2:])

    @pytest.mark.parametrize("sizes,other", [((4,), 4), ((3, 3, 2), 2), ((2, 2, 4), 2)])
    def test_oracle_on_another_universe_rejected(self, u, sizes, other):
        # (2, 2, 4) packs to exactly as many images as three systems on three symbols.
        oracle = [next(enumerate_operators(n)) for n in sizes]
        with pytest.raises(ValueError, match=f"on {other} symbols, but the operator is on 3"):
            is_atom(CPrime(u.of_names("a"), u.of_names("b", "c")), oracle)

    @pytest.mark.parametrize(
        "sizes,other", [((2, 3, 3, 3), 2), ((3, 3, 3, 4), 4), ((2, 2, 4, 3), 2), ((3, 4, 2, 2), 4)]
    )
    def test_mixed_oracle_refused_at_its_first_odd_system(self, u, sizes, other):
        # The odd system first or last; the last two oracles pack to exactly
        # as many bytes as four systems on three symbols.
        oracle = [next(enumerate_operators(n)) for n in sizes]
        message = f"^the oracle holds a system on {other} symbols, but the operator is on 3$"
        with pytest.raises(ValueError, match=message):
            is_atom(CPrime(u.of_names("a"), u.of_names("b", "c")), oracle)
        with pytest.raises(ValueError, match=f"on {other} symbols, but its first system is on 3$"):
            dense_cover_check(list(enumerate_operators(3)) + oracle)

    def test_matches_the_literal_scan_on_three_symbols(self):
        rng = random.Random(27)
        systems = list(enumerate_operators(3))
        oracles = [systems] + [rng.sample(systems, k) for k in (1, 5, 20, 40)]
        identity = tuple(range(8))
        verdicts = set()
        for system in systems:
            if system.table == identity:
                continue
            for oracle in oracles:
                expected = not strictly_between(system.table, oracle)
                assert is_atom(FromSystem(system), oracle) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_matches_the_literal_scan_on_four_symbols(self):
        rng = random.Random(28)
        systems = list(enumerate_operators(4))
        identity = tuple(range(16))
        seeded = rng.sample([s for s in systems if s.table != identity], 4)
        ops = e0_family(default_universe(4)) + [FromSystem(s) for s in seeded]
        verdicts = []
        for oracle in (systems, rng.sample(systems, 500)):
            for op in ops:
                expected = not strictly_between(table(op), oracle)
                assert is_atom(op, oracle) == expected
                verdicts.append(expected)
        assert verdicts[:4] == [True] * 4 and False in verdicts[4:8]


def strictly_between(target, oracle):
    """Whether some oracle table lies strictly between the identity and the
    target in the pointwise order, by the literal definition."""
    identity = tuple(range(len(target)))

    def below(a, b):
        return all(x & ~y == 0 for x, y in zip(a, b))

    return any(
        below(identity, t) and below(t, target) and t not in (identity, target)
        for t in (system.table for system in oracle)
    )


class TestDenseCover:
    @pytest.mark.parametrize("n", [2, 3])
    def test_holds(self, n):
        assert dense_cover_check(list(enumerate_operators(n))).holds

    def test_vacuity_control(self, monkeypatch):
        # With no co-singleton lane selected, no axiomatic system is covered.
        monkeypatch.setattr(classify, "_cosingleton_lanes", lambda n, count: 0)
        result = dense_cover_check(list(enumerate_operators(3)))
        assert not result.holds
        assert result.failing is not None
        # The reported failure is axiomatic: its least closed set is nonempty.
        least = min(s.mask for s in result.failing.closed)
        assert least != 0

    def test_one_symbol_refused(self):
        with pytest.raises(ValueError, match="^the atom family needs at least two elements$"):
            dense_cover_check(list(enumerate_operators(1)))

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_packed_scan_matches_the_per_system_scan(self, n):
        rng = random.Random(60 + n)
        universe = make_universe(Mode.FINITE, [f"s{i}" for i in range(n)])
        passing, failing = cover_tables(n, rng)
        passing = [AnyTable(universe, t) for t in passing]
        if n <= 4:
            passing += list(enumerate_operators(n))
        rng.shuffle(passing)
        failing = [AnyTable(universe, t) for t in failing]
        middle = len(passing) // 2
        oracles = [
            passing,
            failing + passing,
            passing[:middle] + failing[:1] + passing[middle:],
            passing + failing[::-1],
        ]
        for oracle in oracles:
            expected = next((s for s in oracle if s.table[0] and _cosingleton_witness(s.table) is None), None)
            result = dense_cover_check(oracle)
            assert result.holds is (expected is None)
            assert result.failing is expected

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

    @pytest.mark.parametrize("planted", [1, 2, 3])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_every_uncovered_system_is_counted(self, monkeypatch, planted, where):
        rng = random.Random(10 * planted + len(where))
        universe = default_universe(3)
        uncovered = [t for _ in range(2) for t in cover_tables(3, rng)[1]][:planted]
        systems = list(enumerate_operators(3))
        at = {"first": 0, "middle": len(systems) // 2, "last": len(systems)}[where]
        family = systems[:at] + [AnyTable(universe, t) for t in uncovered] + systems[at:]
        axiomatic, failing, slots = _uncovered(family)
        literal = bytes(s.table[0] != 0 and _cosingleton_witness(s.table) is None for s in family)
        assert failing.bit_count() == literal.count(1) == planted
        assert flag_bytes(failing, slots, len(family)) == literal
        assert axiomatic.bit_count() == sum(s.table[0] != 0 for s in family)
        monkeypatch.setattr(demos, "enumerate_operators", lambda n: iter(family))
        report = demos.demo_lemma_2_6()
        assert report.data["failures"] == planted
        assert report.data["axiomatic-operators"] == axiomatic.bit_count()
        assert report.verdict is False


class AnyTable:
    """Stands in for a closure system with an arbitrary table; the cover
    scan reads only ``universe`` and ``lanes``."""

    def __init__(self, universe, values):
        self.universe, self.table = universe, tuple(values)
        self.lanes = struct.pack(f"<{len(values)}{'B' if universe.size <= 8 else 'H'}", *values)


def cover_tables(n, rng):
    """Tables on n symbols that pass the co-singleton scan narrowly, one per
    co-singleton lane that alone is sent to L and one axiomless, and two
    that fail it: C(∅) ≠ ∅ and no co-singleton sent to L.  The second
    failing table differs from ∅ and from L only in the top bit of a lane."""
    size = 1 << n
    full, top = size - 1, size >> 1

    def values(empty, blown, other=None):
        t = [rng.randrange(size) for _ in range(size)]
        t[0] = empty
        for x in range(n):
            t[full & ~(1 << x)] = full if x == blown else other or rng.randrange(full)
        return t

    passing = [values(rng.randrange(1, size), x) for x in range(n)] + [values(0, None)]
    return passing, [values(rng.randrange(1, size), None), values(top, None, full ^ top)]


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


def random_set(rng, nat):
    members = rng.sample(range(5), rng.randint(0, 2))
    return nat.cosubset(members) if rng.random() < 0.3 else nat.subset(members)


def random_atomic(rng, nat):
    kind = rng.randrange(4)
    if kind == 0:
        return Identity(nat)
    if kind == 1:
        return Top(nat)
    family = Cxy if kind == 2 else CPrime
    return family(random_set(rng, nat), random_set(rng, nat))


def random_composite(rng, nat, depth):
    """An operator of exactly this depth: binary nodes over atomic leaves."""
    if depth == 0:
        return random_atomic(rng, nat)
    node = rng.choice([Meet, NaiveJoin, Compose])
    children = [random_composite(rng, nat, depth - 1)]
    children.append(random_composite(rng, nat, rng.randrange(depth)))
    rng.shuffle(children)
    return node(*children)


class TestBoundedSearchSoundness:
    """The bounded family of ``oracles``, a sample of small sets, against the
    quotient, whose kernel scan decides idempotence on ℕ exactly.

    Every expression on ℕ is extensive and monotone (its leaves are, and
    meet, join, composition and the weak join keep it), so the three-loop
    sweep ``oracles.bounded_sweep`` fails only (i) on the grammar, and the
    scan of the model fails each expression that it fails; a stand-in map
    shows that the sweep's (ii) and (iii) loops can fail.
    """

    def test_the_scan_matches_the_three_loop_sweep(self, nat):
        rng = random.Random(1)
        failures = 0
        for cap in range(1, 13):
            family = bounded_family(nat, cap)
            for _ in range(8):
                op = random_composite(rng, nat, rng.randint(1, 3))
                report = check_axioms(op)
                first, second, third = bounded_sweep(lambda s: evaluate(op, s), family)
                assert second is None and third is None
                assert first is None or not report.axiom_i.passed
                assert report.axiom_ii == Verdict(True)
                assert report.axiomless == evaluate(op, nat.empty()).is_empty()
                failures += first is not None
        assert failures  # the seeds reach idempotence failures

    @pytest.mark.parametrize("seed", [1, 3, 6])
    def test_failures_are_real(self, nat, seed):
        rng = random.Random(seed)
        failures = 0
        for _ in range(150):
            op = random_composite(rng, nat, rng.randint(1, 2))
            report = check_axioms(op)
            assert report.mode_note == "quotient"
            assert report.finitary_from_monotone is None
            assert report.axiom_ii == Verdict(True)
            if not report.axiom_i.passed:
                (s,) = report.axiom_i.witness
                image = evaluate(op, s)
                assert s.is_subset(image) and evaluate(op, image) != image
            if not report.axiom_iii.passed:
                x, element = report.axiom_iii.witness
                assert element in evaluate(op, x) and element not in x
            failures += not report.all_pass
        assert failures  # the seeds reach failing composites

    @pytest.mark.parametrize("seed", [1, 3, 6])
    def test_self_meet_of_an_atomic_operator_agrees_with_its_closed_form(self, nat, seed):
        rng = random.Random(seed)
        for _ in range(50):
            atomic = random_atomic(rng, nat)
            closed_form = check_axioms(atomic)
            report = check_axioms(Meet(atomic, atomic))
            assert report.axiom_i == report.axiom_ii == Verdict(True)
            assert report.axiomless == closed_form.axiomless
            assert report.axiom_iii == closed_form.axiom_iii

    def test_a_non_monotone_map_fails_ii_and_iii(self, nat):
        # A ∪ {1} unless 0 ∈ A: extensive and idempotent, but ∅ ⊆ {0} while
        # C(∅) = {1} ⊄ C({0}) = {0}, and so {0}'s finite parts reach 1.
        def stand_in(s):
            return s if 0 in s else s.union(nat.subset([1]))

        first, second, third = bounded_sweep(stand_in, bounded_family(nat, 3))
        assert first is None
        assert second == (nat.empty(), nat.subset([0]))
        assert third == (nat.subset([0]), 1)
