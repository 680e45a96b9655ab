"""The finite-mode table compiler against pointwise evaluation, the axiom
sweep, the axiom kernel and the closure-system table against literal int
definitions, the packed axiom kernel, on one table and on many packed end
to end, against the loop kernel it replaced
(``oracles.loop_axiom_witnesses``), the per-table flags of ``_fold``
against a literal per-slot OR at every lane width, and the Moore-family
search against a brute-force scan of every family bitmask."""

import random
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarski_lab.sets import Mode, ModeError, make_universe
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
    OperatorConstraintError,
    SExample,
    Top,
    WeakJoin,
    evaluate,
    table,
)
from tarski_lab.algebra import Comparison, equivalent, le
from tarski_lab.classify import (
    EXHAUSTIVE,
    AxiomReport,
    Verdict,
    _axiom_flags,
    _fold,
    _monotone_finitary_flags,
    _moore_family_masks,
    _slots,
    axiom_witnesses,
    check_axioms,
    enumerate_operators,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402
from oracles import flag_bytes, loop_axiom_witnesses  # noqa: E402

SYMBOLS = "abcd"


def masks(u):
    return st.integers(0, (1 << u.size) - 1)


def intersection_closure(generators, n):
    """L, the generator masks and all their intersections."""
    closed = {(1 << n) - 1}
    for m in generators:
        closed |= {m & c for c in closed} | {m}
    return tuple(closed)


@st.composite
def closure_systems(draw, u):
    return ClosureSystem(u, intersection_closure(draw(st.lists(masks(u), max_size=6)), u.size))


@st.composite
def leaves(draw, u):
    n, size = u.size, 1 << u.size
    kind = draw(st.sampled_from(["I", "U", "cxy", "cprime", "s", "table", "system"]))
    if kind == "I":
        return Identity(u)
    if kind == "U":
        return Top(u)
    if kind in ("cxy", "cprime"):
        family = Cxy if kind == "cxy" else CPrime
        return family(u.from_mask(draw(masks(u))), u.from_mask(draw(masks(u))))
    if kind == "s" and n >= 3:
        b = draw(st.integers(0, n - 1))
        others = [i for i in range(n) if i != b]
        base = draw(st.lists(st.sampled_from(others), min_size=1, max_size=n - 2, unique=True))
        return SExample(u.subset(base), b)
    if kind == "system":
        return FromSystem(draw(closure_systems(u)))
    values = draw(st.lists(masks(u), min_size=size, max_size=size))
    if draw(st.booleans()):
        values = [m | v for m, v in enumerate(values)]  # extensive
    return FromTable(u, tuple(values))


@st.composite
def expressions(draw, u, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(leaves(u))
    node = draw(st.sampled_from([Meet, NaiveJoin, Compose, WeakJoin]))
    return node(draw(expressions(u, depth - 1)), draw(expressions(u, depth - 1)))


def universes():
    return st.integers(1, 4).map(lambda n: make_universe(Mode.FINITE, SYMBOLS[:n]))


@st.composite
def operator_pairs(draw):
    u = draw(universes())
    return draw(expressions(u)), draw(expressions(u))


def seeded_leaf(rng, u):
    n, size = u.size, 1 << u.size
    kind = rng.choice(["I", "U", "cxy", "cprime", "s", "table", "system"])
    if kind == "I":
        return Identity(u)
    if kind == "U":
        return Top(u)
    if kind in ("cxy", "cprime"):
        family = Cxy if kind == "cxy" else CPrime
        return family(u.from_mask(rng.randrange(size)), u.from_mask(rng.randrange(size)))
    if kind == "s":
        b = rng.randrange(n)
        others = [i for i in range(n) if i != b]
        return SExample(u.subset(rng.sample(others, rng.randint(1, n - 2))), b)
    if kind == "system":
        generators = rng.sample(range(size), rng.randint(0, 7))
        return FromSystem(ClosureSystem(u, intersection_closure(generators, n)))
    values = [rng.randrange(size) for _ in range(size)]
    if rng.random() < 0.5:
        values = [m | v for m, v in enumerate(values)]  # extensive
    return FromTable(u, tuple(values))


def seeded_expression(rng, u, depth):
    if depth == 0 or rng.random() < 0.25:
        return seeded_leaf(rng, u)
    node = rng.choice([Meet, NaiveJoin, Compose, WeakJoin])
    return node(seeded_expression(rng, u, depth - 1), seeded_expression(rng, u, depth - 1))


def pointwise(op):
    u = op.universe
    return tuple(evaluate(op, u.from_mask(m)).mask for m in range(1 << u.size))


def literal_le(a, b):
    u = a.universe
    for m in range(1 << u.size):
        s = u.from_mask(m)
        if not evaluate(a, s).is_subset(evaluate(b, s)):
            return Comparison(False, s)
    return Comparison(True)


def literal_axioms(op):
    """The exhaustive report from the axiom definitions on the int table:
    least witnesses in ascending mask order (pairs lexicographically)."""
    u = op.universe
    t = table(op)
    size = len(t)
    axiom_i = Verdict(True)
    for m in range(size):
        if m & ~t[m] or t[t[m]] != t[m]:
            axiom_i = Verdict(False, witness=(u.from_mask(m),))
            break
    failing = [(s, r) for s in range(size) for r in range(size) if s & ~r == 0 and t[s] & ~t[r]]
    axiom_ii = Verdict(True)
    if failing:
        axiom_ii = Verdict(False, witness=tuple(map(u.from_mask, failing[0])))
    axiom_iii = Verdict(True)
    for s in range(size):
        union = 0
        for a in range(size):
            if a & ~s == 0:
                union |= t[a]
        if union != t[s]:
            missing, extra = t[s] & ~union, union & ~t[s]
            element = missing & -missing if missing else extra & -extra
            axiom_iii = Verdict(False, witness=(u.from_mask(s), element.bit_length() - 1))
            break
    return AxiomReport(
        axiom_i=axiom_i,
        axiom_ii=axiom_ii,
        axiom_iii=axiom_iii,
        axiomless=t[0] == 0,
        mode_note=EXHAUSTIVE,
        finitary_from_monotone=axiom_i.passed and axiom_ii.passed,
    )


def kernel_witnesses(op):
    """``axiom_witnesses`` on op's table, its masks read back as sets."""
    u = op.universe
    first, second, third = axiom_witnesses(table(op))
    return (
        first and (u.from_mask(first[0]),),
        second and tuple(map(u.from_mask, second)),
        third and (u.from_mask(third[0]), third[1]),
    )


def report_witnesses(report):
    return tuple(verdict.witness for verdict in (report.axiom_i, report.axiom_ii, report.axiom_iii))


def outcome(f, *args):
    """The result, or the message of the constraint error raised."""
    try:
        return f(*args)
    except OperatorConstraintError as error:
        return str(error)


class TestTable:
    @settings(deadline=None)
    @given(operator_pairs())
    def test_table_matches_pointwise_evaluation(self, pair):
        for op in pair:
            assert outcome(table, op) == outcome(pointwise, op)

    def test_table_matches_pointwise_evaluation_on_five_symbols(self):
        u = make_universe(Mode.FINITE, "abcde")
        rng = random.Random(5)
        ops = [seeded_expression(rng, u, 2) for _ in range(150)]
        compiled = [outcome(table, op) for op in ops]
        assert compiled == [outcome(pointwise, op) for op in ops]
        tables = [t for t in compiled if not isinstance(t, str)]
        assert all(type(t) is tuple for t in tables)
        assert 0 < len(tables) < len(compiled)  # some weak joins never settle

    @settings(deadline=None)
    @given(operator_pairs())
    def test_order_and_equivalence_match_the_literal_sweep(self, pair):
        a, b = pair
        if any(isinstance(outcome(pointwise, op), str) for op in pair):
            # A weak join that never settles somewhere is rejected as a
            # whole, even where the literal sweep would stop earlier.
            with pytest.raises(OperatorConstraintError):
                le(a, b)
            return
        assert le(a, b) == literal_le(a, b)
        assert equivalent(a, b) == (pointwise(a) == pointwise(b))

    @settings(deadline=None)
    @given(operator_pairs())
    def test_axiom_report_matches_the_literal_definitions(self, pair):
        for op in pair:
            if isinstance(outcome(table, op), str):
                # The sweep reads the whole table, so it is rejected as a whole.
                with pytest.raises(OperatorConstraintError):
                    check_axioms(op)
                continue
            assert check_axioms(op) == literal_axioms(op)
            assert kernel_witnesses(op) == report_witnesses(literal_axioms(op))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_axiom_kernel_beyond_the_strategy_sizes(self, n):
        # The strategy stops at four symbols; a slip in a DP's high bit only shows here.
        rng = random.Random(n)
        u = make_universe(Mode.FINITE, [f"s{i}" for i in range(n)])
        size = 1 << n
        ops = [FromTable(u, tuple(rng.randrange(size) for _ in range(size))) for _ in range(25)]
        ops += [FromTable(u, tuple(m | rng.randrange(size) for m in range(size))) for _ in range(25)]
        for _ in range(25):
            generators = rng.sample(range(size), rng.randint(0, 7))
            ops.append(FromSystem(ClosureSystem(u, intersection_closure(generators, n))))
        for system in [op.system for op in ops[50:]]:
            # One open set sent to itself: still extensive and idempotent, but
            # mostly not monotone, with the failure often across a high bit.
            values = list(system.table)
            s = rng.choice([m for m in range(size) if values[m] != m] or [0])
            values[s] = s
            ops.append(FromTable(u, tuple(values)))
        for op in ops:
            assert kernel_witnesses(op) == report_witnesses(check_axioms(op))

    @pytest.mark.parametrize(
        "values,expected",
        [
            # Everything to {}: monotone, but X ⊆ C(X) fails first at {a}.
            ((0,) * 8, ((0b001,), None, None)),
            # {a} inflates to {a,c} but {a,b} stays put: extensive and
            # idempotent, not monotone.  On a finite carrier (ii) and (iii)
            # fail together, so no table fails only one of them.
            ((0, 0b101, 2, 3, 4, 5, 6, 7), (None, (0b001, 0b011), (0b011, 2))),
            # A closure table: the least closed superset in {{b}, L}.
            ((2, 7, 2, 7, 7, 7, 7, 7), (None, None, None)),
        ],
    )
    def test_axiom_kernel_controls(self, values, expected):
        op = FromTable(make_universe(Mode.FINITE, "abc"), values)
        assert axiom_witnesses(values) == expected
        assert kernel_witnesses(op) == report_witnesses(check_axioms(op))

    @settings(deadline=None)
    @given(universes().flatmap(closure_systems))
    def test_closure_system_table_is_the_least_closed_superset(self, system):
        assert system.table == tuple(oracle.closure_table(system.masks, system.universe.size))
        assert table(FromSystem(system)) == system.table

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closure_system_table_on_every_system(self, n):
        for system in enumerate_operators(n):
            assert system.table == tuple(oracle.closure_table(system.masks, n))
            assert system.lanes == bytes(oracle.closure_table(system.masks, n))

    @pytest.mark.parametrize("n,code", [(9, "H"), (17, "I")])
    def test_closure_system_lanes_on_wider_lanes(self, n, code):
        # Two-byte lanes from nine symbols on, four-byte lanes from seventeen.
        rng = random.Random(n)
        closed = intersection_closure(rng.sample(range(1 << n), 2), n)
        system = ClosureSystem(make_universe(Mode.FINITE, [f"s{i}" for i in range(n)]), closed)
        expected = struct.pack(f"<{1 << n}{code}", *oracle.closure_table(system.masks, n))
        assert system.lanes == expected
        assert system.table == struct.unpack(f"<{1 << n}{code}", expected)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_closure_system_table_beyond_the_strategy_sizes(self, n):
        # The strategy stops at four symbols; a slip in a high bit's step, or at
        # the 8/9 lane-width edge, only shows here.
        rng = random.Random(n)
        u = make_universe(Mode.FINITE, [f"s{i}" for i in range(n)])
        for _ in range(25):
            generators = rng.sample(range(1 << n), rng.randint(0, 7))
            system = ClosureSystem(u, intersection_closure(generators, n))
            assert system.table == tuple(oracle.closure_table(system.masks, n))

    @pytest.mark.parametrize("n", [17, 20])
    def test_closure_system_table_on_four_byte_lanes(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        # Generators missing a few symbols each, so most samples have closed supersets besides L.
        generators = [full & ~sum(1 << i for i in rng.sample(range(n), 3)) for _ in range(8)]
        closed = intersection_closure(generators, n)
        values = ClosureSystem(make_universe(Mode.FINITE, [f"s{i}" for i in range(n)]), closed).table
        for _ in range(256):
            m = rng.choice(closed) & rng.getrandbits(n)
            expected = full
            for c in closed:
                if c & m == m:
                    expected &= c
            assert values[m] == expected

    def test_closure_system_table_is_refused_above_the_sweep_bound(self):
        # Construction and one point stay cheap; the 2^30-lane table is refused before any work.
        u = make_universe(Mode.FINITE, [f"s{i}" for i in range(30)])
        system = ClosureSystem(u, (1, (1 << 30) - 1))
        assert evaluate(FromSystem(system), u.subset([0])) == u.subset([0])
        with pytest.raises(ValueError, match="universe of size 30 is too large for exhaustive sweeps"):
            system.table

    def test_a_failing_operand_falls_back_to_pointwise_evaluation(self):
        # flip swaps {} and {a}, so its weak join with I never settles there;
        # composed after Top, that join is only ever read at L.
        u = make_universe(Mode.FINITE, "abc")
        flip = FromTable(u, (1, 0, 2, 3, 4, 5, 6, 7))
        assert table(Compose(WeakJoin(Identity(u), flip), Top(u))) == (7,) * 8
        with pytest.raises(OperatorConstraintError):
            table(WeakJoin(Identity(u), flip))

    def test_infinite_universe_has_no_table(self):
        with pytest.raises(ModeError):
            table(Identity(make_universe(Mode.COFINITE)))


def edge_table(n):
    """A closure table with faults planted where lanes meet once n ≥ 8.

    The base adds the top symbol to every argument meeting the first one.
    Sending {} to {top} breaks (ii) and (iii) in the top value bit of lane 0,
    the last bit of a lane when n is a multiple of eight; the chain
    L − {0, 1} → L − {0} → L breaks idempotence in lane 2ⁿ − 4, near the
    top of the packed int.
    """
    size, top = 1 << n, 1 << (n - 1)
    values = [m | top if m & 1 else m for m in range(size)]
    values[0] = top
    values[size - 4], values[size - 2] = size - 2, size - 1
    return tuple(values)


def kernel_tables(n):
    """Seeded tables on n symbols: arbitrary, extensive, closure tables, and
    closure tables with one open set sent to itself."""
    rng = random.Random(n)
    size = 1 << n
    tables = [tuple(rng.randrange(size) for _ in range(size)) for _ in range(3)]
    tables += [tuple(m | rng.randrange(size) for m in range(size)) for _ in range(3)]
    for _ in range(3):
        generators = rng.sample(range(size), min(size, rng.randint(0, 7)))
        values = oracle.closure_table(intersection_closure(generators, n), n)
        tables.append(tuple(values))
        s = rng.choice([m for m in range(size) if values[m] != m] or [0])
        values[s] = s
        tables.append(tuple(values))
    return tables + [tuple(range(size)), (size - 1,) * size]


def top_lane_tables(n):
    """Two tables whose faults sit high in their slot once n ≥ 2.  The first
    is the identity with L sent to L − {top}: (i) and (iii) fail only in
    lane L, in its top value bit.  The second sends L − {0} to itself and
    all else to {}: (ii) fails only in lane 2ⁿ − 2, and (iii) only in lane L."""
    size = 1 << n
    values = [0] * size
    values[size - 2] = size - 2
    return tuple(range(size - 1)) + (size // 2 - 1,), tuple(values)


def kernel_batches(n):
    """Seeded batches of 1 to 64 tables on n symbols, mostly arbitrary, and
    batches of closure tables that begin and end with ``top_lane_tables``."""
    rng = random.Random(100 + n)
    size = 1 << n
    first, last = top_lane_tables(n)

    def closure_table():
        generators = rng.sample(range(size), min(size, rng.randint(0, 7)))
        return tuple(oracle.closure_table(intersection_closure(generators, n), n))

    def any_table():
        kind = rng.random()
        if kind < 0.7:
            return tuple(rng.randrange(size) for _ in range(size))
        if kind < 0.85:
            return tuple(m | rng.randrange(size) for m in range(size))
        return closure_table()

    closure = [closure_table() for _ in range(rng.randint(1, 6))]
    batches = [[first], [last], [first] + closure + [last], [last] + closure + [first]]
    return batches + [[any_table() for _ in range(rng.randint(1, 64))] for _ in range(4)]


class TestPackedKernel:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_loop_kernel(self, n):
        tables = kernel_tables(n) + ([edge_table(n)] if n >= 2 else [])
        assert [axiom_witnesses(t) for t in tables] == [loop_axiom_witnesses(t) for t in tables]

    @pytest.mark.parametrize("n", [8, 9, 16, 17])
    def test_matches_the_loop_kernel_at_the_lane_width_edges(self, n):
        # One-byte lanes end at n = 8 and two-byte lanes at n = 16.
        t = edge_table(n)
        size = 1 << n
        expected = ((size - 4,), (0, 2), (2, n - 1))
        assert axiom_witnesses(t) == loop_axiom_witnesses(t) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_batch_flags_match_the_witnesses(self, n):
        for tables in kernel_batches(n):
            witnesses = [axiom_witnesses(t) for t in tables]
            assert witnesses == [loop_axiom_witnesses(t) for t in tables]
            slots = _slots(n, len(tables))
            images = b"".join(map(bytes, tables))
            flags = _axiom_flags(images, n)
            for k, axiom in enumerate(flags):
                assert axiom & ~slots.starts == 0
                assert flag_bytes(axiom, slots, len(tables)) == bytes(w[k] is not None for w in witnesses)
            assert _monotone_finitary_flags(images, n) == flags[1:]

    @pytest.mark.parametrize("t", [(), (0, 0, 0), (0, 1, 2, 2, 2, 2), tuple(range(9))])
    def test_refuses_a_length_other_than_a_power_of_two(self, t):
        with pytest.raises(ValueError, match=f"^table must be total: expected 2\\^n entries, got {len(t)}$"):
            axiom_witnesses(t)

    @pytest.mark.parametrize("n", [0, 1, 3, 8, 9])
    @pytest.mark.parametrize("value", ["size", "lane", "negative", "below minus size"])
    def test_refuses_an_image_outside_the_table(self, n, value):
        size = 1 << n
        image = {"size": size, "lane": 0xFFFF, "negative": -1, "below minus size": -size - 1}[value]
        t = list(range(size))
        t[size // 2] = image
        with pytest.raises(ValueError, match=f"^table value {image:#x} out of range$"):
            axiom_witnesses(tuple(t))

    def test_top_lane_tables_fail_where_planted(self):
        first, last = top_lane_tables(4)
        assert axiom_witnesses(first) == ((15,), (8, 15), (15, 3))
        assert axiom_witnesses(last) == ((1,), (14, 15), (15, 1))


def slot_or(failed, slot, count):
    """The flags ``_fold`` promises, by their literal definition: bit k·slot
    is set exactly when some bit of slot k of ``failed`` is set."""
    whole = (1 << slot) - 1
    return sum(1 << k * slot for k in range(count) if failed >> k * slot & whole)


class TestFold:
    COUNT = 3

    @pytest.mark.parametrize("n", [*range(1, 10), 17])
    def test_matches_the_per_slot_or(self, n):
        slots = _slots(n, self.COUNT)
        assert slots.width == (1 if n <= 8 else 2 if n <= 16 else 4)
        slot, last = slots.slot, (self.COUNT - 1) * slots.slot
        whole = (1 << slot) - 1
        cases = [
            0,
            1 << slot,  # only the first bit of the middle slot
            1 << 2 * slot - 1,  # only its last bit
            1 << 2 * slot - 2,  # only the bit below its last
            1 << last,  # only the first bit of the last slot
            1 << last + slot - 1,  # only the last bit of the last slot
            whole << slot,  # the whole middle slot
            whole << last | 1,
            (1 << self.COUNT * slot) - 1,
        ]
        if slot <= 128:
            cases += [1 << slot + b for b in range(slot)]
        rng = random.Random(200 + n)
        for _ in range(20):
            chosen = [k for k in range(self.COUNT) if rng.random() < 0.5]
            cases.append(sum(1 << k * slot + rng.randrange(slot) for k in chosen))
        for failed in cases:
            assert _fold(failed, slots) == slot_or(failed, slot, self.COUNT)


def is_closure_system(n, fam):
    """Whether the family bitmask contains L and is intersection-closed."""
    members = [m for m in range(1 << n) if fam >> m & 1]
    closed = all(fam >> (a & b) & 1 for i, a in enumerate(members) for b in members[i + 1 :])
    return bool(fam >> ((1 << n) - 1) & 1) and closed


def family_bitmasks(n):
    """The characteristic bitmask over P(L) of each family the Moore search lists."""
    return [sum(1 << m for m in masks) for masks in _moore_family_masks(n)]


class TestMooreSearch:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stream_equals_brute_force_scan(self, n):
        scan = [fam for fam in range(1 << (1 << n)) if is_closure_system(n, fam)]
        assert family_bitmasks(n) == scan

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 7), (3, 61), (4, 2480)])
    def test_published_counts(self, n, count):
        assert all(list(masks) == sorted(masks) for masks in _moore_family_masks(n))
        families = family_bitmasks(n)
        assert len(families) == count
        assert list(families) == sorted(set(families))
        assert all(is_closure_system(n, fam) for fam in families)
