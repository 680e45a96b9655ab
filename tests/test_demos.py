"""Every named demo exits 0 and its JSON report matches the checked-in golden.

The packed order matrix behind thm-3.5 (``classify._order_flags``, the
flags of a ≤ b and of b∘a = b for every row a and column b, each pair in its
own slot) and the escape count behind thm-4.3-lemma (three
``bytes.translate`` gathers per table, joined), and the axiom kernels behind
thm-2.5, remark-2.2 and lemma-2.6, are checked item by item against the
expression-level procedures they replace.  On all 6,150,400 ordered pairs
of closure systems on four symbols, listed by perfbench's independent
enumeration, packed ≤ is checked against fixed(b) ⊆ fixed(a) and packed
b∘a = b against packed ≤, and the escape count is checked to be zero on
every one of those systems.  The lanes thm-2.5 packs from parameter masks
are checked against ``table`` of the nodes, and breaking one family must
zero that family's count alone: both families pass in the golden, so it
cannot see their slot ranges swapped.
"""

import itertools
import random
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from tarski_lab import demos
from tarski_lab.algebra import equivalent, le
from tarski_lab.classify import (
    _extensive_idempotent_tables,
    _lookup,
    _order_flags,
    axiom_witnesses,
    check_axioms,
    default_universe,
    enumerate_operators,
    lemma26_witness,
)
from tarski_lab.cli import main
from tarski_lab.concurrence import monotone_union_check
from tarski_lab.demos import DEMOS, _parametric_lanes, _union_escapes, _union_pairs, run_demo
from tarski_lab.operators import (
    Compose,
    CPrime,
    Cxy,
    FromSystem,
    FromTable,
    _cprime_table,
    _cxy_table,
    compose,
    evaluate,
    table,
)
from tarski_lab.sets import Mode, make_universe

from oracles import all_subsets, flag_bytes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_matches_golden(name):
    runner = CliRunner()
    result = runner.invoke(main, ["demo", name, "--json"], catch_exceptions=False)
    assert result.exit_code == 0
    expected = (GOLDEN / f"demo-{name}.json").read_text()
    assert result.output == expected


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_verdicts_demonstrated(name):
    assert run_demo(name).verdict is True


def test_unknown_demo_raises():
    with pytest.raises(KeyError):
        run_demo("example-9.9")


SYSTEMS = list(enumerate_operators(3))
L3 = make_universe(Mode.FINITE, ("a", "b", "c"))
# Arbitrary maps P(L) → P(L): neither extensive, idempotent nor monotone.
_rng = random.Random(35)
ARBITRARY = [tuple(_rng.randrange(8) for _ in range(8)) for _ in range(20)]


def _column_of_one(a, b):
    """``_order_flags`` of the one row a and the one column b, as two booleans."""
    outside, moved, _ = _order_flags([bytes(table(a))], [bytes(table(b))])
    return not outside, not moved


def _order_and_composition_agree(a, b):
    return _column_of_one(a, b) == (le(a, b).holds, equivalent(compose(b, a), b))


def _union_agrees(op, t):
    """The escape count for t agrees with ``monotone_union_check`` on op, pair by
    pair and over all pairs; returns the count."""
    lookup = _lookup(t)
    masks = range(1 << op.universe.size)
    escapes = 0
    for s, u in itertools.product(masks, masks):
        escaped = not monotone_union_check(op, [op.universe.from_mask(s), op.universe.from_mask(u)])
        assert _union_escapes([lookup], (bytes([s]), bytes([u]), bytes([s | u]))) == escaped
        escapes += escaped
    assert _union_escapes([lookup], _union_pairs(op.universe.size)) == escapes
    return escapes


def test_order_and_composition_helpers_match_le_and_equivalent():
    extensive = [all(m & ~t[m] == 0 for m in range(8)) for t in ARBITRARY]
    idempotent = [all(t[t[m]] == t[m] for m in range(8)) for t in ARBITRARY]
    monotone = [axiom_witnesses(t)[1] is None for t in ARBITRARY]
    assert not any(extensive) and not any(idempotent) and not any(monotone)
    ops = [FromSystem(system) for system in SYSTEMS] + [FromTable(L3, t) for t in ARBITRARY]
    assert all(_order_and_composition_agree(a, b) for a in ops for b in ops)


def test_order_and_composition_helpers_on_an_incomparable_pair():
    a, b = Cxy(L3.of_names("a"), L3.of_names("b")), Cxy(L3.of_names("c"), L3.of_names("b"))
    assert _order_and_composition_agree(a, b) and _order_and_composition_agree(b, a)
    assert _column_of_one(a, b) == (False, False)


@pytest.mark.parametrize("shape", [(13, 7), (7, 13), (5, 1), (1, 5)])
def test_order_matrix_puts_each_pair_in_its_own_slot(shape):
    # Rows and columns of other lengths than a power of two: a tile or a
    # gather off by one slot pairs a column with the wrong row.
    rng = random.Random(f"matrix {shape}")
    ops = [FromSystem(system) for system in SYSTEMS] + [FromTable(L3, t) for t in ARBITRARY]
    agree = {True: 0, False: 0}
    for _ in range(5):
        rows, columns = rng.sample(ops, shape[0]), rng.sample(ops, shape[1])
        outside, moved, slots = _order_flags([bytes(table(a)) for a in rows], [bytes(table(b)) for b in columns])
        count = len(rows) * len(columns)
        below = flag_bytes(slots.starts ^ outside, slots, count)
        absorbs = flag_bytes(slots.starts ^ moved, slots, count)
        assert below == bytes(le(a, b).holds for b in columns for a in rows)
        assert absorbs == bytes(equivalent(Compose(b, a), b) for b in columns for a in rows)
        for flag in below + absorbs:
            agree[bool(flag)] += 1
    assert agree[True] and agree[False]


def test_union_helper_matches_monotone_union_check():
    for system in SYSTEMS:
        assert _union_agrees(FromSystem(system), system.table) == 0


def test_union_helper_on_a_non_monotone_table():
    # {a} inflates to the full universe but {a,b} stays put.
    values = list(range(8))
    values[0b001] = 0b111
    op = FromTable(L3, tuple(values))
    assert _union_agrees(op, op.table) > 0
    assert _union_escapes([_lookup(op.table)], (b"\1", b"\2", b"\3")) == 1


def test_packed_order_is_reverse_inclusion_of_fixed_points_on_four_symbols():
    families = oracle.moore_families(4)
    tables = [bytes(oracle.closure_table(family, 4)) for family in families]
    fixed = [sum(1 << m for m in family) for family in families]
    comparable = 0
    for b, fixed_b in zip(tables, fixed):
        # One column at a time: the whole matrix would take 6,150,400 slots.
        outside, moved, slots = _order_flags(tables, [b])
        below, absorbs = slots.starts ^ outside, slots.starts ^ moved
        assert flag_bytes(below, slots, len(tables)) == bytes(fixed_b & ~fixed_a == 0 for fixed_a in fixed)
        assert absorbs == below
        comparable += below.bit_count()
    assert (len(tables), comparable) == (2480, 325967)


def test_union_lemma_on_four_symbols():
    pairs = _union_pairs(4)
    tables = [oracle.closure_table(family, 4) for family in oracle.moore_families(4)]
    assert len(tables) == 2480
    assert all(_union_escapes([_lookup(t)], pairs) == 0 for t in tables)


def test_kernel_matches_check_axioms_on_the_remark_2_2_sample():
    verdicts = set()
    for t in _extensive_idempotent_tables(3):
        op = FromTable(L3, t)
        _, second, third = axiom_witnesses(t)
        report = check_axioms(op)
        verdicts.add((report.axiom_ii.passed, report.axiom_iii.passed))
        assert (second is None, third is None) == (report.axiom_ii.passed, report.axiom_iii.passed)
    assert verdicts == {(True, True), (False, False)}


def test_kernel_matches_check_axioms_on_the_thm_2_5_families():
    subsets = all_subsets(L3)
    for family, x, y in itertools.product((Cxy, CPrime), subsets, subsets):
        op = family(x, y)
        assert (axiom_witnesses(table(op)) == (None, None, None)) == check_axioms(op).all_pass


def test_thm_2_5_tables_are_the_node_tables():
    l4 = default_universe(4)
    rng = random.Random(25)
    pairs = [(x, y) for x in all_subsets(L3) for y in all_subsets(L3)]
    pairs += [(l4.from_mask(rng.randrange(16)), l4.from_mask(rng.randrange(16))) for _ in range(64)]
    for x, y in pairs:
        size = 1 << x.universe.size
        assert table(Cxy(x, y)) == _cxy_table(x.mask, y.mask, size)
        assert table(CPrime(x, y)) == _cprime_table(x.mask, y.mask, size)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_thm_2_5_lanes_are_the_node_tables(n):
    u = default_universe(n)
    masks = range(1 << n)
    for contains, family in ((False, Cxy), (True, CPrime)):
        nodes = [family(u.from_mask(x), u.from_mask(y)) for x in masks for y in masks]
        assert _parametric_lanes(n, contains) == b"".join(bytes(table(op)) for op in nodes)


@pytest.mark.parametrize(
    "broken, failing, intact", [("_cxy_table", "first", "second"), ("_cprime_table", "second", "first")]
)
def test_thm_2_5_counts_each_family_in_its_own_slots(monkeypatch, broken, failing, intact):
    # `broken` names the node whose family is broken.  Sending every set to ∅
    # is not extensive, so every pair of the broken family fails.
    packed = demos._parametric_lanes

    def patched(n, contains):
        lanes = packed(n, contains)
        return bytes(len(lanes)) if contains == (broken == "_cprime_table") else lanes

    monkeypatch.setattr(demos, "_parametric_lanes", patched)
    report = run_demo("thm-2.5")
    assert report.data[f"{failing}-family-pass"] == 0
    assert report.data[f"{intact}-family-pass"] == 64
    assert report.verdict is False


def _lemma26_by_report(op):
    """The witness scan on the full axiom report and pointwise evaluation."""
    report = check_axioms(op)
    if not report.is_consequence or report.axiomless:
        raise ValueError
    full = op.universe.full()
    for x in range(op.universe.size):
        if evaluate(op, full.difference(op.universe.subset([x]))).is_full():
            return x
    raise RuntimeError


def _value_or_error(f, op):
    try:
        return f(op)
    except (ValueError, RuntimeError) as error:
        return type(error)


def test_lemma26_witness_matches_the_report_scan():
    tables = [FromTable(L3, t) for t in _extensive_idempotent_tables(3)]
    ops = [FromSystem(system) for system in SYSTEMS] + tables
    outcomes = [_value_or_error(lemma26_witness, op) for op in ops]
    assert outcomes == [_value_or_error(_lemma26_by_report, op) for op in ops]
    # Witnesses, axiomless systems and non-monotone tables are all among them.
    assert {0, 1, 2, ValueError} <= set(outcomes)
