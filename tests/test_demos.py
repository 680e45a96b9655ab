"""Every named demo exits 0 and its JSON report matches the checked-in golden.

The packed column primitive behind thm-3.5 (``classify._column``, the
flags of a ≤ b and of b∘a = b for one table b against a family packed once,
as bytes and as one int) and the escape count behind thm-4.3-lemma (three
``bytes.translate`` gathers), and the axiom kernels behind thm-2.5,
remark-2.2 and lemma-2.6, are checked item by item against the
expression-level procedures they replace.  On all 6,150,400 ordered pairs
of closure systems on four symbols, listed by perfbench's independent
enumeration, packed ≤ is checked against fixed(b) ⊆ fixed(a) and packed
b∘a = b against packed ≤, and the escape count is checked to be zero on
every one of those systems.  The tables thm-2.5 compiles from parameter
masks are checked against ``table`` of the nodes, and breaking one family
must zero that family's count alone: both families pass in the golden, so
it cannot see their slot ranges swapped.
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
    _batch,
    _column,
    _extensive_idempotent_tables,
    _lookup,
    axiom_witnesses,
    check_axioms,
    default_universe,
    enumerate_operators,
    lemma26_witness,
)
from tarski_lab.cli import main
from tarski_lab.concurrence import monotone_union_check
from tarski_lab.demos import DEMOS, _union_escapes, _union_pairs, run_demo
from tarski_lab.operators import (
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
    """``_column`` of b against the family holding only a, as two booleans."""
    images, packed, lanes = _batch([table(a)])
    below, absorbs = _column(table(b), images, packed, lanes.slots)
    return bool(below), bool(absorbs)


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
        assert _union_escapes(lookup, (bytes([s]), bytes([u]), bytes([s | u]))) == escaped
        escapes += escaped
    assert _union_escapes(lookup, _union_pairs(op.universe.size)) == escapes
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


def test_union_helper_matches_monotone_union_check():
    for system in SYSTEMS:
        assert _union_agrees(FromSystem(system), system.table) == 0


def test_union_helper_on_a_non_monotone_table():
    # {a} inflates to the full universe but {a,b} stays put.
    values = list(range(8))
    values[0b001] = 0b111
    op = FromTable(L3, tuple(values))
    assert _union_agrees(op, op.table) > 0
    assert _union_escapes(_lookup(op.table), (b"\1", b"\2", b"\3")) == 1


def test_packed_order_is_reverse_inclusion_of_fixed_points_on_four_symbols():
    families = oracle.moore_families(4)
    tables = [tuple(oracle.closure_table(family, 4)) for family in families]
    fixed = [sum(1 << m for m in family) for family in families]
    images, packed, lanes = _batch(tables)
    comparable = 0
    for b, fixed_b in zip(tables, fixed):
        below, absorbs = _column(b, images, packed, lanes.slots)
        assert flag_bytes(below, lanes.slots, len(tables)) == bytes(fixed_b & ~fixed_a == 0 for fixed_a in fixed)
        assert absorbs == below
        comparable += below.bit_count()
    assert (len(tables), comparable) == (2480, 325967)


def test_union_lemma_on_four_symbols():
    pairs = _union_pairs(4)
    tables = [oracle.closure_table(family, 4) for family in oracle.moore_families(4)]
    assert len(tables) == 2480
    assert all(_union_escapes(_lookup(t), pairs) == 0 for t in tables)


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


@pytest.mark.parametrize(
    "broken, failing, intact", [("_cxy_table", "first", "second"), ("_cprime_table", "second", "first")]
)
def test_thm_2_5_counts_each_family_in_its_own_slots(monkeypatch, broken, failing, intact):
    # Sending every set to ∅ is not extensive, so every pair of the patched family fails.
    monkeypatch.setattr(demos, broken, lambda x, y, size: (0,) * size)
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
