"""Every named demo exits 0 and its JSON report matches the checked-in golden.

The table predicates behind thm-3.5 and thm-4.3-lemma, and the axiom kernel
behind thm-2.5, remark-2.2 and lemma-2.6, are checked item by item against
the expression-level procedures they replace.
"""

import itertools
from pathlib import Path

import pytest
from click.testing import CliRunner

from tarski_lab.algebra import equivalent, le
from tarski_lab.classify import (
    _extensive_idempotent_tables,
    axiom_witnesses,
    check_axioms,
    enumerate_operators,
    lemma26_witness,
)
from tarski_lab.cli import main
from tarski_lab.concurrence import monotone_union_check
from tarski_lab.demos import DEMOS, _absorbs, _below, _union_escapes, run_demo
from tarski_lab.operators import CPrime, Cxy, FromSystem, FromTable, compose, evaluate, table
from tarski_lab.sets import Mode, all_subsets, make_universe

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


def _order_and_composition_agree(a, b):
    ta, tb = table(a), table(b)
    return (_below(ta, tb), _absorbs(ta, tb)) == (le(a, b).holds, equivalent(compose(b, a), b))


def _union_agrees(op, t, s, u):
    parts = [op.universe.from_mask(s), op.universe.from_mask(u)]
    return _union_escapes(t, s, u) == (not monotone_union_check(op, parts))


def test_order_and_composition_helpers_match_le_and_equivalent():
    ops = [FromSystem(system) for system in SYSTEMS]
    assert all(_order_and_composition_agree(a, b) for a in ops for b in ops)


def test_order_and_composition_helpers_on_an_incomparable_pair():
    a, b = Cxy(L3.of_names("a"), L3.of_names("b")), Cxy(L3.of_names("c"), L3.of_names("b"))
    assert _order_and_composition_agree(a, b) and _order_and_composition_agree(b, a)
    assert not _below(table(a), table(b)) and not _absorbs(table(a), table(b))


def test_union_helper_matches_monotone_union_check():
    masks = range(1 << 3)
    for system in SYSTEMS:
        op = FromSystem(system)
        assert all(_union_agrees(op, system.table, s, u) for s in masks for u in masks)


def test_union_helper_on_a_non_monotone_table():
    # {a} inflates to the full universe but {a,b} stays put.
    values = list(range(8))
    values[0b001] = 0b111
    op = FromTable(L3, tuple(values))
    masks = range(1 << 3)
    assert all(_union_agrees(op, op.table, s, u) for s in masks for u in masks)
    assert _union_escapes(op.table, 0b001, 0b010)


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
