"""Every table the operator grammar can write on at most three symbols,
checked against perfbench's literal reference (``oracle.py``).

The leaf tables are those of ``I``, ``U``, every ``cxy`` and ``cprime``, every
constructible ``s {M} b`` and every ``system[...]``.  Every leaf is a
closure operator, so on three symbols the 61 systems already hold all of
them: 61 distinct tables, 45 of them written by the other leaves.  A
breadth-first search closes them under meet, join, comp and wjoin on the
literal definitions, round by round; a table first reached in a round keeps
the shortest text that reaches it there.  The fixpoint has 2, 9 and 216
tables on one, two and three symbols.  Every text parses back to its table,
and every procedure below is compared with the reference, not with another
path of the program: the axiom reports, the packed axiom kernel on one
table and on all of them in one pass, Lemma 2.6's witness, its
co-singleton scan, and the order.
"""

import sys
from functools import lru_cache
from operator import and_, or_
from pathlib import Path

import pytest

from tarski_lab.algebra import le
from tarski_lab.classify import (
    _axiom_flags,
    _slots,
    _uncovered,
    axiom_witnesses,
    check_axioms,
    enumerate_operators,
    lemma26_witness,
)
from tarski_lab.operators import FromTable, table, to_closure_system
from tarski_lab.parsing import SpecContext, parse_operator
from tarski_lab.report import axiom_report_payload
from tarski_lab.sets import Mode, make_universe

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402
from oracles import flag_bytes  # noqa: E402

AXIOMS = ("axiom-i", "axiom-ii", "axiom-iii")


def leaves(n):
    """The text of every leaf on n symbols and its table, from the literal definitions."""
    size, full = 1 << n, (1 << n) - 1
    yield "I", tuple(range(size))
    yield "U", (full,) * size
    for x in range(size):
        for y in range(size):
            for head in ("cxy", "cprime"):
                expr = (head, x, y)
                yield oracle.render(expr, n), tuple(oracle.table(expr, n))
    for b in range(n):
        for m in range(1, size):
            # M nonempty, b outside M, and at least two elements outside M.
            if not m >> b & 1 and n - m.bit_count() >= 2:
                text = f"s {oracle.set_literal(m, n)} {oracle.SYMBOLS[b]}"
                yield text, tuple(full if v >> b & 1 else v | m for v in range(size))
    for family in oracle.moore_families(n):
        expr = ("system", family)
        yield oracle.render(expr, n), tuple(oracle.table(expr, n))


def weak_join(left, right):
    """wjoin(left, right): y ↦ right(left(y)) iterated to its first fixed point.
    Every table here is extensive, so y only grows and the iteration stops."""
    out = []
    for y in range(len(left)):
        while right[left[y]] != y:
            y = right[left[y]]
        out.append(y)
    return tuple(out)


COMBINE = {
    "meet": lambda a, b: tuple(map(and_, a, b)),
    "join": lambda a, b: tuple(map(or_, a, b)),
    "comp": lambda a, b: tuple([a[v] for v in b]),
    "wjoin": weak_join,
}


@lru_cache(maxsize=None)
def reachable(n):
    """Every table the grammar reaches on n symbols, each with one text."""
    texts = {}
    for text, t in leaves(n):
        if t not in texts or len(text) < len(texts[t]):
            texts[t] = text
    frontier = set(texts)
    while frontier:
        found = {}
        known = list(texts.items())
        for a, a_text in known:
            for b, b_text in known:
                if a not in frontier and b not in frontier:
                    continue
                for head, combine in COMBINE.items():
                    t = combine(a, b)
                    text = f"{head}({a_text},{b_text})"
                    if t not in texts and (t not in found or len(text) < len(found[t])):
                        found[t] = text
        texts.update(found)
        frontier = set(found)
    return texts


@pytest.fixture(scope="module")
def three():
    """The reachable tables on three symbols, the universe and the parsed texts."""
    u = make_universe(Mode.FINITE, "abc")
    ctx = SpecContext(u)
    return u, {t: parse_operator(text, ctx) for t, text in reachable(3).items()}


def test_the_leaf_tables_on_three_symbols_are_the_closure_systems():
    by_systems = {t for text, t in leaves(3) if text.startswith("system")}
    others = {t for text, t in leaves(3) if not text.startswith("system")}
    assert (len(by_systems), len(others)) == (61, 45)
    assert others <= by_systems


@pytest.mark.parametrize("n, count", [(1, 2), (2, 9), (3, 216)])
def test_the_grammar_reaches_exactly(n, count):
    assert len(reachable(n)) == count


def test_every_text_parses_to_its_table(three):
    _, ops = three
    for t, op in ops.items():
        assert table(op) == t


def test_axiom_reports_match_the_reference(three):
    _, ops = three
    for t, op in ops.items():
        assert axiom_report_payload(check_axioms(op)) == oracle.axiom_payload(list(t), 3)


def kernel_payload(witnesses, n):
    """The three verdicts of ``oracle.axiom_payload`` for the mask witnesses
    of ``axiom_witnesses``."""
    first, second, third = witnesses
    found = (
        first and {"set": oracle.set_literal(first[0], n)},
        second and {"smaller": oracle.set_literal(second[0], n), "larger": oracle.set_literal(second[1], n)},
        third and {"set": oracle.set_literal(third[0], n), "element": third[1]},
    )
    verdicts = {}
    for axiom, witness in zip(AXIOMS, found):
        verdicts[axiom] = {"passed": witness is None, "conclusive": True}
        if witness is not None:
            verdicts[axiom]["witness"] = witness
    return verdicts


def cosingleton_witness(t):
    """The least x with t[L − {x}] = L, or None, by the literal scan."""
    full = len(t) - 1
    return next((x for x in range(full.bit_length()) if t[full ^ 1 << x] == full), None)


def test_axiom_kernel_matches_the_reference(three):
    _, ops = three
    tables = list(ops)
    payloads = [oracle.axiom_payload(list(t), 3) for t in tables]
    for t, payload in zip(tables, payloads):
        assert kernel_payload(axiom_witnesses(t), 3) == {axiom: payload[axiom] for axiom in AXIOMS}
    # All 216 tables in one packed pass.
    flags = _axiom_flags(b"".join(map(bytes, tables)), 3)
    slots = _slots(3, len(tables))
    for axiom, flag in zip(AXIOMS, flags):
        assert flag_bytes(flag, slots, len(tables)) == bytes(not p[axiom]["passed"] for p in payloads)


def test_lemma_2_6_witness_matches_the_literal_scan(three):
    _, ops = three
    outcomes = set()
    for t, op in ops.items():
        payload = oracle.axiom_payload(list(t), 3)
        if not (payload["axiom-i"]["passed"] and payload["axiom-ii"]["passed"]):
            expected = "^the operand is not a consequence operator$"
        elif t[0] == 0:
            expected = "^the operand is axiomless; no witness is guaranteed$"
        else:
            assert lemma26_witness(op) == cosingleton_witness(t) is not None
            outcomes.add("witness")
            continue
        with pytest.raises(ValueError, match=expected):
            lemma26_witness(op)
        outcomes.add(expected)
    assert len(outcomes) == 3


class Lanes:
    """Stands in for a closure system with any table on three symbols; the
    co-singleton scan reads only ``universe`` and ``lanes``."""

    def __init__(self, universe, t):
        self.universe, self.lanes = universe, bytes(t)


def test_cosingleton_scan_matches_the_literal_scan(three):
    u, ops = three
    families = [
        [(s.table, s) for s in enumerate_operators(3)],
        [(t, Lanes(u, t)) for t in ops],
    ]
    for family in families:
        axiomatic, failing, slots = _uncovered([system for _, system in family])
        count = len(family)
        assert flag_bytes(axiomatic, slots, count) == bytes(t[0] != 0 for t, _ in family)
        expected = bytes(t[0] != 0 and cosingleton_witness(t) is None for t, _ in family)
        assert flag_bytes(failing, slots, count) == expected


def test_the_idempotent_tables_are_the_closure_systems(three):
    _, ops = three
    idempotent = {t: op for t, op in ops.items() if all(t[v] == v for v in t)}
    assert set(idempotent) == {system.table for system in enumerate_operators(3)}
    for t, op in idempotent.items():
        expected = oracle.closure_table(oracle.fixed_points(list(t)), 3)
        assert to_closure_system(op).table == tuple(expected)


def test_order_matches_the_reference_on_every_pair(three):
    u, ops = three
    operands = [(list(t), FromTable(u, t)) for t in ops]
    for a, a_op in operands:
        for b, b_op in operands:
            result = le(a_op, b_op)
            witness = None if result.holds else result.witness.mask
            assert witness == oracle.le_witness(a, b)
