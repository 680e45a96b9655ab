"""Named demonstrations with deterministic, golden-testable reports.

Each demo replays one of the standard facts about the operator algebra on
a small concrete instance and reports the exact values it computed.  A
demo that demonstrates an expected failure (a map that is not a closure
operator) still succeeds as a demo: the verdict says "demonstrated".
"""

from __future__ import annotations

from typing import Callable

from .sets import Mode, all_subsets, make_universe
from .operators import (
    Compose,
    CPrime,
    Cxy,
    FromSystem,
    NaiveJoin,
    SExample,
    evaluate,
    table,
)
from .algebra import (
    descending_chain,
    equivalent,
    le,
    relative_complement,
    sublattice_report,
)
from .classify import (
    _extensive_idempotent_tables,
    axiom_witnesses,
    check_axioms,
    dense_cover_check,
    e0_family,
    enumerate_operators,
    is_atom,
    lemma26_witness,
)
from .parsing import render_operator
from .report import Report, axiom_report_payload, sublattice_payload


def _l3():
    return make_universe(Mode.FINITE, ("a", "b", "c"))


def _idempotence_failure(name: str, op, start) -> Report:
    """Apply ``op`` twice from ``start``: a changed second value shows that
    idempotence fails, and the axiom report must agree."""
    once = evaluate(op, start)
    twice = evaluate(op, once)
    report = check_axioms(op)
    return Report(
        command=f"demo {name}",
        verdict=not report.axiom_i.passed and twice != once,
        data={
            "operator": render_operator(op),
            "start": start.literal(),
            "applied-once": once.literal(),
            "applied-twice": twice.literal(),
            "idempotent": twice == once,
            "demonstration-witness": start.literal(),
            "axiom-report": axiom_report_payload(report),
        },
    )


def _adder_and_example():
    """The two closure operators that examples 2.8 and 3.4 combine."""
    u = _l3()
    return CPrime(u.of_names("b"), u.empty()), SExample(u.of_names("a"), u.index_of("b"))


def demo_example_2_8() -> Report:
    """The naive (pointwise-union) join of two closure operators can fail
    idempotence; replayed starting from the empty set."""
    adder, example = _adder_and_example()
    return _idempotence_failure("example-2.8", NaiveJoin(adder, example), adder.universe.empty())


def demo_example_3_4() -> Report:
    """Composition of two closure operators need not be one; replayed
    starting from the base set M of the example operator."""
    adder, example = _adder_and_example()
    return _idempotence_failure("example-3.4", Compose(adder, example), example.m)


def demo_example_3_2() -> Report:
    """A strictly descending infinite chain exists on the infinite
    universe, so the descending chain condition fails."""
    u = make_universe(Mode.COFINITE)
    chain = descending_chain(u, 5)
    probe = u.subset([0])
    values = [evaluate(op, probe).literal() for op in chain]
    strict = all(
        le(lower, upper).holds and not le(upper, lower).holds
        for upper, lower in zip(chain, chain[1:])
    )
    non_identity_probe = u.subset([0, 1])
    no_identity = all(evaluate(op, non_identity_probe) != non_identity_probe for op in chain)
    return Report(
        command="demo example-3.2",
        verdict=strict and no_identity,
        data={
            "members": [render_operator(op) for op in chain],
            "values-at-{0}": values,
            "strictly-decreasing": strict,
            "identity-free": no_identity,
        },
    )


def demo_thm_2_5() -> Report:
    """Both parametric families are closure operators for every parameter
    pair (exhaustive on three symbols), and the second family loses
    finitarity exactly when its trigger set is infinite."""
    u = _l3()
    subsets = all_subsets(u)
    cxy_pass = cprime_pass = 0
    for x in subsets:
        for y in subsets:
            if axiom_witnesses(table(Cxy(x, y))) == (None, None, None):
                cxy_pass += 1
            if axiom_witnesses(table(CPrime(x, y))) == (None, None, None):
                cprime_pass += 1
    infinite = make_universe(Mode.COFINITE)
    caveat = check_axioms(CPrime(infinite.subset([0]), infinite.cosubset([0])))
    return Report(
        command="demo thm-2.5",
        verdict=cxy_pass == 64 and cprime_pass == 64 and not caveat.axiom_iii.passed,
        data={
            "pairs": 64,
            "first-family-pass": cxy_pass,
            "second-family-pass": cprime_pass,
            "infinite-trigger-caveat": axiom_report_payload(caveat),
        },
    )


def demo_thm_2_7() -> Report:
    """Every single-element closure candidate is an atom, and every
    axiomatic operator dominates one of them (three symbols)."""
    u = _l3()
    systems = list(enumerate_operators(3))
    members = e0_family(u)
    atoms = [is_atom(op, systems) for op in members]
    cover = dense_cover_check(systems)
    return Report(
        command="demo thm-2.7",
        verdict=all(atoms) and cover.holds,
        data={
            "candidates": [render_operator(op) for op in members],
            "all-atoms": all(atoms),
            "dense-cover": cover.holds,
            "operator-count": len(systems),
        },
    )


def demo_thm_3_1() -> Report:
    """The family induced by a fixed trigger set is a complete distributive
    sublattice where both joins agree; with a qualifying parameter it is
    not a chain."""
    u = _l3()
    b = u.of_names("b")
    generators = list(all_subsets(u))
    result = sublattice_report(b, generators)
    return Report(
        command="demo thm-3.1",
        verdict=result.ok and result.non_chain_witness is not None,
        data=sublattice_payload(b, len(generators), result),
    )


def demo_thm_3_3() -> Report:
    """The relative complement formula recovers the unique complement."""
    u = _l3()
    b = u.of_names("b")
    lower = Cxy(u.of_names("a"), b)
    upper = Cxy(u.of_names("a", "c"), b)
    result = relative_complement(lower, upper)
    expected = Cxy(u.of_names("c"), b)
    matches = equivalent(result.candidate, expected)
    return Report(
        command="demo thm-3.3",
        verdict=matches and result.lattice_ok and result.report.all_pass,
        data={
            "lower": render_operator(lower),
            "upper": render_operator(upper),
            "candidate-equals": render_operator(expected),
            "candidate-is-consequence": result.report.all_pass,
            "lattice-check": result.lattice_ok,
        },
    )


def _below(ta: tuple[int, ...], tb: tuple[int, ...]) -> bool:
    """a ≤ b on closure tables: no image of a leaves the image of b."""
    return not any(p & ~q for p, q in zip(ta, tb))


def _absorbs(ta: tuple[int, ...], tb: tuple[int, ...]) -> bool:
    """b∘a = b on closure tables."""
    return tuple(tb[v] for v in ta) == tb


def demo_thm_3_5() -> Report:
    """Order and composition characterise each other across every pair of
    operators on three symbols."""
    tables = [system.table for system in enumerate_operators(3)]
    discrepancies = sum(_below(ta, tb) != _absorbs(ta, tb) for ta in tables for tb in tables)
    return Report(
        command="demo thm-3.5",
        verdict=discrepancies == 0,
        data={"operators": len(tables), "pairs": len(tables) ** 2, "discrepancies": discrepancies},
    )


def demo_lemma_2_6() -> Report:
    """Every axiomatic operator sends some co-singleton to the whole
    universe; scanned over all axiomatic operators on three symbols."""
    u = _l3()
    failures = 0
    checked = 0
    for system in enumerate_operators(3):
        op = FromSystem(system)
        if evaluate(op, u.empty()).is_empty():
            continue
        checked += 1
        try:
            lemma26_witness(op)
        except (ValueError, RuntimeError):
            failures += 1
    example = SExample(u.of_names("a"), u.index_of("b"))
    witness = lemma26_witness(example)
    return Report(
        command="demo lemma-2.6",
        verdict=failures == 0,
        data={
            "axiomatic-operators": checked,
            "failures": failures,
            "example-operator": render_operator(example),
            "example-witness": u.name_of(witness),
        },
    )


def demo_remark_2_2() -> Report:
    """On a finite carrier, monotonicity and finitarity stand or fall
    together for extensive idempotent tables (exhaustive on three symbols),
    and the monotone ones are as many as the closure systems."""
    tables = agreements = monotone = 0
    for t in _extensive_idempotent_tables(3):
        _, second, third = axiom_witnesses(t)
        tables += 1
        agreements += (second is None) == (third is None)
        monotone += second is None
    systems = len(tuple(enumerate_operators(3)))
    return Report(
        command="demo remark-2.2",
        verdict=agreements == tables and monotone == systems,
        data={"tables": tables, "verdicts-agree": agreements, "monotone": monotone, "closure-systems": systems},
    )


def _union_escapes(t: tuple[int, ...], s: int, u: int) -> bool:
    """Whether C(s) ∪ C(u) ⊄ C(s ∪ u) for the table t of C."""
    return (t[s] | t[u]) & ~t[s | u] != 0


def demo_thm_4_3_lemma() -> Report:
    """The union of images never escapes the image of the union, for every
    operator on three symbols and every pair of subsets."""
    tables = [system.table for system in enumerate_operators(3)]
    masks = range(1 << 3)
    violations = sum(_union_escapes(t, s, u) for t in tables for s in masks for u in masks)
    return Report(
        command="demo thm-4.3-lemma",
        verdict=violations == 0,
        data={"checks": len(tables) * len(masks) ** 2, "violations": violations},
    )


DEMOS: dict[str, tuple[str, Callable[[], Report]]] = {
    "example-2.8": ("naive join of closure operators loses idempotence", demo_example_2_8),
    "example-3.2": ("a strictly descending operator chain on the infinite universe", demo_example_3_2),
    "example-3.4": ("composition of closure operators loses idempotence", demo_example_3_4),
    "thm-2.5": ("both parametric families satisfy the axioms; infinite trigger caveat", demo_thm_2_5),
    "thm-2.7": ("single-element candidates are atoms and densely cover", demo_thm_2_7),
    "thm-3.1": ("fixed-trigger families form distributive non-chain sublattices", demo_thm_3_1),
    "thm-3.3": ("the relative complement formula and its uniqueness", demo_thm_3_3),
    "thm-3.5": ("comparability is equivalent to a composition identity", demo_thm_3_5),
    "lemma-2.6": ("axiomatic operators blow up some co-singleton", demo_lemma_2_6),
    "remark-2.2": ("monotone and finitary verdicts agree on finite tables", demo_remark_2_2),
    "thm-4.3-lemma": ("unions of images stay inside images of unions", demo_thm_4_3_lemma),
}


def run_demo(name: str) -> Report:
    if name not in DEMOS:
        raise KeyError(f"unknown demo {name!r}; known: {', '.join(sorted(DEMOS))}")
    return DEMOS[name][1]()
