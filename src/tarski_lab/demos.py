"""Named demonstrations with deterministic, golden-testable reports.

Each demo replays one of the standard facts about the operator algebra on
a small concrete instance and reports the exact values it computed.  A
demo that demonstrates an expected failure (a map that is not a closure
operator) still succeeds as a demo: the verdict says "demonstrated".

The replays over every closure system on three symbols read each system's
packed lanes (``ClosureSystem.lanes``) and join them, so no table is packed
twice: thm-3.5 decides all 3,721 order/composition pairs in one matrix pass
(``classify._order_flags``), thm-4.3-lemma gathers its three index strings
through all 61 lookups and tests them in one whole-int operation,
lemma-2.6 counts the flags of ``dense_cover_check``'s one co-singleton
scan (``classify._uncovered``), and thm-2.7 reads the lanes too.  thm-2.5
packs both parametric families straight from the parameter masks
(``_parametric_lanes``), with no table tuple built.  Every run recomputes
its verdict; only the shared systems and the slot constants outlive a run.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Callable

from .sets import Mode, make_universe
from .operators import (
    Compose,
    CPrime,
    Cxy,
    NaiveJoin,
    SExample,
    _byte_lane_steps,
    evaluate,
)
from .algebra import (
    descending_chain,
    equivalent,
    le,
    relative_complement,
    sublattice_report,
)
from .classify import (
    _axiom_flags,
    _extensive_idempotent_tables,
    _lanes,
    _lookup,
    _monotone_finitary_flags,
    _order_flags,
    _slots,
    _uncovered,
    check_axioms,
    default_universe,
    dense_cover_check,
    e0_family,
    enumerate_operators,
    is_atom,
    lemma26_witness,
)
from .parsing import render_operator
from .report import Report, axiom_report_payload, sublattice_payload


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
    u = default_universe(3)
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
    n = 3
    pairs = 1 << 2 * n
    first, second, third = _axiom_flags(_parametric_lanes(n, False) + _parametric_lanes(n, True), n)
    failed = first | second | third
    # The first family fills the first `pairs` slots, the second the rest.
    first_family = _slots(n, pairs).starts
    cxy_pass = pairs - (failed & first_family).bit_count()
    cprime_pass = pairs - (failed & ~first_family).bit_count()
    infinite = make_universe(Mode.COFINITE)
    caveat = check_axioms(CPrime(infinite.subset([0]), infinite.cosubset([0])))
    return Report(
        command="demo thm-2.5",
        verdict=cxy_pass == cprime_pass == pairs and not caveat.axiom_iii.passed,
        data={
            "pairs": pairs,
            "first-family-pass": cxy_pass,
            "second-family-pass": cprime_pass,
            "infinite-trigger-caveat": axiom_report_payload(caveat),
        },
    )


def _parametric_lanes(n: int, contains: bool) -> bytes:
    """The tables of ``Cxy`` (with ``contains``, of ``CPrime``) on n ≤ 8
    symbols for every parameter pair (x, y), x-major, packed end to end one
    byte per image, built from the masks alone: I | (X & S_Y), where X holds x
    in every lane and lane m of S_Y is L when m meets Y (contains Y) and 0
    otherwise.  S_Y is the OR (the AND) of the bit selectors of the symbols
    in Y, the selectors ``operators._byte_lane_steps`` keeps."""
    size, pairs = 1 << n, 1 << 2 * n
    every = int.from_bytes(bytes([size - 1]) * size, "little")  # L in every lane
    bits = [selector for selector, _ in _byte_lane_steps(n)]
    combine, start = (and_, every) if contains else (or_, 0)
    per_y = b"".join(
        reduce(combine, [bits[b] for b in range(n) if y >> b & 1], start).to_bytes(size, "little")
        for y in range(size)
    )
    xs = int.from_bytes(b"".join(bytes([x]) * pairs for x in range(size)), "little")
    identity = int.from_bytes(bytes(range(size)) * pairs, "little")
    return (identity | xs & int.from_bytes(per_y * size, "little")).to_bytes(pairs * size, "little")


def demo_thm_2_7() -> Report:
    """Every single-element closure candidate is an atom, and every
    axiomatic operator dominates one of them (three symbols)."""
    u = default_universe(3)
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
    u = default_universe(3)
    b = u.of_names("b")
    generators = [u.from_mask(m) for m in range(1 << u.size)]
    result = sublattice_report(b, generators)
    return Report(
        command="demo thm-3.1",
        verdict=result.ok and result.non_chain_witness is not None,
        data=sublattice_payload(b, len(generators), result),
    )


def demo_thm_3_3() -> Report:
    """The relative complement formula recovers the unique complement."""
    u = default_universe(3)
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


def demo_thm_3_5() -> Report:
    """Order and composition characterise each other across every pair of
    operators on three symbols."""
    lanes = [system.lanes for system in enumerate_operators(3)]
    # Where a ≤ b holds exactly when b∘a = b does, the two failure flags agree.
    outside, moved, _ = _order_flags(lanes, lanes)
    discrepancies = (outside ^ moved).bit_count()
    return Report(
        command="demo thm-3.5",
        verdict=discrepancies == 0,
        data={"operators": len(lanes), "pairs": len(lanes) ** 2, "discrepancies": discrepancies},
    )


def demo_lemma_2_6() -> Report:
    """Every axiomatic operator sends some co-singleton to the whole
    universe; scanned over all axiomatic operators on three symbols."""
    u = default_universe(3)
    axiomatic, failing, _ = _uncovered(list(enumerate_operators(3)))
    failures = failing.bit_count()
    example = SExample(u.of_names("a"), u.index_of("b"))
    witness = lemma26_witness(example)
    return Report(
        command="demo lemma-2.6",
        verdict=failures == 0,
        data={
            "axiomatic-operators": axiomatic.bit_count(),
            "failures": failures,
            "example-operator": render_operator(example),
            "example-witness": u.name_of(witness),
        },
    )


def demo_remark_2_2() -> Report:
    """On a finite carrier, monotonicity and finitarity stand or fall
    together for extensive idempotent tables (exhaustive on three symbols),
    and the monotone ones are as many as the closure systems."""
    # Each table is idempotent by construction, so only (ii) and (iii) are checked.
    found = _extensive_idempotent_tables(3)
    second, third = _monotone_finitary_flags(_lanes(found, 1, 8), 3)
    tables = len(found)
    agreements = tables - (second ^ third).bit_count()
    monotone = tables - second.bit_count()
    systems = len(tuple(enumerate_operators(3)))
    return Report(
        command="demo remark-2.2",
        verdict=agreements == tables and monotone == systems,
        data={"tables": tables, "verdicts-agree": agreements, "monotone": monotone, "closure-systems": systems},
    )


def _union_pairs(n: int) -> tuple[bytes, bytes, bytes]:
    """Every pair (s, u) of subsets of n ≤ 8 symbols as three index strings:
    the masks s, the masks u and the masks s ∪ u, one byte per pair."""
    masks = range(1 << n)
    pairs = [(s, u, s | u) for s in masks for u in masks]
    return tuple(bytes(column) for column in zip(*pairs))


def _union_escapes(lookups: list[bytes], pairs: tuple[bytes, bytes, bytes]) -> int:
    """How many of the ``_union_pairs`` have C(s) ∪ C(u) ⊄ C(s ∪ u), summed
    over the tables C whose ``classify._lookup`` are ``lookups``.  Each index
    string is gathered through every lookup, one ``bytes.translate`` each,
    and joined, so one whole-int test covers every table."""
    left, right, union = (
        int.from_bytes(b"".join([p.translate(lookup) for lookup in lookups]), "little") for p in pairs
    )
    escaped = ((left | right) & ~union).to_bytes(len(lookups) * len(pairs[0]), "little")
    return len(escaped) - escaped.count(0)


def demo_thm_4_3_lemma() -> Report:
    """The union of images never escapes the image of the union, for every
    operator on three symbols and every pair of subsets."""
    pairs = _union_pairs(3)
    lookups = [_lookup(system.lanes) for system in enumerate_operators(3)]
    violations = _union_escapes(lookups, pairs)
    return Report(
        command="demo thm-4.3-lemma",
        verdict=violations == 0,
        data={"checks": len(lookups) * len(pairs[0]), "violations": violations},
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
