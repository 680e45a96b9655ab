"""Acceptance suite: one test per criterion, each printing a PASS line.

Timing-bounded criteria clear the relevant memo caches first so the
measured run is cold.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import itertools
import json
import random
import time
from pathlib import Path

from click.testing import CliRunner

from tarski_lab.sets import Mode, make_universe
from tarski_lab.operators import (
    CPrime,
    Cxy,
    FromSystem,
    FromTable,
    Identity,
    Meet,
    NaiveJoin,
    compose,
    evaluate,
)
from tarski_lab.algebra import (
    descending_chain,
    equivalent,
    le,
    relative_complement,
    sublattice_report,
)
from tarski_lab.classify import (
    _extensive_idempotent_tables,
    _moore_family_masks,
    check_axioms,
    default_universe,
    dense_cover_check,
    e0_family,
    enumerate_operators,
    is_atom,
    lemma26_witness,
)
from tarski_lab.concurrence import is_concurrent, monotone_union_check
from tarski_lab.cli import main as cli_main
from tarski_lab.words import (
    alphabet,
    count_decompositions,
    decode,
    decompositions,
    encode,
    equivalent_seqs,
    seq_of_pieces,
    seq_of_word,
)

from oracles import all_subsets

GOLDEN = Path(__file__).parent / "golden"


def report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_axioms_exhaustive_on_l3():
    u = make_universe(Mode.FINITE, ["a", "b", "c"])
    subsets = all_subsets(u)
    started = time.perf_counter()
    failures = 0
    for x in subsets:
        for y in subsets:
            if not check_axioms(Cxy(x, y)).all_pass:
                failures += 1
            if not check_axioms(CPrime(x, y)).all_pass:
                failures += 1
    elapsed = time.perf_counter() - started
    report(
        "1 (totality of both families)",
        failures == 0 and elapsed < 1.0,
        f"128 operators, {elapsed:.3f}s",
    )


def test_criterion_02_finitarity_caveat_on_the_naturals():
    u = make_universe(Mode.COFINITE)
    caveat = check_axioms(CPrime(u.subset([0]), u.cosubset([0])))
    exact_witness = caveat.axiom_iii.witness == (u.cosubset([0]), 0)
    caveat_ok = (
        caveat.axiom_i.passed
        and caveat.axiom_ii.passed
        and not caveat.axiom_iii.passed
        and exact_witness
    )
    rng = random.Random(2024)
    sampled_ok = True
    for _ in range(50):
        y = u.subset(rng.sample(range(16), rng.randint(0, 4)))
        x = u.subset(rng.sample(range(16), rng.randint(0, 4)))
        if rng.random() < 0.3:
            x = x.complement()
        rep = check_axioms(CPrime(x, y))
        if not (rep.all_pass and rep.mode_note == "closed-form"):
            sampled_ok = False
    report(
        "2 (finitarity caveat)",
        caveat_ok and sampled_ok,
        "witness (co{0}, 0); 50 finite-trigger samples pass",
    )


def test_criterion_03_enumeration_counts():
    _moore_family_masks.cache_clear()
    started = time.perf_counter()
    counts = [sum(1 for _ in enumerate_operators(n, include_top=True)) for n in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - started
    report(
        "3 (enumeration counts)",
        counts == [2, 7, 61, 2480] and elapsed < 10.0,
        f"counts={counts}, {elapsed:.2f}s",
    )


def test_criterion_04_atoms_and_dense_cover():
    ok = True
    for n in (2, 3, 4):
        systems = list(enumerate_operators(n, include_top=True))
        members = e0_family(default_universe(n))
        if not all(is_atom(op, systems) for op in members):
            ok = False
        if not dense_cover_check(systems).holds:
            ok = False
    report("4 (atoms and dense cover at n=2,3,4)", ok)


def test_criterion_05_axiomatic_witnesses():
    failures = 0
    checked = 0
    for n in (1, 2, 3, 4):
        u = default_universe(n)
        for system in enumerate_operators(n, include_top=True):
            op = FromSystem(system)
            if evaluate(op, u.empty()).is_empty():
                continue
            checked += 1
            try:
                lemma26_witness(op)
            except (ValueError, RuntimeError):
                failures += 1
    report(
        "5 (co-singleton witnesses for axiomatic operators)",
        failures == 0,
        f"{checked} axiomatic operators",
    )


def test_criterion_06_join_and_composition_failures_match_goldens():
    runner = CliRunner()
    witnesses = {}
    goldens_match = True
    for name in ("example-2.8", "example-3.4"):
        result = runner.invoke(
            cli_main,
            ["demo", name, "--json"],
            catch_exceptions=False,
        )
        golden = (GOLDEN / f"demo-{name}.json").read_text()
        if result.exit_code != 0 or result.output != golden:
            goldens_match = False
        payload = json.loads(result.output)
        witnesses[name] = payload["data"]["demonstration-witness"]
        if payload["data"]["axiom-report"]["axiom-i"]["passed"]:
            goldens_match = False
    report(
        "6 (axiom-i failures with exact witnesses)",
        goldens_match
        and witnesses["example-2.8"] == "{}"
        and witnesses["example-3.4"] == "{a}",
        f"witnesses {witnesses}",
    )


def test_criterion_07_fixed_trigger_sublattice():
    u = make_universe(Mode.FINITE, ["a", "b", "c"])
    b = u.of_names("b")
    started = time.perf_counter()
    result = sublattice_report(b, list(all_subsets(u)))
    elapsed = time.perf_counter() - started
    witness_ok = result.non_chain_witness is not None
    if witness_ok:
        a_set, d_set, probe = result.non_chain_witness
        pair = (Cxy(a_set, b), Cxy(d_set, b))
        witness_ok = not le(pair[0], pair[1]).holds and not le(pair[1], pair[0]).holds
    report(
        "7 (fixed-trigger sublattice)",
        result.ok and witness_ok and elapsed < 1.0,
        f"8 generators, {elapsed:.3f}s",
    )


def test_criterion_08_relative_complement_and_uniqueness():
    u = make_universe(Mode.FINITE, ["a", "b", "c"])
    lower = Cxy(u.of_names("a"), u.of_names("b"))
    upper = Cxy(u.of_names("a", "c"), u.of_names("b"))
    result = relative_complement(lower, upper)
    expected = Cxy(u.of_names("c"), u.of_names("b"))
    pointwise = equivalent(result.candidate, expected)
    matches = 0
    for system in enumerate_operators(3, include_top=True):
        op = FromSystem(system)
        if equivalent(NaiveJoin(lower, op), upper) and equivalent(Meet(lower, op), Identity(u)):
            matches += 1
            unique_candidate = equivalent(op, result.candidate)
    report(
        "8 (relative complement and uniqueness)",
        pointwise and result.lattice_ok and result.report.all_pass
        and matches == 1 and unique_candidate,
        f"matches among 61 operators: {matches}",
    )


def test_criterion_09_order_equals_composition():
    ops = [FromSystem(s) for s in enumerate_operators(3, include_top=True)]
    started = time.perf_counter()
    discrepancies = 0
    for a in ops:
        for b in ops:
            if le(a, b).holds != equivalent(compose(b, a), b):
                discrepancies += 1
    elapsed = time.perf_counter() - started
    report(
        "9 (order is the composition identity)",
        discrepancies == 0 and elapsed < 5.0,
        f"{len(ops) ** 2} pairs, {elapsed:.2f}s",
    )


def test_criterion_10_descending_chain_of_100():
    u = make_universe(Mode.COFINITE)
    started = time.perf_counter()
    chain = descending_chain(u, 100)
    probe = u.subset([0, 1])
    no_identity = all(evaluate(op, probe) != probe for op in chain)
    strict = all(
        le(lower, upper).holds and not le(upper, lower).holds
        for upper, lower in zip(chain, chain[1:])
    )
    elapsed = time.perf_counter() - started
    report(
        "10 (descending chain of 100)",
        len(chain) == 100 and strict and no_identity and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_11_monotone_and_finitary_verdicts_agree():
    u = default_universe(3)
    disagreements = 0
    total = 0
    for t in _extensive_idempotent_tables(3):
        rep = check_axioms(FromTable(u, t))
        total += 1
        if rep.axiom_ii.passed != rep.axiom_iii.passed:
            disagreements += 1
    report(
        "11 (monotone = finitary on every extensive idempotent table)",
        disagreements == 0 and total == 1152,
        f"{total} tables",
    )


def test_criterion_12_word_machinery():
    abc = alphabet("abc")
    round_trip = all(
        decode(abc, encode(abc.word("".join(chars)))) == abc.word("".join(chars))
        for length in range(1, 5)
        for chars in itertools.product("abc", repeat=length)
    )
    math_alpha = alphabet("".join(sorted(set("mathematics"))))
    word = math_alpha.word("mathematics")
    counts_ok = count_decompositions(word) == 1024 and count_decompositions(word, 3) == 120
    split = seq_of_pieces([math_alpha.word(p) for p in ("math", "e", "mat", "ics")])
    split_in_stream = split in list(decompositions(word, 3))
    equiv_ok = equivalent_seqs(split, seq_of_word(word))
    report(
        "12 (word machinery)",
        round_trip and counts_ok and split_in_stream and equiv_ok,
        "round trip length<=4; 1024 and 120 splits",
    )


def test_criterion_13_monotone_union_and_concurrence():
    u = default_universe(3)
    subsets = all_subsets(u)
    union_ok = True
    for system in enumerate_operators(3, include_top=True):
        op = FromSystem(system)
        for s, t in itertools.product(subsets, repeat=2):
            if not monotone_union_check(op, [s, t]):
                union_ok = False
    chain5 = [(i, j) for i in range(5) for j in range(5) if i <= j]
    strict5 = [(i, j) for i in range(5) for j in range(5) if i < j]
    leq_result = is_concurrent(chain5, list(range(5)))
    lt_result = is_concurrent(strict5, list(range(5)))
    report(
        "13 (monotone union and concurrence)",
        union_ok and leq_result.concurrent and not lt_result.concurrent,
        f"bound={leq_result.bound}, failing={lt_result.failing_subset}",
    )
