"""Exact verdicts on the naturals through the finite quotient of expressions.

``check_axioms`` decides idempotence and finitarity of a composite on ℕ on
its merged model (``operators._Quotient``), ``le`` and ``equivalent`` decide
the order at an atomic left operand's minimal arguments or on the joint
model of both operands, and the weak join settles on ℕ.  Seeded
differentials, ``wjoin`` included, hold them to references that share none
of that code:

- every lifted witness fails (i) or (iii) when re-evaluated on ℕ;
- every failure that the bounded family of ``oracles`` finds is a quotient
  failure;
- the merged model agrees with perfbench's unmerged model of K + 2 points,
  K one past the largest listed element, whose tail is two points;
- ``wjoin … --at S`` on ℕ equals the unmerged model's weak join, lifted;
- on 20,000 small and 2,000 large atom pairs ``le`` gives the verdict and
  the witness of the closed-form case analysis of ``oracles``;
- an atomic left operand gives the joint model's least failing mask;
- on 3,000 pairs of composites ``le`` and ``equivalent`` agree with the
  unmerged model, and each lifted witness fails on ℕ;
- every lane of the model is a set, and each witness is the least failing
  set in the set order on ℕ, so padding an operand with the identity leaf
  ``cxy {} {e}`` changes none;
- (iii) agrees with the closed form on 5,000 atoms and with a brute force
  over cofinite sets on 1,000 composites.
"""

import json
import os
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest
from cli_runner import invoke

from tarski_lab import algebra, classify, operators
from tarski_lab.algebra import Comparison, equivalent, le
from tarski_lab.classify import Verdict, check_axioms
from tarski_lab.operators import (
    Compose,
    CPrime,
    Cxy,
    Identity,
    Meet,
    NaiveJoin,
    Top,
    WeakJoin,
    _closed_form,
    _Quotient,
    evaluate,
)
from tarski_lab.parsing import SpecContext, parse_operator, render_operator
from tarski_lab.sets import Mode, make_universe

from oracles import bounded_family, closed_form_le

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402

NAT = make_universe(Mode.COFINITE)
COUNT = 3000
ATOM_PAIRS = 20000
SRC = Path(__file__).resolve().parents[1] / "src"
# Not idempotent at co{1,2,3}; the bounded family passes it.
EXAMPLE = "join(comp(cxy {1,3} {0,2,3}, I), join(cxy {3} {0,3}, cprime {0,2,3} co{2,3}))"


def random_set(rng, elements=6):
    members = rng.sample(range(elements), rng.randint(0, 3))
    return NAT.cosubset(members) if rng.random() < 0.3 else NAT.subset(members)


def random_expression(rng, depth, elements=6):
    """An expression of exactly this depth over leaves with parameters in
    0..elements - 1."""
    if depth == 0:
        kind = rng.randrange(6)
        if kind < 2:
            return (Identity, Top)[kind](NAT)
        return (Cxy if kind < 4 else CPrime)(random_set(rng, elements), random_set(rng, elements))
    children = [random_expression(rng, depth - 1, elements), random_expression(rng, rng.randrange(depth), elements)]
    rng.shuffle(children)
    return rng.choice([Meet, NaiveJoin, Compose, WeakJoin])(*children)


@pytest.fixture(scope="module")
def sample():
    """3,000 seeded expressions of depth 1 to 3 and their reports."""
    rng = random.Random(1)
    ops = [random_expression(rng, rng.randint(1, 3)) for _ in range(COUNT)]
    return [(op, check_axioms(op)) for op in ops]


# -- perfbench's unmerged model ------------------------------------------------


def leaf_sets(op):
    if isinstance(op, (Cxy, CPrime)):
        return [op.x, op.y]
    if isinstance(op, Compose):
        return leaf_sets(op.outer) + leaf_sets(op.inner)
    if isinstance(op, (Meet, NaiveJoin, WeakJoin)):
        return leaf_sets(op.left) + leaf_sets(op.right)
    return []


def pair(s):
    """A set on ℕ as perfbench's (finite, members)."""
    return s.is_finite(), s.members


def as_oracle(op, model):
    """``op`` as a perfbench expression on the unmerged model's masks."""
    if isinstance(op, Identity):
        return ("I",)
    if isinstance(op, Top):
        return ("cprime", model.full, 0)
    if isinstance(op, (Cxy, CPrime)):
        head = "cxy" if isinstance(op, Cxy) else "cprime"
        return (head, model.mask(pair(op.x)), model.mask(pair(op.y)))
    if isinstance(op, Compose):
        return ("comp", as_oracle(op.outer, model), as_oracle(op.inner, model))
    head = {Meet: "meet", NaiveJoin: "join", WeakJoin: "wjoin"}[type(op)]
    return (head, as_oracle(op.left, model), as_oracle(op.right, model))


def unmerged(op, *extra):
    """The unmerged model of ``op`` (and of the sets ``extra``) and its table there."""
    model = oracle.CofiniteModel(*(pair(s) for s in leaf_sets(op) + list(extra)))
    return model, oracle.table(as_oracle(op, model), model.k + 2)


def lift_unmerged(mask, model):
    """A set on ℕ in the states of ``mask``: a partial tail holds K."""
    k = model.k
    head = [i for i in range(k) if mask >> i & 1]
    if mask >> k == 3:
        return NAT.cosubset([i for i in range(k) if not mask >> i & 1])
    return NAT.subset(head + [k] * (mask >> k))


def finite_union(op, x):
    """The union of op(A) over the finite A ⊆ x.  Every expression is
    monotone and, past the listed elements, reads only whether the argument
    meets the tail or holds it, so for a cofinite x it is op of x cut two past
    every listed and excluded element, with x itself."""
    if x.is_finite():
        return evaluate(op, x)
    bound = max([e for s in leaf_sets(op) for e in s.members] + list(x.members), default=0) + 2
    return evaluate(op, x.intersect(NAT.subset(range(bound + 1)))).union(x)


def idempotence_failure(t, k):
    """The least mask that stands for a set and fails (i) on the table t."""
    stands = (m for m in range(len(t)) if m >> k != 2)
    return next((m for m in stands if m & ~t[m] or t[t[m]] != t[m]), None)


# -- the four differentials ------------------------------------------------------


def test_every_lifted_witness_fails_on_the_naturals(sample):
    failures = lost = 0
    for op, report in sample:
        assert report.mode_note == "quotient"
        assert report.axiom_ii == Verdict(True)
        assert report.axiomless == evaluate(op, NAT.empty()).is_empty()
        if not report.axiom_i.passed:
            (s,) = report.axiom_i.witness
            image = evaluate(op, s)
            assert s.is_subset(image) and evaluate(op, image) != image, op
            failures += 1
        if not report.axiom_iii.passed:
            x, element = report.axiom_iii.witness
            assert element in evaluate(op, x) and element not in finite_union(op, x), op
            lost += 1
    assert failures > 100  # the seeds reach idempotence failures
    assert lost > 50  # and finitarity failures


def test_every_bounded_failure_is_a_quotient_failure(sample):
    # The horizon cycles through 1..10; images are kept per expression, as
    # the family's sets share many.
    families = [bounded_family(NAT, cap) for cap in range(1, 11)]
    found = 0
    for i, (op, report) in enumerate(sample):
        memo = {}

        def image(s):
            if s not in memo:
                memo[s] = evaluate(op, s)
            return memo[s]

        if any(image(image(s)) != image(s) for s in families[i % 10]):
            assert not report.axiom_i.passed, op
            found += 1
    assert found > 100


def test_the_merged_model_agrees_with_the_unmerged_one(sample):
    for op, report in sample:
        model, t = unmerged(op)
        failing = idempotence_failure(t, model.k)
        assert report.axiom_i.passed == (failing is None), op
        assert report.axiomless == (t[0] == 0), op
        if failing is not None:
            s = lift_unmerged(failing, model)
            assert evaluate(op, evaluate(op, s)) != evaluate(op, s), op
            (witness,) = report.axiom_i.witness
            model, t = unmerged(op, witness)
            at = model.mask(pair(witness))
            assert t[t[at]] != t[at], op


def test_weak_join_at_a_set_equals_the_unmerged_model():
    rng = random.Random(2)
    for i in range(COUNT):
        joined = WeakJoin(random_expression(rng, rng.randint(0, 2)), random_expression(rng, rng.randint(0, 2)))
        probe = random_set(rng)
        value = evaluate(joined, probe)
        model, t = unmerged(joined, probe)
        assert value == lift_unmerged(t[model.mask(pair(probe))], model), (joined, probe)
        if i % 30 == 0:
            left, right = render_operator(joined.left), render_operator(joined.right)
            args = ["wjoin", "--universe", "cofinite", left, right, "--at", probe.literal(), "--json"]
            result = invoke(args)
            assert result.exit_code == 0, result.output
            assert json.loads(result.output)["data"]["value"] == value.literal()


# -- the model itself ------------------------------------------------------------


def test_the_example_fails_conclusively_at_co123():
    op = parse_operator(EXAMPLE, SpecContext(NAT))
    assert check_axioms(op).axiom_i == Verdict(False, witness=(NAT.cosubset([1, 2, 3]),))
    result = invoke(["check", "--universe", "cofinite", EXAMPLE, "--json"])
    assert result.exit_code == 1
    axiom_i = json.loads(result.output)["data"]["axiom-report"]["axiom-i"]
    assert axiom_i == {"conclusive": True, "passed": False, "witness": {"set": "co{1,2,3}"}}


def points(model, s):
    """The model's mask of a set on ℕ: the points that lie in it."""
    return sum(1 << i for i, p in enumerate(model.points) if p in s)


def test_every_lane_is_a_set(sample):
    lanes = 0
    for op, _ in sample[:150]:
        model = _Quotient(op)
        (t,) = model.tables()
        for m in range(len(t)):
            s = model.lift(m)
            image = evaluate(op, s)
            assert points(model, s) == m, (op, m)
            assert t[m] == points(model, image) and model.lift(t[m]) == image, (op, m)
        lanes += len(t)
    assert lanes > 10000


def test_the_witness_is_the_least_failing_mask(sample):
    # Every mask below the witness's points lifts to a set on which the
    # operator is idempotent.
    failing = [(op, report.axiom_i.witness[0]) for op, report in sample if not report.axiom_i.passed]
    for op, witness in failing[:30]:
        model = _Quotient(op)
        assert model.lift(points(model, witness)) == witness, op
        for m in range(points(model, witness)):
            image = evaluate(op, model.lift(m))
            assert evaluate(op, image) == image, (op, m)


def test_an_over_bound_model_is_refused_before_anything_is_built(monkeypatch):
    # 24 one-element classes and the tail: 26 points, past MAX_SWEEP_SIZE = 24.
    text = "cxy {0} {0}"
    for i in range(1, 24):
        text = f"join({text}, cxy {{{i}}} {{{i}}})"

    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(operators, "table", refuse)
    monkeypatch.setattr(operators, "_table", refuse)
    monkeypatch.setattr(classify, "table", refuse)
    result = invoke(["check", "--universe", "cofinite", text, "--json"])
    assert result.exit_code == 2
    assert "has 26 points; exact checks stop at 24" in result.output.splitlines()[-1]


def test_the_tail_sorts_among_the_listed_classes():
    model = _Quotient(NaiveJoin(Cxy(NAT.subset([0, 2]), NAT.cosubset([0, 2])), CPrime(NAT.subset([5]), NAT.subset([0, 2]))))
    # 0 and 2 share every parameter: one class, two points; the tail starts
    # at 1 and its second point, 3, ranks last; then 5.
    assert model.points == [0, 1, 2, 5, 3]
    assert model.lift(0b10011) == NAT.cosubset([2, 5])
    assert model.lift(0b10111) == NAT.cosubset([5])
    assert model.lift(0b00110) == NAT.subset([1, 2])


def test_linear_class_grouping_takes_a_hundred_thousand_listed_elements():
    # The classes are refined by set operations per parameter; a membership
    # scan per listed element would take minutes here.
    code = (
        "from tarski_lab.classify import check_axioms\n"
        "from tarski_lab.operators import Cxy, Identity, Meet\n"
        "from tarski_lab.sets import Mode, make_universe\n"
        "nat = make_universe(Mode.COFINITE)\n"
        "op = Meet(Cxy(nat.cosubset(range(1, 100_001)), nat.subset([0])), Identity(nat))\n"
        "print(check_axioms(op).axiom_i.passed)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=10,
        check=True,
    )
    assert result.stdout.split() == ["True"]


# -- the order on the naturals ------------------------------------------------------


def random_atom(rng):
    """I, U, or cxy/cprime over finite and cofinite sets of elements 0..6."""
    kind = rng.randrange(6)
    if kind < 2:
        return (Identity, Top)[kind](NAT)

    def parameter():
        members = rng.sample(range(7), rng.randint(0, 4))
        return NAT.cosubset(members) if rng.random() < 0.5 else NAT.subset(members)

    return (Cxy if kind < 4 else CPrime)(parameter(), parameter())


def test_atom_order_matches_the_closed_form_reference():
    rng = random.Random(3)
    failures = 0
    for _ in range(ATOM_PAIRS):
        a, b = random_atom(rng), random_atom(rng)
        holds, witness = closed_form_le(_closed_form(a), _closed_form(b))
        assert le(a, b) == Comparison(holds, witness), (a, b)
        failures += not holds
    assert 1000 < failures < ATOM_PAIRS - 1000


def test_large_atom_pairs_match_the_closed_form_reference():
    # Literals over 0..59 give joint models far past 24 points; an atomic left
    # operand is read at its minimal arguments, so no model is refused.
    rng = random.Random(5)

    def parameter():
        members = rng.sample(range(60), rng.randint(0, 30))
        return NAT.cosubset(members) if rng.random() < 0.5 else NAT.subset(members)

    failures = 0
    for i in range(2000):
        a, b = ((Cxy if rng.random() < 0.5 else CPrime)(parameter(), parameter()) for _ in "ab")
        if i % 3 == 0:
            # Same shape and trigger, more added: a ≤ b, and often not b ≤ a.
            b = type(a)(a.x.union(parameter()), a.y)
        holds, witness = closed_form_le(_closed_form(a), _closed_form(b))
        assert le(a, b) == Comparison(holds, witness), (a, b)
        assert equivalent(a, b) == (holds and closed_form_le(_closed_form(b), _closed_form(a))[0])
        failures += not holds
    assert 200 < failures < 1800


def test_an_atom_pair_of_twenty_six_points_is_answered():
    # Twelve two-element classes and the tail: the joint model has 26 points.
    x1, y1 = "{2,3,6,7,10,11,14,15,18,19,22,23}", "{4,5,6,7,12,13,14,15,20,21,22,23}"
    x2, y2 = "{8,9,10,11,12,13,14,15,24,25}", "{16,17,18,19,20,21,22,23,24,25}"
    model = _Quotient(parse_operator(f"cxy {x1} {y1}", SpecContext(NAT)), parse_operator(f"cxy {x2} {y2}", SpecContext(NAT)))
    assert len(model.points) == 26
    with pytest.raises(ValueError, match="has 26 points"):
        model.tables()
    result = invoke(["order", "--universe", "cofinite", f"cxy {x1} {y1}", f"cxy {x2} {y2}", "--json"])
    assert result.exit_code == 1
    assert json.loads(result.output)["data"]["witness"] == "{4}"
    result = invoke(["chain", "--universe", "cofinite", f"cxy {x1} {y1}", f"cxy {x2} {y2}", "--json"])
    assert result.exit_code == 1


def test_an_atom_and_a_composite_of_twenty_six_points(monkeypatch):
    # The composite joins cxy {i} {i} for i = 0..23, the identity on ℕ; with
    # the tail, its joint model with either atom below has 26 points.
    composite = reduce(NaiveJoin, (Cxy(NAT.subset([i]), NAT.subset([i])) for i in range(24)))
    fails, holds = Cxy(NAT.subset([1]), NAT.subset([0])), Cxy(NAT.empty(), NAT.subset([0]))
    assert len(_Quotient(fails, composite).points) == len(_Quotient(holds, composite).points) == 26

    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(operators, "table", refuse)
    monkeypatch.setattr(operators, "_table", refuse)
    monkeypatch.setattr(algebra, "table", refuse)
    # cxy {1} {0} ≰ I at {0}, read at the atom's least elements alone.
    assert equivalent(fails, composite) is False
    # cxy {} {0} ≤ I, so the composite's direction reads the model's tables.
    with pytest.raises(ValueError, match="has 26 points; exact checks stop at 24"):
        equivalent(holds, composite)


@pytest.fixture(scope="module")
def pairs():
    """3,000 seeded operand pairs, atoms and composites, and the unmerged
    model's tables of both.  Every third right operand is the meet or the
    naive join of the left one with another expression, so that many pairs
    are equivalent."""
    rng = random.Random(4)
    out = []
    for i in range(COUNT):
        a = random_expression(rng, rng.randint(0, 2))
        other = random_expression(rng, rng.randint(0, 1))
        if i % 3 == 0:
            b = rng.choice([Meet, NaiveJoin])(a, other)
        else:
            b = other
        model = oracle.CofiniteModel(*(pair(s) for s in leaf_sets(a) + leaf_sets(b)))
        tables = [oracle.table(as_oracle(op, model), model.k + 2) for op in (a, b)]
        out.append((a, b, *tables))
    return out


def test_composite_order_agrees_with_the_unmerged_model(pairs):
    holds = 0
    for a, b, ta, tb in pairs:
        result = le(a, b)
        assert result.holds == (oracle.le_witness(ta, tb) is None), (a, b)
        if result.holds:
            holds += 1
        else:
            w = result.witness
            assert not evaluate(a, w).is_subset(evaluate(b, w)), (a, b)
    assert 500 < holds < COUNT - 500


def test_composite_equivalence_is_table_equality_on_the_unmerged_model(pairs):
    same = 0
    for a, b, ta, tb in pairs:
        assert equivalent(a, b) == (ta == tb), (a, b)
        same += ta == tb
    assert 100 < same < COUNT - 100


def test_the_order_witness_is_the_least_failing_mask(pairs):
    # Every mask of the joint model below the witness's points lifts to a set
    # at which the left operand lies below the right one.
    failing = [(a, b) for a, b, ta, tb in pairs if oracle.le_witness(ta, tb) is not None]
    for a, b in failing[:30]:
        model = _Quotient(a, b)
        witness = le(a, b).witness
        assert model.lift(points(model, witness)) == witness, (a, b)
        for m in range(points(model, witness)):
            s = model.lift(m)
            assert evaluate(a, s).is_subset(evaluate(b, s)), (a, b, m)


def test_an_atomic_left_operand_gives_the_joint_models_witness(pairs):
    # The minimal arguments of an atom name the joint model's least failing
    # mask, whatever the right operand is.
    atomic = 0
    for a, b, _, _ in pairs:
        for left, right, i in ((a, b, 0), (b, a, 1)):
            if _closed_form(left) is None:
                continue
            model = _Quotient(a, b)
            tables = model.tables()
            t, u = tables[i], tables[1 - i]
            m = next((m for m in range(len(t)) if t[m] & ~u[m]), None)
            expected = Comparison(True) if m is None else Comparison(False, model.lift(m))
            assert le(left, right) == expected, (left, right)
            atomic += 1
    assert atomic > 1000


def test_order_and_chain_through_the_cli(pairs):
    args = ["order", "--universe", "cofinite", "join(cxy {0} {1}, cprime {2} {3})", "cxy {0} {1}", "--json"]
    result = invoke(args)
    assert result.exit_code == 1
    data = json.loads(result.output)["data"]
    assert (data["witness"], data["left-value"], data["right-value"]) == ("{3}", "{2,3}", "{3}")
    args = ["chain", "--universe", "cofinite", "wjoin(cxy {0} {1}, cxy {1} {0})", "cxy {0,1} {0,1}", "--json"]
    assert invoke(args).exit_code == 0
    for a, b, ta, tb in pairs[::100]:
        left, right = render_operator(a), render_operator(b)
        result = invoke(["order", "--universe", "cofinite", left, right, "--json"])
        comparison = le(a, b)
        assert result.exit_code == (0 if comparison.holds else 1), result.output
        if not comparison.holds:
            assert json.loads(result.output)["data"]["witness"] == comparison.witness.literal()
        result = invoke(["chain", "--universe", "cofinite", left, right, "--json"])
        comparable = comparison.holds or le(b, a).holds
        assert result.exit_code == (0 if comparable else 1), result.output


def test_an_over_bound_joint_model_is_refused_before_anything_is_built(monkeypatch):
    # Twelve one-element classes per operand and the tail: 26 points.
    def joined(indices):
        text = f"cxy {{{indices[0]}}} {{{indices[0]}}}"
        for i in indices[1:]:
            text = f"join({text}, cxy {{{i}}} {{{i}}})"
        return text

    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(operators, "table", refuse)
    monkeypatch.setattr(operators, "_table", refuse)
    monkeypatch.setattr(algebra, "table", refuse)
    args = ["order", "--universe", "cofinite", joined(range(12)), joined(range(12, 24)), "--json"]
    result = invoke(args)
    assert result.exit_code == 2
    assert "has 26 points; exact checks stop at 24" in result.output.splitlines()[-1]


# -- one witness order, whatever the model -------------------------------------------
#
# S < T when the greatest element of S △ T lies in T, and every finite set lies
# below every cofinite one.  The least witness is the least failing set in this
# order, so padding an operand with the identity leaf cxy {} {e}, which lists e
# and so splits a class or the tail, leaves it unchanged.

REPRO = ("join(cprime {2,5,6} {2,3,7}, cprime {0,1,3,7} {6})", "comp(cprime {2,5,6} {0,4,5,6}, cxy co{2,5} {1,4})")


def pad(op, e):
    return NaiveJoin(op, Cxy(NAT.empty(), NAT.subset([e])))


def in_set_order(elements):
    """Every finite subset of ``elements`` and then every cofinite set that
    excludes only some of them, ascending in the set order."""
    subsets = [[e for i, e in enumerate(elements) if m >> i & 1] for m in range(1 << len(elements))]
    return [NAT.subset(s) for s in subsets] + [NAT.cosubset(s) for s in reversed(subsets)]


def listed(*ops):
    return {e for op in ops for s in leaf_sets(op) for e in s.members}


def test_padding_changes_no_order_witness(pairs):
    rng = random.Random(7)
    failing = 0
    for a, b, _, _ in pairs:
        result = le(a, b)
        padded = pad(a, rng.randrange(8))
        assert le(padded, b) == result, (a, b)
        failing += not result.holds
    assert failing > 1000


def test_padding_changes_no_idempotence_witness(sample):
    rng = random.Random(7)
    for op, report in sample:
        assert check_axioms(pad(op, rng.randrange(8))).axiom_i == report.axiom_i, op


def test_the_order_witness_is_the_least_failing_set(pairs):
    # Past the greatest listed element the two least unlisted ones stand for
    # every other, so the least failing set lies among the subsets and
    # co-subsets of 0..max listed + 2.
    failing = [(a, b) for a, b, ta, tb in pairs if oracle.le_witness(ta, tb) is not None][:150]
    assert len(failing) == 150
    for a, b in failing:
        sets = in_set_order(range(max(listed(a, b), default=0) + 3))
        least = next(s for s in sets if not evaluate(a, s).is_subset(evaluate(b, s)))
        assert le(a, b) == Comparison(False, least), (a, b)


def test_padding_by_the_identity_keeps_the_repro_witness():
    left, right = REPRO
    for operand in (left, f"join({left}, cxy {{}} {{3}})"):
        result = invoke(["order", "--universe", "cofinite", operand, right, "--json"])
        assert result.exit_code == 1, result.output
        assert json.loads(result.output)["data"]["witness"] == "{6}"


# -- finitarity on the naturals ----------------------------------------------------------


def test_finitarity_of_an_atom_on_its_model_is_its_closed_form():
    # meet(a, a) is a, read on its finite model rather than by its shape.
    rng = random.Random(8)
    lost = 0
    for _ in range(5000):
        atom = random_atom(rng)
        closed_form = check_axioms(atom).axiom_iii
        assert check_axioms(Meet(atom, atom)).axiom_iii == closed_form, atom
        lost += not closed_form.passed
    assert lost > 200


def test_finitarity_of_composites_is_the_least_failing_cofinite_set():
    # A finite set is among its own finite parts, so only the cofinite sets
    # are tried; one that omits an unlisted element, which 0..max listed + 1
    # holds, holds the tail only in part, as its finite parts do.
    rng = random.Random(9)
    lost = 0
    for _ in range(1000):
        op = random_expression(rng, rng.randint(1, 2), elements=4)
        verdict = Verdict(True)
        sets = in_set_order(range(max(listed(op), default=0) + 2))
        for x in sets[len(sets) // 2 :]:
            # The finite parts' union holds x, so only what C adds to x can be missing.
            added = evaluate(op, x).difference(x)
            missing = added if added.is_empty() else added.difference(finite_union(op, x))
            if not missing.is_empty():
                verdict = Verdict(False, witness=(x, missing.least()))
                break
        assert check_axioms(op).axiom_iii == verdict, op
        lost += not verdict.passed
    assert lost > 20


def test_a_self_meet_loses_finitarity_at_co0_through_the_cli():
    args = ["check", "--universe", "cofinite", "meet(cprime {0} co{0}, cprime {0} co{0})", "--json"]
    result = invoke(args)
    assert result.exit_code == 0, result.output
    axiom_iii = json.loads(result.output)["data"]["axiom-report"]["axiom-iii"]
    assert axiom_iii == {"conclusive": True, "passed": False, "witness": {"element": 0, "set": "co{0}"}}
