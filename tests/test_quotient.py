"""Exact verdicts on the naturals through the finite quotient of an expression.

``check_axioms`` decides idempotence of a composite on ℕ on its merged model
(``operators._Quotient``), and the weak join settles on ℕ.  Four seeded
differentials of 3,000 expressions each, ``wjoin`` included, hold them to
references that share none of that code:

- every lifted witness fails (i) when re-evaluated on ℕ;
- every failure that the bounded family of ``oracles`` finds is a quotient
  failure;
- the merged model agrees with perfbench's unmerged model of K + 2 points,
  K one past the largest listed element, whose tail is two points;
- ``wjoin … --at S`` on ℕ equals the unmerged model's weak join, lifted.
"""

import json
import random
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from tarski_lab import classify, operators
from tarski_lab.cli import main
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
    _Quotient,
    evaluate,
)
from tarski_lab.parsing import SpecContext, parse_operator, render_operator
from tarski_lab.sets import Mode, make_universe

from oracles import bounded_family

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402

NAT = make_universe(Mode.COFINITE)
COUNT = 3000
# Not idempotent at co{1,2,3}; the bounded family passes it.
EXAMPLE = "join(comp(cxy {1,3} {0,2,3}, I), join(cxy {3} {0,3}, cprime {0,2,3} co{2,3}))"


def random_set(rng):
    members = rng.sample(range(6), rng.randint(0, 3))
    return NAT.cosubset(members) if rng.random() < 0.3 else NAT.subset(members)


def random_expression(rng, depth):
    """An expression of exactly this depth over leaves with parameters in 0..5."""
    if depth == 0:
        kind = rng.randrange(6)
        if kind < 2:
            return (Identity, Top)[kind](NAT)
        return (Cxy if kind < 4 else CPrime)(random_set(rng), random_set(rng))
    children = [random_expression(rng, depth - 1), random_expression(rng, rng.randrange(depth))]
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


def idempotence_failure(t, k):
    """The least mask that stands for a set and fails (i) on the table t."""
    stands = (m for m in range(len(t)) if m >> k != 2)
    return next((m for m in stands if m & ~t[m] or t[t[m]] != t[m]), None)


# -- the four differentials ------------------------------------------------------


def test_every_lifted_witness_fails_on_the_naturals(sample):
    failures = 0
    for op, report in sample:
        assert report.mode_note == "quotient"
        assert report.axiom_i.conclusive
        assert report.axiom_ii == Verdict(True)
        assert report.axiom_iii == Verdict(True, False)
        assert report.axiomless == evaluate(op, NAT.empty()).is_empty()
        if not report.axiom_i.passed:
            (s,) = report.axiom_i.witness
            image = evaluate(op, s)
            assert s.is_subset(image) and evaluate(op, image) != image, op
            failures += 1
    assert failures > 100  # the seeds reach idempotence failures


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
    runner = CliRunner()
    for i in range(COUNT):
        joined = WeakJoin(random_expression(rng, rng.randint(0, 2)), random_expression(rng, rng.randint(0, 2)))
        probe = random_set(rng)
        value = evaluate(joined, probe)
        model, t = unmerged(joined, probe)
        assert value == lift_unmerged(t[model.mask(pair(probe))], model), (joined, probe)
        if i % 30 == 0:
            left, right = render_operator(joined.left), render_operator(joined.right)
            args = ["wjoin", "--universe", "cofinite", left, right, "--at", probe.literal(), "--json"]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            assert json.loads(result.output)["data"]["value"] == value.literal()


# -- the model itself ------------------------------------------------------------


def test_the_example_fails_conclusively_at_co123():
    op = parse_operator(EXAMPLE, SpecContext(NAT))
    assert check_axioms(op).axiom_i == Verdict(False, witness=(NAT.cosubset([1, 2, 3]),))
    result = CliRunner().invoke(main, ["check", "--universe", "cofinite", EXAMPLE, "--json"])
    assert result.exit_code == 1
    axiom_i = json.loads(result.output)["data"]["axiom-report"]["axiom-i"]
    assert axiom_i == {"conclusive": True, "passed": False, "witness": {"set": "co{1,2,3}"}}


def states(model, s):
    """The model's mask of a set on ℕ: per class, whether s holds some of it
    and whether it holds all of it."""
    mask = 0
    for _, members, bit, width in model.layout:
        if members is None:
            some = not s.is_finite() or any(e not in model.listed for e in s.members)
            full = not s.is_finite() and set(s.members) <= set(model.listed)
        else:
            hits = sum(e in s for e in members)
            some, full = hits > 0, hits == len(members)
        mask |= (some | full << 1 if width == 2 else full) << bit
    return mask


def test_the_model_table_is_the_operator_on_states(sample):
    stray_lanes = 0
    for op, _ in sample[:100]:
        model = _Quotient(op)
        t = model.table()
        stray = sum(1 << bit for _, _, bit, width in model.layout if width == 2)
        for m in range(len(t)):
            if m >> 1 & ~m & stray:
                assert t[m] == m  # a full bit without its nonempty bit: no set
                stray_lanes += 1
            else:
                s = model.lift(m)
                assert states(model, s) == m, (op, m)
                assert t[m] == states(model, evaluate(op, s)), (op, m)
    assert stray_lanes


def test_the_witness_is_the_least_failing_mask(sample):
    # Below the witness, every mask that stands for a set lifts to a set on
    # which the operator is idempotent.
    failing = [(op, report.axiom_i.witness[0]) for op, report in sample if not report.axiom_i.passed]
    for op, witness in failing[:30]:
        model = _Quotient(op)
        stray = sum(1 << bit for _, _, bit, width in model.layout if width == 2)
        for m in range(states(model, witness)):
            if not m >> 1 & ~m & stray:
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
    result = CliRunner().invoke(main, ["check", "--universe", "cofinite", text, "--json"])
    assert result.exit_code == 2
    assert "has 26 points; exact checks stop at 24" in result.output.splitlines()[-1]


def test_the_tail_sorts_among_the_listed_classes():
    model = _Quotient(NaiveJoin(Cxy(NAT.subset([0, 2]), NAT.cosubset([0, 2])), CPrime(NAT.subset([5]), NAT.subset([0, 2]))))
    # 0 and 2 share every parameter: one class; the tail starts at 1; then 5.
    assert [(least, members, width) for least, members, _, width in model.layout] == [
        (0, [0, 2], 2),
        (1, None, 2),
        (5, [5], 1),
    ]
    assert model.lift(0b11101) == NAT.cosubset([2])
    assert model.lift(0b00101) == NAT.subset([0, 1])
