"""Lattice algebra: order, joins, complements, chains, sublattices.

The n=3 exhaustive laws use an independent oracle built from raw value
tables of the 61 enumerated closure systems: order is tablewise mask
containment, the meet is the pointwise AND, and the weak join is the
closure of the intersected fixed-point families.  The library operations
are asserted against these tables.
"""

import itertools
import re
import sys
from pathlib import Path

import pytest

from tarski_lab.sets import Mode, ModeError, UniverseMismatchError, make_universe
from tarski_lab.operators import (
    ClosureSystem,
    CPrime,
    Cxy,
    FromSystem,
    FromTable,
    Identity,
    Meet,
    NaiveJoin,
    OperatorConstraintError,
    Top,
    WeakJoin,
    evaluate,
    table,
    to_closure_system,
)
from tarski_lab import algebra, operators
from tarski_lab.algebra import (
    MAX_DESCENDING_CHAIN,
    ChainResult,
    Comparison,
    _distributive,
    descending_chain,
    equivalent,
    is_chain,
    le,
    relative_complement,
    sublattice_report,
)
from tarski_lab.classify import check_axioms, enumerate_operators
from tarski_lab.parsing import SpecContext, parse_set
from tarski_lab.report import axiom_report_payload

from oracles import all_subsets

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import expect  # noqa: E402
import oracle  # noqa: E402


@pytest.fixture
def u():
    return make_universe(Mode.FINITE, ["a", "b", "c"])


@pytest.fixture
def nat():
    return make_universe(Mode.COFINITE)


# -- independent table oracle --------------------------------------------------


def table_le(t1, t2) -> bool:
    return all(a & ~b == 0 for a, b in zip(t1, t2))


@pytest.fixture(scope="module")
def oracle3():
    systems = list(enumerate_operators(3))
    tables = [tuple(oracle.closure_table(s.masks, 3)) for s in systems]
    ops = [FromSystem(s) for s in systems]
    return systems, tables, ops


class TestLe:
    def test_identity_below_everything_extensive(self, u):
        assert le(Identity(u), Cxy(u.of_names("a"), u.of_names("b"))).holds

    def test_parameter_monotone(self, u):
        small = Cxy(u.of_names("a"), u.of_names("b"))
        large = Cxy(u.of_names("a", "c"), u.of_names("b"))
        assert le(small, large).holds

    def test_incomparable_with_witness(self, u):
        left = Cxy(u.of_names("a"), u.of_names("b"))
        right = Cxy(u.of_names("c"), u.of_names("b"))
        result = le(left, right)
        assert not result.holds
        assert result.witness == u.of_names("b")
        assert evaluate(left, result.witness) == u.of_names("a", "b")
        assert evaluate(right, result.witness) == u.of_names("b", "c")

    def test_cofinite_closed_forms(self, nat):
        zero = nat.subset([0])
        c1 = Cxy(nat.cosubset([1]), zero)
        c2 = Cxy(nat.cosubset([1, 2]), zero)
        assert le(c2, c1).holds
        probe = le(c1, c2)
        assert not probe.holds and probe.witness == zero
        assert le(Identity(nat), c1).holds
        assert le(c1, Top(nat)).holds
        assert not le(Top(nat), c1).holds

    def test_cofinite_cprime_vs_cxy(self, nat):
        prime = CPrime(nat.subset([4]), nat.subset([1, 2]))
        # At the minimal argument {1,2} the plain family must already add 4.
        assert le(prime, Cxy(nat.subset([4]), nat.subset([2]))).holds
        miss = le(prime, Cxy(nat.subset([4]), nat.subset([9])))
        assert not miss.holds and miss.witness == nat.subset([1, 2])

    def test_cofinite_composite_pair_is_decided(self, nat):
        blend = Meet(Identity(nat), Identity(nat))
        assert le(blend, Identity(nat)) == Comparison(True)
        assert le(Identity(nat), blend) == Comparison(True)
        assert equivalent(blend, Identity(nat))

    def test_cofinite_le_agrees_with_finite_analogue(self, nat):
        # Spot-check the case analysis against brute-force evaluation over
        # a family of probe sets.
        params = [
            nat.empty(),
            nat.subset([0]),
            nat.subset([1]),
            nat.subset([0, 2]),
            nat.cosubset([0]),
            nat.cosubset([1, 3]),
            nat.full(),
        ]
        probes = [
            nat.empty(),
            nat.subset([0]),
            nat.subset([1]),
            nat.subset([2]),
            nat.subset([0, 1]),
            nat.subset([1, 3]),
            nat.subset([0, 1, 2, 3, 4]),
            nat.cosubset([0]),
            nat.cosubset([2]),
            nat.cosubset([0, 1]),
            nat.full(),
        ]
        ops = [Cxy(x, y) for x, y in itertools.product(params, repeat=2)]
        ops += [CPrime(x, y) for x, y in itertools.product(params, repeat=2)]
        for a, b in itertools.product(ops[::3], repeat=2):
            claimed = le(a, b)
            sampled = all(
                evaluate(a, probe).is_subset(evaluate(b, probe)) for probe in probes
            )
            if claimed.holds:
                assert sampled
            else:
                witness = claimed.witness
                assert not evaluate(a, witness).is_subset(evaluate(b, witness))


# Parameter literals for the exact comparison with perfbench's cofinite model.
REFERENCE_LITERALS = ("{}", "{0}", "{1,2}", "{0,3}", "L", "co{0}", "co{1,3}")


@pytest.fixture(scope="module")
def reference_leaves():
    """(operator, perfbench leaf) for every cxy/cprime over REFERENCE_LITERALS,
    plus I and U with the leaves cxy {} {} and cprime L {} that they equal."""
    ctx = SpecContext(make_universe(Mode.COFINITE))
    sets = [(parse_set(t, ctx), oracle.parse_cofinite_literal(t)) for t in REFERENCE_LITERALS]
    empty, full = sets[0], sets[4]
    leaves = [
        (Identity(ctx.universe), ("cxy", empty[1], empty[1])),
        (Top(ctx.universe), ("cprime", full[1], empty[1])),
    ]
    for head, node in (("cxy", Cxy), ("cprime", CPrime)):
        for (x, x_leaf), (y, y_leaf) in itertools.product(sets, repeat=2):
            leaves.append((node(x, y), (head, x_leaf, y_leaf)))
    return leaves


class TestCofiniteAgainstReference:
    """The closed forms on ℕ against perfbench's finite model of the naturals."""

    def test_order_matches_the_model_with_failing_witnesses(self, reference_leaves):
        for (a, a_leaf), (b, b_leaf) in itertools.product(reference_leaves, repeat=2):
            result = le(a, b)
            assert result.holds == expect._cofinite_le(a_leaf, b_leaf), (a, b)
            if not result.holds:
                witness = oracle.parse_cofinite_literal(result.witness.literal())
                model = oracle.CofiniteModel(a_leaf[1], a_leaf[2], b_leaf[1], b_leaf[2], witness)
                at = model.mask(witness)
                assert model.table(*a_leaf)[at] & ~model.table(*b_leaf)[at], (a, b)

    def test_meets_left_witness_is_the_least_failing_singleton(self, reference_leaves):
        # For a meets-left operand the binding arguments are singletons, and
        # every y ≥ K (one past the largest listed element) acts like K.
        k = 1 + max(int(e) for text in REFERENCE_LITERALS for e in re.findall(r"\d+", text))
        nat = reference_leaves[0][0].universe
        singletons = [nat.subset([y]) for y in range(k + 1)]
        hits = 0
        for (a, a_leaf), (b, _) in itertools.product(reference_leaves, repeat=2):
            if a_leaf[0] != "cxy":
                continue
            failing = [s for s in singletons if not evaluate(a, s).is_subset(evaluate(b, s))]
            assert le(a, b) == Comparison(not failing, failing[0] if failing else None), (a, b)
            hits += len(failing) > 1
        assert hits

    def test_axiom_reports_match_the_model(self, reference_leaves):
        for op, leaf in reference_leaves:
            expected = oracle.cofinite_check_payload(*leaf)
            assert axiom_report_payload(check_axioms(op)) == expected, op


class TestMeetAndJoins:
    def test_meet_example(self, u):
        both = Meet(Cxy(u.of_names("a"), u.of_names("b")), Cxy(u.of_names("c"), u.of_names("b")))
        assert evaluate(both, u.of_names("b")) == u.of_names("b")

    def test_meet_with_top_is_neutral(self, u):
        op = Cxy(u.of_names("a"), u.of_names("b"))
        assert equivalent(Meet(op, Top(u)), op)
        assert equivalent(Meet(op, op), op)

    def test_naive_join_idempotence_failure(self, u):
        from tarski_lab.operators import SExample

        joined = NaiveJoin(
            CPrime(u.of_names("b"), u.empty()), SExample(u.of_names("a"), u.index_of("b"))
        )
        assert evaluate(joined, u.empty()) == u.of_names("a", "b")
        assert evaluate(joined, u.of_names("a", "b")) == u.full()

    def test_naive_join_trivialities(self, u):
        op = Cxy(u.of_names("a"), u.of_names("b"))
        assert equivalent(NaiveJoin(op, op), op)
        assert equivalent(NaiveJoin(Identity(u), op), op)

    def test_weak_join_closed_form(self, u):
        joined = WeakJoin(
            Cxy(u.of_names("a"), u.of_names("b")), Cxy(u.of_names("c"), u.of_names("b"))
        )
        assert equivalent(joined, Cxy(u.of_names("a", "c"), u.of_names("b")))

    def test_weak_join_with_identity(self, u):
        op = CPrime(u.of_names("a"), u.of_names("c"))
        assert equivalent(WeakJoin(Identity(u), op), op)

    def test_weak_join_family_intersection(self, u):
        a = Cxy(u.of_names("a"), u.of_names("b"))
        b = Cxy(u.of_names("c"), u.of_names("b"))
        joined = to_closure_system(WeakJoin(a, b)).closed
        common = set(to_closure_system(b).closed)
        assert joined == tuple(s for s in to_closure_system(a).closed if s in common)

    def test_weak_join_cofinite_guard(self, nat, monkeypatch):
        # On ℕ the settle loop is guarded by listed elements + 2 rounds; with
        # no listed elements counted, two rounds cannot settle a join that
        # changes twice.
        step = NaiveJoin(Cxy(nat.subset([1]), nat.subset([0])), Cxy(nat.subset([3]), nat.subset([2])))
        joined = WeakJoin(step, Cxy(nat.subset([2]), nat.subset([1])))
        assert evaluate(joined, nat.subset([0])) == nat.subset([0, 1, 2, 3])
        monkeypatch.setattr(operators, "_parameters", lambda op: [])
        with pytest.raises(OperatorConstraintError, match="did not reach a fixed point"):
            evaluate(joined, nat.subset([0]))


class TestLatticeLawsExhaustive:
    def test_order_laws(self, oracle3):
        _, tables, _ = oracle3
        matrix = [[table_le(t1, t2) for t2 in tables] for t1 in tables]
        for i, t1 in enumerate(tables):
            assert matrix[i][i]
            for j, t2 in enumerate(tables):
                if matrix[i][j] and matrix[j][i]:
                    assert i == j
                for k in range(len(tables)):
                    if matrix[i][j] and matrix[j][k]:
                        assert matrix[i][k]

    def test_meet_is_greatest_lower_bound(self, oracle3):
        systems, tables, ops = oracle3
        index = {t: i for i, t in enumerate(tables)}
        matrix = [[table_le(t1, t2) for t2 in tables] for t1 in tables]
        for i, j in itertools.product(range(len(tables)), repeat=2):
            met = tuple(a & b for a, b in zip(tables[i], tables[j]))
            assert met in index, "meet must stay inside the enumerated operators"
            k = index[met]
            assert matrix[k][i] and matrix[k][j]
            for d in range(len(tables)):
                if matrix[d][i] and matrix[d][j]:
                    assert matrix[d][k]
            # Library path agrees with the table oracle.
            lib = Meet(ops[i], ops[j])
            assert all(
                evaluate(lib, s).mask == met[s.mask]
                for s in all_subsets(systems[i].universe)
            )

    def test_weak_join_is_least_upper_bound(self, oracle3):
        systems, tables, ops = oracle3
        index = {t: i for i, t in enumerate(tables)}
        matrix = [[table_le(t1, t2) for t2 in tables] for t1 in tables]
        size = systems[0].universe.size
        for i, j in itertools.product(range(len(tables)), repeat=2):
            fixed = [m for m in range(1 << size) if tables[i][m] == m and tables[j][m] == m]
            joined = tuple(oracle.closure_table(fixed, size))
            assert joined in index
            k = index[joined]
            assert matrix[i][k] and matrix[j][k]
            for d in range(len(tables)):
                if matrix[i][d] and matrix[j][d]:
                    assert matrix[k][d]

    def test_weak_join_closed_sets_are_the_family_intersection(self, oracle3):
        systems, tables, ops = oracle3
        universe = systems[0].universe
        for i, j in itertools.product(range(len(ops)), repeat=2):
            joined_family = {s.mask for s in to_closure_system(WeakJoin(ops[i], ops[j])).closed}
            expected = {
                m for m in range(len(tables[i])) if tables[i][m] == m and tables[j][m] == m
            }
            assert joined_family == expected

    def test_composition_characterises_order(self, oracle3):
        systems, tables, ops = oracle3
        for t1, t2 in itertools.product(tables, repeat=2):
            via_le = table_le(t1, t2)
            via_comp = all(t2[t1[m]] == t2[m] for m in range(len(t1)))
            assert via_le == via_comp


class TestRelativeComplement:
    def test_main_example(self, u):
        lower = Cxy(u.of_names("a"), u.of_names("b"))
        upper = Cxy(u.of_names("a", "c"), u.of_names("b"))
        result = relative_complement(lower, upper)
        assert equivalent(result.candidate, Cxy(u.of_names("c"), u.of_names("b")))
        assert result.report.all_pass
        assert result.lattice_ok

    def test_non_strict_order_rejected(self, u):
        op = Cxy(u.of_names("a"), u.of_names("b"))
        with pytest.raises(OperatorConstraintError):
            relative_complement(op, op)

    def test_identity_lower_bound_rejected(self, u):
        with pytest.raises(OperatorConstraintError):
            relative_complement(Identity(u), Cxy(u.of_names("a"), u.of_names("b")))

    def test_top_target_excluded_by_default(self, u):
        lower = Cxy(u.of_names("a"), u.of_names("b"))
        with pytest.raises(OperatorConstraintError):
            relative_complement(lower, Top(u))

    def test_top_target_with_flag(self, u):
        lower = Cxy(u.of_names("a"), u.of_names("b"))
        result = relative_complement(lower, Top(u), include_top=True)
        assert result.lattice_ok
        # Independent check of the axiom verdict by brute force.
        brute_monotone = all(
            evaluate(result.candidate, s).is_subset(evaluate(result.candidate, t))
            for s in all_subsets(u)
            for t in all_subsets(u)
            if s.is_subset(t)
        )
        assert result.report.axiom_ii.passed == brute_monotone

    def test_uniqueness_among_enumerated(self, u, oracle3):
        _, tables, ops = oracle3
        lower = Cxy(u.of_names("a"), u.of_names("b"))
        upper = Cxy(u.of_names("a", "c"), u.of_names("b"))
        result = relative_complement(lower, upper)
        matches = [
            op
            for op in ops
            if equivalent(NaiveJoin(lower, op), upper) and equivalent(Meet(lower, op), Identity(u))
        ]
        assert len(matches) == 1
        assert equivalent(matches[0], result.candidate)

    def test_soundness_and_uniqueness_across_all_strict_pairs(self, oracle3):
        # For every strictly ordered pair of enumerated operators, the
        # formula candidate always satisfies the two lattice equations, and
        # an enumerated operator satisfies them iff it is a consequence
        # operator pointwise equal to the candidate.
        systems, tables, ops = oracle3
        size = systems[0].universe.size
        full = (1 << size) - 1
        identity = tuple(range(1 << size))
        top = tuple(full for _ in range(1 << size))
        strict_pairs = 0
        for i, low in enumerate(tables):
            if low == identity:
                continue
            for j, high in enumerate(tables):
                if high in (top, low) or not table_le(low, high):
                    continue
                result = relative_complement(ops[i], ops[j])
                assert result.lattice_ok
                strict_pairs += 1
                candidate_table = result.candidate.table
                satisfying = [
                    k
                    for k, d in enumerate(tables)
                    if all(a | b == c for a, b, c in zip(low, d, high))
                    and all(a & b == m for m, (a, b) in enumerate(zip(low, d)))
                ]
                if result.report.all_pass:
                    assert satisfying == [tables.index(candidate_table)]
                else:
                    assert satisfying == []
        assert strict_pairs > 100  # the order is rich enough to mean something


class TestIsChain:
    def test_nested_family_is_chain(self, u):
        family = [
            Identity(u),
            Cxy(u.of_names("a"), u.of_names("b")),
            Cxy(u.of_names("a", "c"), u.of_names("b")),
        ]
        assert is_chain(family).holds

    def test_incomparable_pair_detected(self, u):
        family = [Cxy(u.of_names("a"), u.of_names("b")), Cxy(u.of_names("c"), u.of_names("b"))]
        result = is_chain(family)
        assert not result.holds
        assert result.violating_pair == (family[0], family[1])

    def test_singleton_chain(self, u):
        assert is_chain([Cxy(u.of_names("a"), u.of_names("b"))]).holds

    def test_a_finite_pair_builds_its_two_tables_once(self, u, monkeypatch):
        # Order and composition both read the pair's two tables.
        built = []

        def counted(op):
            built.append(op)
            return table(op)

        monkeypatch.setattr(algebra, "table", counted)
        monkeypatch.setattr(operators, "table", counted)
        a, b = Cxy(u.of_names("a"), u.of_names("b")), Cxy(u.of_names("c"), u.of_names("b"))
        assert not is_chain([a, b]).holds
        assert built == [a, b]

    def test_operands_from_different_universes(self, u, nat):
        for family in ([Identity(u), Identity(nat)], [Identity(nat), Identity(u)]):
            with pytest.raises(UniverseMismatchError):
                is_chain(family)

    def test_order_and_composition_disagree_on_a_non_closure(self):
        # The complement map on one symbol and the identity are incomparable,
        # yet the complement map absorbs the identity: c∘I = c.
        one = make_universe(Mode.FINITE, ["a"])
        with pytest.raises(OperatorConstraintError, match="disagree"):
            is_chain([FromTable(one, (1, 0)), Identity(one)])

    def test_cofinite_chain(self, nat):
        chain = descending_chain(nat, 4)
        assert is_chain(list(reversed(chain)) + [Identity(nat), Top(nat)]).holds

    def test_cofinite_incomparable(self, nat):
        zero = nat.subset([0])
        family = [Cxy(nat.subset([1]), zero), Cxy(nat.subset([2]), zero)]
        result = is_chain(family)
        assert not result.holds

    def test_cofinite_mixed_pair_is_decided_by_le(self, nat, reference_leaves):
        family = [
            Cxy(nat.subset([1]), nat.subset([0])),
            CPrime(nat.subset([2]), nat.subset([3])),
        ]
        assert is_chain(family) == ChainResult(False, tuple(family))
        # Every pair of leaves, mixed families included, against perfbench's
        # unmerged model of the naturals.
        for i, (a, a_leaf) in enumerate(reference_leaves):
            for b, b_leaf in reference_leaves[i + 1 :]:
                comparable = expect._cofinite_le(a_leaf, b_leaf) or expect._cofinite_le(b_leaf, a_leaf)
                assert is_chain([a, b]).holds == comparable, (a, b)


class TestSublattice:
    def test_inf_and_sup_closed_forms(self, u):
        b = u.of_names("b")
        gens = [u.empty(), u.of_names("a"), u.of_names("c"), u.of_names("a", "c")]
        result = sublattice_report(b, gens)
        assert result.inf_closed_form and result.sup_closed_form
        assert result.joins_agree and result.distributive

    def test_single_generator(self, u):
        result = sublattice_report(u.of_names("b"), [u.of_names("a")])
        assert result.ok

    def test_non_chain_witness_via_generated_join(self, u):
        b = u.of_names("a")
        result = sublattice_report(b, [u.of_names("a"), u.of_names("c")])
        assert result.non_chain_witness is not None
        a_set, d_set, probe = result.non_chain_witness
        assert a_set == u.of_names("a", "c")
        assert d_set == u.of_names("b")
        assert probe == b

    def test_empty_generators_rejected(self, u):
        with pytest.raises(ValueError):
            sublattice_report(u.of_names("b"), [])

    def test_distributive_law_uses_the_operator_lattice(self, u):
        # Bitwise, & distributes over | on any tables; in the operator
        # lattice, whose join is the weak join, these three systems fail:
        # [{};L] ∨ ([{a};L] ∧ [{b};L]) is [{};L], but the right side is the top map.
        families = [(u.empty().mask,), (u.of_names("a").mask,), (u.of_names("b").mask,)]
        full = u.full().mask
        tables = [table(FromSystem(ClosureSystem(u, f + (full,)))) for f in families]
        assert _distributive(tables, {}) is False
        gens = [u.empty(), u.of_names("a"), u.of_names("c")]
        assert _distributive([table(Cxy(g, u.of_names("b"))) for g in gens], {}) is True


class TestDescendingChain:
    def test_members_and_values(self, nat):
        chain = descending_chain(nat, 3)
        assert chain == [
            Cxy(nat.cosubset([1]), nat.subset([0])),
            Cxy(nat.cosubset([1, 2]), nat.subset([0])),
            Cxy(nat.cosubset([1, 2, 3]), nat.subset([0])),
        ]
        assert evaluate(chain[1], nat.subset([0])) == nat.cosubset([1, 2])

    def test_single_link(self, nat):
        assert len(descending_chain(nat, 1)) == 1

    def test_strictness_of_values(self, nat):
        chain = descending_chain(nat, 10)
        probe = nat.subset([0])
        for upper, lower in zip(chain, chain[1:]):
            shrunk = evaluate(lower, probe)
            grown = evaluate(upper, probe)
            assert shrunk.is_subset(grown) and shrunk != grown

    def test_finite_mode_rejected(self, u):
        with pytest.raises(ModeError):
            descending_chain(u, 3)

    def test_a_chain_past_the_bound_is_refused_before_any_member(self, nat, monkeypatch):
        def refuse(*args):
            raise AssertionError("a member was built")

        monkeypatch.setattr(algebra, "Cxy", refuse)
        with pytest.raises(ValueError, match=f"over the bound of {MAX_DESCENDING_CHAIN}"):
            descending_chain(nat, MAX_DESCENDING_CHAIN + 1)
