"""Operator expressions: construction constraints, evaluation, closed-set
families, and the weak-join fixed point."""

import inspect
import itertools

import pytest

from tarski_lab.sets import Mode, ModeError, UniverseMismatchError, make_universe
from tarski_lab.operators import (
    ClosureSystem,
    Compose,
    CPrime,
    Cxy,
    FromSystem,
    FromTable,
    Identity,
    Meet,
    NaiveJoin,
    OperatorConstraintError,
    SExample,
    Top,
    WeakJoin,
    compose,
    evaluate,
    to_closure_system,
)

from oracles import all_subsets


@pytest.fixture
def u():
    return make_universe(Mode.FINITE, ["a", "b", "c"])


@pytest.fixture
def nat():
    return make_universe(Mode.COFINITE)


class TestConstruction:
    def test_cxy_valid(self, u):
        Cxy(u.of_names("a"), u.of_names("b"))

    def test_sexample_valid(self, u):
        SExample(u.of_names("a"), u.index_of("b"))

    def test_sexample_needs_two_outside(self, u):
        with pytest.raises(OperatorConstraintError):
            SExample(u.of_names("a", "b"), u.index_of("c"))

    def test_sexample_trigger_outside_base(self, u):
        with pytest.raises(OperatorConstraintError):
            SExample(u.of_names("a"), u.index_of("a"))

    def test_sexample_nonempty_base(self, u):
        with pytest.raises(OperatorConstraintError):
            SExample(u.empty(), u.index_of("a"))

    def test_universe_mismatch(self, u, nat):
        with pytest.raises(UniverseMismatchError):
            Cxy(u.of_names("a"), nat.subset([0]))
        with pytest.raises(UniverseMismatchError):
            Meet(Identity(u), Identity(nat))

    def test_partial_table_rejected(self, u):
        with pytest.raises(OperatorConstraintError):
            FromTable(u, (0, 1, 2))


# Node classes grouped by the fields they hold; Compose holds two operands
# like the binary nodes, under its own field names.
ON_UNIVERSE = (Identity, Top)
PARAMETRIC = (Cxy, CPrime)
BINARY = (Meet, NaiveJoin, WeakJoin, Compose)
SAME_FIELDS = [pair for group in (ON_UNIVERSE, PARAMETRIC, BINARY) for pair in itertools.permutations(group, 2)]


def _args(cls, universe):
    """Constructor arguments, the same for every class in one group."""
    if cls is FromTable:
        return universe, tuple(range(1 << universe.size))
    if cls in ON_UNIVERSE:
        return (universe,)
    if cls in PARAMETRIC:
        return universe.subset([0]), universe.subset([1])
    return Cxy(universe.subset([0]), universe.subset([1])), Identity(universe)


class TestNodeShapes:
    @pytest.mark.parametrize("first, second", SAME_FIELDS, ids=lambda cls: cls.__name__)
    def test_equal_fields_in_different_classes_compare_unequal(self, u, first, second):
        node = first(*_args(first, u))
        assert node != second(*_args(second, u))
        assert node == first(*_args(first, u)) and hash(node) == hash(first(*_args(first, u)))

    @pytest.mark.parametrize("cls", ON_UNIVERSE + PARAMETRIC + BINARY + (FromTable,))
    def test_repr_names_the_class(self, u, cls):
        assert repr(cls(*_args(cls, u))).startswith(f"{cls.__name__}(")

    @pytest.mark.parametrize("cls", PARAMETRIC + BINARY)
    def test_operand_from_another_universe(self, u, nat, cls):
        with pytest.raises(UniverseMismatchError):
            cls(_args(cls, u)[0], _args(cls, nat)[1])
        with pytest.raises(UniverseMismatchError):
            cls(_args(cls, nat)[0], _args(cls, u)[1])

    @pytest.mark.parametrize("cls", ON_UNIVERSE + PARAMETRIC + BINARY + (FromTable,))
    def test_assignment_is_refused(self, u, cls):
        node = cls(*_args(cls, u))
        for name in list(inspect.signature(cls).parameters) + ["extra"]:
            with pytest.raises(AttributeError) as refused:
                setattr(node, name, None)
            assert type(refused.value) is AttributeError
            assert str(refused.value) == f"cannot assign to field {name!r}"
            with pytest.raises(AttributeError) as refused:
                delattr(node, name)
            assert type(refused.value) is AttributeError
            assert str(refused.value) == f"cannot delete field {name!r}"
        assert node == cls(*_args(cls, u))


class TestEvaluation:
    def test_cxy_triggered(self, u):
        op = Cxy(u.of_names("a"), u.of_names("b"))
        assert evaluate(op, u.of_names("b", "c")) == u.of_names("a", "b", "c")

    def test_cxy_untriggered(self, u):
        op = Cxy(u.of_names("a"), u.of_names("b"))
        assert evaluate(op, u.of_names("c")) == u.of_names("c")

    def test_identity_everywhere(self, u):
        for s in all_subsets(u):
            assert evaluate(Identity(u), s) == s

    def test_sexample_values(self, u):
        op = SExample(u.of_names("a"), u.index_of("b"))
        assert evaluate(op, u.empty()) == u.of_names("a")
        assert evaluate(op, u.of_names("b")) == u.full()

    def test_weak_join_closes_under_both(self, u):
        op = WeakJoin(Cxy(u.of_names("a"), u.of_names("b")), Cxy(u.of_names("c"), u.of_names("b")))
        assert evaluate(op, u.of_names("b")) == u.full()

    def test_weak_join_order_independent(self, u):
        ops = [
            Identity(u),
            Top(u),
            Cxy(u.of_names("a"), u.of_names("b")),
            CPrime(u.of_names("c"), u.of_names("a")),
            SExample(u.of_names("a"), u.index_of("b")),
        ]
        for a, b in itertools.product(ops, repeat=2):
            for s in all_subsets(u):
                assert evaluate(WeakJoin(a, b), s) == evaluate(WeakJoin(b, a), s)

    def test_cofinite_evaluation(self, nat):
        op = Cxy(nat.cosubset([1, 2]), nat.subset([0]))
        assert evaluate(op, nat.subset([0])) == nat.cosubset([1, 2])
        assert evaluate(op, nat.subset([3])) == nat.subset([3])

    def test_argument_universe_checked(self, u, nat):
        with pytest.raises(UniverseMismatchError):
            evaluate(Identity(u), nat.subset([0]))


class TestWeakJoinCofinite:
    def test_same_trigger_closed_form(self, nat):
        a = Cxy(nat.subset([5]), nat.subset([0]))
        b = Cxy(nat.cosubset([3]), nat.subset([0]))
        joined = WeakJoin(a, b)
        merged = Cxy(nat.subset([5]).union(nat.cosubset([3])), nat.subset([0]))
        probe = nat.subset([0, 7])
        assert evaluate(joined, probe) == evaluate(merged, probe)

    def test_identity_operand_passthrough(self, nat):
        other = CPrime(nat.subset([1]), nat.subset([2]))
        probe = nat.subset([2, 3])
        assert evaluate(WeakJoin(Identity(nat), other), probe) == evaluate(other, probe)

    def test_mixed_pair_settles(self, nat):
        joined = WeakJoin(
            CPrime(nat.subset([1]), nat.subset([2])), Cxy(nat.subset([3]), nat.subset([4]))
        )
        assert evaluate(joined, nat.subset([2])) == nat.subset([1, 2])
        assert evaluate(joined, nat.subset([2, 4])) == nat.subset([1, 2, 3, 4])
        assert evaluate(joined, nat.cosubset([1])) == nat.full()

    def test_different_triggers_settle(self, nat):
        joined = WeakJoin(
            Cxy(nat.subset([1]), nat.subset([0])), Cxy(nat.subset([2]), nat.subset([1, 5]))
        )
        assert evaluate(joined, nat.subset([0])) == nat.subset([0, 1, 2])
        assert evaluate(joined, nat.subset([5])) == nat.subset([2, 5])
        assert evaluate(joined, nat.subset([7])) == nat.subset([7])

    def test_each_changing_round_fills_a_class(self, nat):
        # Two rounds change the value and a third sees it settle, within the
        # bound of listed elements + 2 that the evaluation allows.
        step = NaiveJoin(Cxy(nat.subset([1]), nat.subset([0])), Cxy(nat.subset([3]), nat.subset([2])))
        joined = WeakJoin(step, WeakJoin(Cxy(nat.subset([2]), nat.subset([1])), Identity(nat)))
        assert evaluate(joined, nat.subset([0])) == nat.subset([0, 1, 2, 3])
        assert evaluate(joined, nat.cosubset([0])) == nat.cosubset([0])


class TestCompose:
    def test_example_recipe(self, u):
        # Feeding {a} through the example operator and then the {b}-adder
        # lands on {a,b}.
        inner = SExample(u.of_names("a"), u.index_of("b"))
        outer = CPrime(u.of_names("b"), u.empty())
        composite = compose(outer, inner)
        assert evaluate(composite, u.of_names("a")) == u.of_names("a", "b")

    def test_identity_neutral(self, u):
        op = Cxy(u.of_names("a"), u.of_names("b"))
        for s in all_subsets(u):
            assert evaluate(compose(Identity(u), op), s) == evaluate(op, s)
            assert evaluate(compose(op, Identity(u)), s) == evaluate(op, s)

    def test_absorbing_composition(self, u):
        big = Cxy(u.of_names("a", "c"), u.of_names("b"))
        small = Cxy(u.of_names("a"), u.of_names("b"))
        composite = compose(big, small)
        for s in all_subsets(u):
            assert evaluate(composite, s) == evaluate(big, s)


class TestClosureSystems:
    def test_fixpoint_family(self, u):
        system = to_closure_system(Cxy(u.of_names("a"), u.of_names("b")))
        expected = {
            u.empty(),
            u.of_names("a"),
            u.of_names("c"),
            u.of_names("a", "c"),
            u.of_names("a", "b"),
            u.full(),
        }
        assert set(system.closed) == expected
        assert [s.mask for s in system.closed] == sorted(s.mask for s in expected)

    def test_identity_family_is_everything(self, u):
        assert len(to_closure_system(Identity(u)).closed) == 8

    def test_top_family_is_just_l(self, u):
        assert to_closure_system(Top(u)).closed == (u.full(),)

    def test_cofinite_not_materialised(self, nat):
        with pytest.raises(ModeError):
            to_closure_system(Identity(nat))

    def test_constructor_validates_membership_of_l(self, u):
        with pytest.raises(OperatorConstraintError):
            ClosureSystem(u, (u.empty().mask,))

    def test_constructor_validates_intersection_closure(self, u):
        with pytest.raises(OperatorConstraintError, match="{a} ∩ {b} missing"):
            ClosureSystem(u, (u.of_names("a").mask, u.of_names("b").mask, u.full().mask))

    @pytest.mark.parametrize("mask", [-1, 8, 9])
    def test_constructor_rejects_masks_out_of_range(self, u, mask):
        with pytest.raises(OperatorConstraintError, match="out of range"):
            ClosureSystem(u, (mask, u.full().mask))

    def test_round_trip(self, u):
        op = Cxy(u.of_names("a"), u.of_names("b"))
        system = to_closure_system(op)
        back = FromSystem(system)
        for s in all_subsets(u):
            assert evaluate(back, s) == evaluate(op, s)
        assert to_closure_system(back) == system

    def test_from_singleton_family_is_top(self, u):
        op = FromSystem(ClosureSystem(u, (u.full().mask,)))
        for s in all_subsets(u):
            assert evaluate(op, s) == evaluate(Top(u), s)

    def test_from_everything_is_identity(self, u):
        op = FromSystem(ClosureSystem(u, tuple(range(1 << u.size))))
        for s in all_subsets(u):
            assert evaluate(op, s) == s


class TestBuiltinInvariants:
    def test_extensive_everywhere(self, u):
        ops = [
            Identity(u),
            Top(u),
            Cxy(u.of_names("a"), u.of_names("b")),
            CPrime(u.of_names("a"), u.of_names("b", "c")),
            SExample(u.of_names("a"), u.index_of("b")),
        ]
        for op in ops:
            for s in all_subsets(u):
                assert s.is_subset(evaluate(op, s))

    def test_axiomless_classification(self, u):
        empty = u.empty()
        for x in all_subsets(u):
            for y in all_subsets(u):
                assert evaluate(Cxy(x, y), empty) == empty
                prime_empty = evaluate(CPrime(x, y), empty)
                if x.is_empty() or not y.is_empty():
                    assert prime_empty == empty

    def test_naive_join_values(self, u):
        joined = NaiveJoin(
            CPrime(u.of_names("b"), u.empty()), SExample(u.of_names("a"), u.index_of("b"))
        )
        once = evaluate(joined, u.empty())
        assert once == u.of_names("a", "b")
        assert evaluate(joined, once) == u.full()

    def test_nonconvergent_weak_join_raises(self, u):
        # Identity followed by a subset-swapping table oscillates forever.
        table = list(range(8))
        table[0], table[1] = 1, 0
        flip = FromTable(u, tuple(table))
        with pytest.raises(OperatorConstraintError):
            evaluate(WeakJoin(Identity(u), flip), u.empty())
