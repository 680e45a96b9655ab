"""The package's value classes: plain classes with ``__slots__`` whose fields
are their constructors' parameters.

Every value class is built twice from equal arguments.  Frozen values
compare and hash alike, survive pickle, copy and deepcopy (each of which
goes through the constructor), refuse assignment and deletion with the
exact error, and print the repr pinned below, field order included.  The
two mutable records, ``Report`` and ``SpecContext``, compare alike but
are unhashable and accept assignment to their fields only.
"""

import copy
import inspect
import pickle

import pytest

from tarski_lab.algebra import ChainResult, Comparison, ComplementResult, SublatticeReport
from tarski_lab.classify import AxiomReport, CoverResult, Verdict
from tarski_lab.concurrence import ConcurrenceResult
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
    SExample,
    Top,
    WeakJoin,
)
from tarski_lab.parsing import SpecContext
from tarski_lab.report import Report
from tarski_lab.sets import Mode, SentenceSet, Universe, make_universe
from tarski_lab.words import Alphabet, PartialSeq, Word, WordClass, alphabet

U = "Universe(mode=<Mode.FINITE: 'finite'>, symbols=('a', 'b', 'c'))"
SYSTEM = f"ClosureSystem(universe={U}, masks=(1, 7))"
ONE = "FromTable(_universe=Universe(mode=<Mode.FINITE: 'finite'>, symbols=('a',)), table=(0, 1))"
PASS = "Verdict(passed=True, witness=None)"

# Each value's repr as the earlier dataclass generated it.
REPRS = {
    "Universe": U,
    "naturals": "Universe(mode=<Mode.COFINITE: 'cofinite'>, symbols=())",
    "SentenceSet": "SentenceSet({a})",
    "cofinite SentenceSet": "SentenceSet(co{1})",
    "Identity": f"Identity(_universe={U})",
    "Top": f"Top(_universe={U})",
    "Cxy": "Cxy(x=SentenceSet({a}), y=SentenceSet({b}))",
    "CPrime": "CPrime(x=SentenceSet({a}), y=SentenceSet({b}))",
    "SExample": "SExample(m=SentenceSet({a}), b=1)",
    "Meet": f"Meet(left=Identity(_universe={U}), right=Top(_universe={U}))",
    "NaiveJoin": f"NaiveJoin(left=Identity(_universe={U}), right=Top(_universe={U}))",
    "WeakJoin": f"WeakJoin(left=Identity(_universe={U}), right=Top(_universe={U}))",
    "Compose": f"Compose(outer=Top(_universe={U}), inner=Identity(_universe={U}))",
    "ClosureSystem": SYSTEM,
    "FromSystem": f"FromSystem(system={SYSTEM})",
    "FromTable": ONE,
    "Verdict": "Verdict(passed=False, witness=(SentenceSet({a}),))",
    "AxiomReport": (
        f"AxiomReport(axiom_i={PASS}, axiom_ii={PASS}, axiom_iii=Verdict(passed=False, witness=(SentenceSet({{a}}),)),"
        " axiomless=False, mode_note='exhaustive', finitary_from_monotone=None)"
    ),
    "CoverResult": f"CoverResult(holds=False, failing={SYSTEM})",
    "Comparison": "Comparison(holds=False, witness=SentenceSet({a}))",
    "ComplementResult": (
        f"ComplementResult(candidate={ONE}, report=AxiomReport(axiom_i={PASS}, axiom_ii={PASS}, axiom_iii={PASS},"
        " axiomless=True, mode_note='exhaustive', finitary_from_monotone=True), lattice_ok=True)"
    ),
    "ChainResult": f"ChainResult(holds=False, violating_pair=(Identity(_universe={U}), Top(_universe={U})))",
    "SublatticeReport": (
        "SublatticeReport(generators=(SentenceSet({a}), SentenceSet({b})), inf_closed_form=True,"
        " sup_closed_form=True, joins_agree=False, distributive=True,"
        " non_chain_witness=(SentenceSet({a}), SentenceSet({b}), SentenceSet({a,b,c})))"
    ),
    "Alphabet": "Alphabet(symbols=('a', 'b'))",
    "Word": "Word('ab')",
    "PartialSeq": "PartialSeq(alphabet=Alphabet(symbols=('a', 'b')), codes=(0, 3))",
    "WordClass": "WordClass(canonical=Word('ab'), size=2)",
    "ConcurrenceResult": "ConcurrenceResult(concurrent=False, bound=None, failing_subset=('0', '1'))",
    "Report": "Report(command='check', verdict=True, data={'k': [1]}, timing_ms=1.5)",
    "SpecContext": f"SpecContext(universe={U}, operators={{}}, sets={{}})",
}
RECORDS = {"Report", "SpecContext"}
CLASSES = [
    Universe, SentenceSet, Identity, Top, Cxy, CPrime, SExample, Meet, NaiveJoin, WeakJoin, Compose,
    ClosureSystem, FromSystem, FromTable, Verdict, AxiomReport, CoverResult, Comparison, ComplementResult,
    ChainResult, SublatticeReport, Alphabet, Word, PartialSeq, WordClass, ConcurrenceResult, Report, SpecContext,
]


def build() -> dict:
    """One value per name of ``REPRS``, every one built afresh."""
    u = make_universe(Mode.FINITE, "abc")
    a, b = u.of_names("a"), u.of_names("b")
    one = make_universe(Mode.FINITE, "a")
    system = ClosureSystem(u, (7, 1))
    ab = alphabet("ab")
    passed = Verdict(True)
    return {
        "Universe": u,
        "naturals": make_universe(Mode.COFINITE),
        "SentenceSet": a,
        "cofinite SentenceSet": make_universe(Mode.COFINITE).cosubset([1]),
        "Identity": Identity(u),
        "Top": Top(u),
        "Cxy": Cxy(a, b),
        "CPrime": CPrime(a, b),
        "SExample": SExample(a, 1),
        "Meet": Meet(Identity(u), Top(u)),
        "NaiveJoin": NaiveJoin(Identity(u), Top(u)),
        "WeakJoin": WeakJoin(Identity(u), Top(u)),
        "Compose": Compose(Top(u), Identity(u)),
        "ClosureSystem": system,
        "FromSystem": FromSystem(system),
        "FromTable": FromTable(one, (0, 1)),
        "Verdict": Verdict(False, (a,)),
        "AxiomReport": AxiomReport(passed, passed, Verdict(False, (a,)), False, "exhaustive"),
        "CoverResult": CoverResult(False, system),
        "Comparison": Comparison(False, a),
        "ComplementResult": ComplementResult(
            FromTable(one, (0, 1)), AxiomReport(passed, passed, passed, True, "exhaustive", True), True
        ),
        "ChainResult": ChainResult(False, (Identity(u), Top(u))),
        "SublatticeReport": SublatticeReport((a, b), True, True, False, True, (a, b, u.full())),
        "Alphabet": ab,
        "Word": ab.word("ab"),
        "PartialSeq": PartialSeq(ab, (0, 3)),
        "WordClass": WordClass(ab.word("ab"), 2),
        "ConcurrenceResult": ConcurrenceResult(False, None, ("0", "1")),
        "Report": Report("check", True, {"k": [1]}, 1.5),
        "SpecContext": SpecContext(u),
    }


NAMES = list(REPRS)
FROZEN = [name for name in NAMES if name not in RECORDS]


def test_every_class_is_covered():
    assert {type(value) for value in build().values()} == set(CLASSES)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_exact(name):
    assert repr(build()[name]) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_compare_alike(name):
    first, second = build()[name], build()[name]
    assert first is not second and first == second and not first != second
    if name in RECORDS:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


def test_unequal_values_and_siblings_differ():
    values = build()
    u = values["Universe"]
    a, b = values["SentenceSet"], u.of_names("b")
    assert Cxy(a, b) != CPrime(a, b) and CPrime(a, b) != Cxy(a, b)
    assert values["Meet"] != values["NaiveJoin"] != values["WeakJoin"] != values["Meet"]
    assert Identity(u) != Top(u)
    assert Meet(Top(u), Identity(u)) != Compose(Top(u), Identity(u))
    assert Cxy(a, b) != Cxy(b, a) and Verdict(True) != Verdict(False)
    assert a != u.of_names("a", "b") and u != make_universe(Mode.FINITE, "abd")
    # Equality is per class, never across types.
    assert Verdict(True) != Comparison(True) and u.full() != values["naturals"].full()
    assert SentenceSet.__eq__(a, "a") is NotImplemented and Universe.__eq__(u, "abc") is NotImplemented


@pytest.mark.parametrize("name", NAMES)
def test_pickle_copy_and_deepcopy_round_trip(name):
    value = build()[name]
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value and repr(clone) == repr(value)
        if name not in RECORDS:
            assert hash(clone) == hash(value)
        if isinstance(value, SentenceSet) and value.universe.mode is Mode.FINITE:
            assert clone.mask == value.mask
        if isinstance(value, ClosureSystem):
            assert clone.lanes == value.lanes and clone.closed == value.closed


def test_deepcopy_copies_mutable_fields():
    report = build()["Report"]
    clone = copy.deepcopy(report)
    clone.data["k"].append(2)
    assert report.data == {"k": [1]}


@pytest.mark.parametrize("name", FROZEN)
def test_assignment_and_deletion_are_refused(name):
    value = build()[name]
    for field in list(inspect.signature(type(value)).parameters) + ["extra"]:
        with pytest.raises(AttributeError) as refused:
            setattr(value, field, None)
        assert type(refused.value) is AttributeError
        assert str(refused.value) == f"cannot assign to field {field!r}"
        with pytest.raises(AttributeError) as refused:
            delattr(value, field)
        assert type(refused.value) is AttributeError
        assert str(refused.value) == f"cannot delete field {field!r}"
    assert value == build()[name]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_take_assignment_to_their_fields_only(name):
    value = build()[name]
    field = list(inspect.signature(type(value)).parameters)[-1]
    setattr(value, field, {"changed": True})
    assert getattr(value, field) == {"changed": True} and value != build()[name]
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_are_the_constructor_parameters_in_slots(cls):
    fields = tuple(inspect.signature(cls).parameters)
    assert cls._fields == fields
    slots = {name for klass in cls.__mro__ for name in getattr(klass, "__slots__", ())}
    assert set(fields) <= slots
    assert not hasattr(build()[cls.__name__], "__dict__")


def test_defaults_are_fresh_per_instance():
    u = make_universe(Mode.FINITE, "a")
    first, second = SpecContext(u), SpecContext(u)
    first.sets["x"] = u.full()
    assert second.sets == {} and Report("c").data is not Report("c").data
