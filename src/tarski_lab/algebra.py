"""The partial order and lattice algebra on consequence operators.

``le(a, b)`` holds when a(X) ⊆ b(X) for every subset X; a failure names
the least counterexample.  ``_orders`` decides ``le(a, b)`` and ``le(b, a)``
in both universes, and ``le``, ``equivalent`` and ``is_chain`` read it.
A finite pair loops over both tables in ascending bitmask order.  On the
naturals the pair goes into one finite model, ``operators._Quotient(a, b)``.
Every expression there is extensive and monotone, so an atomic left
operand (``operators._closed_form``) fails first at a minimal argument,
where ``_orders`` evaluates the right operand, whatever it is.  A "meets"
operand (the identity, ``cxy X Y``) fails at A only at some y ∈ A ∩ Y, and
then at {y}: the witness is {y} for the least y ∈ Y with X ⊄ b({y}), one y
per class of the model, its least element.  A "contains" operand (the top
map, ``cprime X Y``) fails only at supersets of Y, and then at Y, the
witness.  Any other left operand is read on the model's two tables, and
the loop lifts the first failing mask (a model over ``MAX_SWEEP_SIZE``
points is refused before either table is built).  Least is in the set
order of ``operators``, in which the atomic witnesses are the least
failing sets, and so the model's least failing masks: the point at the
least element of the first failing class, and Y's points.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import TYPE_CHECKING, Iterator

from .sets import Mode, ModeError, SentenceSet, Universe, UniverseMismatchError, _Frozen, _setattr
from .operators import (
    Cxy,
    FromTable,
    OperatorConstraintError,
    OperatorExpr,
    _check_pair,
    _closed_form,
    _Quotient,
    evaluate,
    table,
    weak_join_table,
)

if TYPE_CHECKING:
    from .classify import AxiomReport

# Member k of the descending chain excludes k naturals, so its time and memory grow as N².
MAX_DESCENDING_CHAIN = 2000
# The sublattice of G generators on n symbols checks its laws on G³ triples of 2ⁿ-entry tables.
MAX_SUBLATTICE_WORK = 2**24


class Comparison(_Frozen):
    __slots__ = ("holds", "witness")

    def __init__(self, holds: bool, witness: SentenceSet | None = None) -> None:
        _setattr(self, "holds", holds)
        _setattr(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.holds


def le(a: OperatorExpr, b: OperatorExpr) -> Comparison:
    """Pointwise order; on failure carries the least witness X with a(X) ⊄ b(X)."""
    return next(_orders(a, b))


def equivalent(a: OperatorExpr, b: OperatorExpr) -> bool:
    """Pointwise equality of the denoted maps."""
    return all(_orders(a, b))


def _first_failure(left: tuple[int, ...], right: tuple[int, ...], lift) -> Comparison:
    """The order on two tables: the first mask whose left image is not below
    its right one, lifted to a set by ``lift``; equal tables skip the loop."""
    if left != right:
        for m, (p, q) in enumerate(zip(left, right)):
            if p & ~q:
                return Comparison(False, lift(m))
    return Comparison(True)


def _orders(a: OperatorExpr, b: OperatorExpr, tables: tuple | None = None) -> Iterator[Comparison]:
    """``le(a, b)`` and then ``le(b, a)``, each decided when it is asked for.
    In finite mode both read the two operands' tables (``tables``, if given).
    On the naturals both read the pair's joint model, built once: an atomic
    left operand at the model's least elements, any other on its tables."""
    _check_pair(a, b)
    if a.universe.mode is Mode.FINITE:
        model, lift = None, a.universe.from_mask
        tables = tables or (table(a), table(b))
    else:
        model = _Quotient(a, b)
        lift = model.lift
    for i, (left, right) in enumerate(((a, b), (b, a))):
        shape = None if model is None else _closed_form(left)
        if shape is not None:
            yield _le_atomic(*shape, model.leasts, right)
            continue
        tables = tables or model.tables()
        yield _first_failure(tables[i], tables[1 - i], lift)


def _le_atomic(
    kind: str, x: SentenceSet, y: SentenceSet, leasts: list[int], b: OperatorExpr
) -> Comparison:
    """a ≤ b for the atom a of shape (kind, X, Y) on the naturals, read at its
    minimal arguments (module docstring); ``leasts`` are the least elements
    of the pair's classes, ascending."""
    if kind == "contains":
        return Comparison(True) if x.is_subset(evaluate(b, y)) else Comparison(False, y)
    members, finite = set(y.members), y.is_finite()
    for least in leasts:
        # Y is a union of classes: the class lies in Y when its least element does.
        if (least in members) == finite:
            single = y.universe.subset([least])
            if not x.is_subset(evaluate(b, single)):
                return Comparison(False, single)
    return Comparison(True)


# -- relative complements ------------------------------------------------------


class ComplementResult(_Frozen):
    __slots__ = ("candidate", "report", "lattice_ok")

    def __init__(self, candidate: FromTable, report: AxiomReport, lattice_ok: bool) -> None:
        _setattr(self, "candidate", candidate)
        _setattr(self, "report", report)
        _setattr(self, "lattice_ok", lattice_ok)


def relative_complement(
    c: OperatorExpr, c1: OperatorExpr, include_top: bool = False
) -> ComplementResult:
    """Candidate complement of ``c`` relative to ``c1``: (c1(A) − c(A)) ∪ A.

    Requires I < c < c1 strictly.  The top map is rejected as a target
    unless ``include_top`` is set, mirroring its removal from the operator
    lattice.  The returned report states whether the candidate is itself
    a consequence operator; the lattice check asserts the two defining
    equations (naive join back to ``c1``, meet down to the identity).
    Every check reads the two operands' tables, each compiled once.
    """
    # Only the complement checks axioms; order, chain and the sublattice
    # commands load no ``classify``.
    from .classify import check_axioms

    universe = c.universe
    if universe.mode is not Mode.FINITE:
        raise ModeError("relative complements are computed in finite mode only")
    _check_pair(c, c1)
    high = table(c1)
    if not include_top and high == (len(high) - 1,) * len(high):
        raise OperatorConstraintError(
            "the top map is excluded as a complement target (pass include_top to allow it)"
        )
    low, identity = table(c), tuple(range(len(high)))
    if low == identity or not _first_failure(identity, low, universe.from_mask):
        raise OperatorConstraintError("the lower operand must lie strictly above the identity")
    if low == high or not _first_failure(low, high, universe.from_mask):
        raise OperatorConstraintError("the operands must be strictly ordered")

    values = tuple((q & ~p) | m for m, (p, q) in enumerate(zip(low, high)))
    candidate = FromTable(universe, values)
    report = check_axioms(candidate)
    lattice_ok = tuple(map(or_, low, values)) == high and tuple(map(and_, low, values)) == identity
    return ComplementResult(candidate, report, lattice_ok)


# -- chains --------------------------------------------------------------------


class ChainResult(_Frozen):
    __slots__ = ("holds", "violating_pair")

    def __init__(self, holds: bool, violating_pair: tuple[OperatorExpr, OperatorExpr] | None = None) -> None:
        _setattr(self, "holds", holds)
        _setattr(self, "violating_pair", violating_pair)

    def __bool__(self) -> bool:
        return self.holds


def is_chain(family: list[OperatorExpr]) -> ChainResult:
    """Whether every pair in the family is comparable.

    The members' universes are checked first.  In finite mode each
    member's table is then compiled once, and each pair hands its two to
    ``_orders``, which decides the pair both ways, and to composition,
    which decides it again (for closure operators a ≤ b exactly when
    b∘a = b, Thm 3.5); a disagreement means a malformed operand and raises.
    """
    for b in family[1:]:
        _check_pair(family[0], b)
    finite = len(family) > 1 and family[0].universe.mode is Mode.FINITE
    tables = list(map(table, family)) if finite else [None] * len(family)
    for i, (a, ta) in enumerate(zip(family, tables)):
        for b, tb in zip(family[i + 1 :], tables[i + 1 :]):
            comparable = any(_orders(a, b, (ta, tb) if finite else None))
            # b∘a = b or a∘b = a: the outer table o gathered through the inner t is o.
            if finite and comparable != any(tuple(map(o.__getitem__, t)) == o for t, o in ((ta, tb), (tb, ta))):
                raise OperatorConstraintError(
                    "order and composition verdicts disagree; "
                    "an operand is not a consequence operator"
                )
            if not comparable:
                return ChainResult(False, (a, b))
    return ChainResult(True)


# -- the generated sublattice ----------------------------------------------------


class SublatticeReport(_Frozen):
    __slots__ = ("generators", "inf_closed_form", "sup_closed_form", "joins_agree", "distributive", "non_chain_witness")

    def __init__(
        self, generators: tuple[SentenceSet, ...], inf_closed_form: bool, sup_closed_form: bool, joins_agree: bool,
        distributive: bool, non_chain_witness: tuple[SentenceSet, SentenceSet, SentenceSet] | None,
    ) -> None:
        _setattr(self, "generators", generators)
        _setattr(self, "inf_closed_form", inf_closed_form)
        _setattr(self, "sup_closed_form", sup_closed_form)
        _setattr(self, "joins_agree", joins_agree)
        _setattr(self, "distributive", distributive)
        _setattr(self, "non_chain_witness", non_chain_witness)

    @property
    def ok(self) -> bool:
        return (
            self.inf_closed_form
            and self.sup_closed_form
            and self.joins_agree
            and self.distributive
        )


def sublattice_report(b: SentenceSet, generators: list[SentenceSet]) -> SublatticeReport:
    """Verify the lattice structure of the family {Cxy(X, b) : X in generators}.

    Checks the closed forms of the family infimum and supremum, that the
    naive join agrees with the weak join on every pair, distributivity of
    the meet and the weak join on every triple, and emits a non-comparability witness (a qualifying set
    A, the singleton D, and the probe set) whenever some set in the
    union/intersection closure of the generators satisfies the
    non-chain hypothesis: nonempty b ⊆ A with A ≠ b and A ≠ L.
    """
    universe = b.universe
    if universe.mode is not Mode.FINITE:
        raise ModeError("the generated sublattice is analysed in finite mode only")
    if not generators:
        raise ValueError("at least one generator is required")
    for g in generators:
        if g.universe != universe:
            raise UniverseMismatchError("generator from a different universe")
    check_sublattice_work(len(generators), universe.size)
    full = (1 << universe.size) - 1
    b_mask = b.mask
    # Meet and weak join are idempotent, so duplicate tables change no verdict.
    tables = list(dict.fromkeys(table(Cxy(g, b)) for g in generators))

    inf_table = sup_table = tables[0]
    for t in tables[1:]:
        inf_table = tuple(p & q for p, q in zip(inf_table, t))
        sup_table = weak_join_table(sup_table, t)
    inf_ok = inf_table == table(Cxy(reduce(SentenceSet.intersect, generators), b))
    sup_ok = sup_table == table(Cxy(reduce(SentenceSet.union, generators), b))

    joins = {(t1, t2): weak_join_table(t1, t2) for t1 in tables for t2 in tables}
    joins_agree = all(tuple(p | q for p, q in zip(t1, t2)) == w for (t1, t2), w in joins.items())
    distributive = _distributive(tables, joins)

    witness = None
    if b_mask:
        closure = {g.mask for g in generators}
        frontier = list(closure)
        while frontier:
            m = frontier.pop()
            for other in list(closure):
                for new in (m | other, m & other):
                    if new not in closure:
                        closure.add(new)
                        frontier.append(new)
        for a_mask in sorted(closure):
            if a_mask and a_mask != full and b_mask & a_mask == b_mask and a_mask != b_mask:
                a_set = universe.from_mask(a_mask)
                d_set = universe.subset([universe.from_mask(full & ~a_mask).least()])
                if not any(_orders(Cxy(a_set, b), Cxy(d_set, b))):
                    witness = (a_set, d_set, b)
                    break

    return SublatticeReport(
        tuple(generators), inf_ok, sup_ok, joins_agree, distributive, witness
    )


def check_sublattice_work(count: int, n: int) -> None:
    """Refuse ``count`` generators on n symbols when G³·2ⁿ is over ``MAX_SUBLATTICE_WORK``."""
    if count**3 << n > MAX_SUBLATTICE_WORK:
        raise ValueError(f"{count} generators on {n} symbols are over the bound of {MAX_SUBLATTICE_WORK} on G³·2ⁿ")


def _distributive(tables: list[tuple[int, ...]], joins: dict) -> bool:
    """Both distributive laws on every triple of tables, in the operator lattice.

    The meet is ``&`` on tables and the join is the weak join; ``joins``
    holds the weak joins already computed, keyed by operand pair, and
    grows with the ones the laws need.  Meets are memoised for this call
    the same way: the triples revisit a few distinct tables many times.
    """
    meets: dict = {}

    def join(p, q):
        if (p, q) not in joins:
            joins[p, q] = weak_join_table(p, q)
        return joins[p, q]

    def meet(p, q):
        if (p, q) not in meets:
            meets[p, q] = tuple(x & y for x, y in zip(p, q))
        return meets[p, q]

    for t1 in tables:
        for t2 in tables:
            for t3 in tables:
                if meet(t1, join(t2, t3)) != join(meet(t1, t2), meet(t1, t3)):
                    return False
                if join(t1, meet(t2, t3)) != meet(join(t1, t2), join(t1, t3)):
                    return False
    return True


# -- the strictly descending chain ------------------------------------------------


def descending_chain(universe: Universe, n: int) -> list[OperatorExpr]:
    """A strictly decreasing chain of n operators on the infinite universe.

    The k-th member adds the cofinite set missing 1..k whenever the
    argument contains 0; n over ``MAX_DESCENDING_CHAIN`` is refused before
    any member is built.  Strict descent of adjacent links is verified via
    the exact cofinite comparison, and no member may collapse to the
    identity (probed at {0, 1}).
    """
    if universe.mode is not Mode.COFINITE:
        raise ModeError("the descending chain needs the infinite universe")
    if n < 1:
        raise ValueError("chain length must be positive")
    if n > MAX_DESCENDING_CHAIN:
        raise ValueError(f"chain length {n} is over the bound of {MAX_DESCENDING_CHAIN}")
    anchor = universe.subset([0])
    chain: list[OperatorExpr] = [
        Cxy(universe.cosubset(range(1, k + 1)), anchor) for k in range(1, n + 1)
    ]
    probe = universe.subset([0, 1])
    for k, op in enumerate(chain):
        if evaluate(op, probe) == probe:
            raise OperatorConstraintError(f"member {k + 1} degenerated to the identity")
    for upper, lower in zip(chain, chain[1:]):
        below, above = _orders(lower, upper)
        if not below.holds or above.holds:
            raise OperatorConstraintError("chain is not strictly decreasing")
    return chain
