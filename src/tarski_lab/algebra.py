"""The partial order and lattice algebra on consequence operators, and Thm
3.1's sublattice on masks and ``Cxy`` tables, its laws on one table store.

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

from functools import partialmethod, reduce
from itertools import combinations_with_replacement, product
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
    _cxy_table,
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


def _first_failure(left: tuple[int, ...], right: tuple[int, ...]) -> int | None:
    """The order on two tables: the first mask whose left image is not below
    its right one, or None when there is none; equal tables skip the loop."""
    if left != right:
        for m, (p, q) in enumerate(zip(left, right)):
            if p & ~q:
                return m
    return None


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
        failure = _first_failure(tables[i], tables[1 - i])
        yield Comparison(True) if failure is None else Comparison(False, lift(failure))


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
    if low == identity or _first_failure(identity, low) is not None:
        raise OperatorConstraintError("the lower operand must lie strictly above the identity")
    if low == high or _first_failure(low, high) is not None:
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
        return self.inf_closed_form and self.sup_closed_form and self.joins_agree and self.distributive


def sublattice_report(b: SentenceSet, generators: list[SentenceSet]) -> SublatticeReport:
    """Verify the lattice structure of the family {Cxy(X, b) : X in generators} (Thm 3.1).

    Checks the closed forms of the family infimum and supremum, that the
    naive join is the weak join on every pair, and both distributive laws
    on every triple.  The non-chain witness (A, the singleton D of the least
    element outside A, and b) has the least A in the ∪/∩ closure of the
    generators with nonempty b ⊆ A, A ≠ b and A ≠ L whose two ``Cxy`` are
    incomparable.  Past the refusals all is ints: each distinct mask X
    becomes the table of ``Cxy(X, b)`` (``_cxy_table``), the closure is
    every ∪ of every ∩ of the masks, and only the witness becomes sets.
    """
    universe = b.universe
    if universe.mode is not Mode.FINITE:
        raise ModeError("the generated sublattice is analysed in finite mode only")
    if not generators:
        raise ValueError("at least one generator is required")
    if any(g.universe != universe for g in generators):
        raise UniverseMismatchError("generator from a different universe")
    check_sublattice_work(len(generators), universe.size)
    size, b_mask = 1 << universe.size, b.mask
    masks = list(dict.fromkeys(g.mask for g in generators))
    lattice = _Lattice([_cxy_table(g, b_mask, size) for g in masks])
    inf_ok = lattice.tables[reduce(lattice.meet, lattice.given)] == _cxy_table(reduce(and_, masks), b_mask, size)
    sup_ok = lattice.tables[reduce(lattice.join, lattice.given)] == _cxy_table(reduce(or_, masks), b_mask, size)

    witness = None
    if b_mask:
        meets: set[int] = set()
        for g in masks:
            meets |= {g & m for m in meets} | {g}
        closure: set[int] = set()
        for m in meets:
            closure |= {m | c for c in closure} | {m}
        for a in sorted(closure):
            if a != size - 1 and a & b_mask == b_mask and a != b_mask:
                d = ~a & (a + 1)
                ta, td = _cxy_table(a, b_mask, size), _cxy_table(d, b_mask, size)
                if _first_failure(ta, td) is not None and _first_failure(td, ta) is not None:
                    witness = (universe.from_mask(a), universe.from_mask(d), b)
                    break

    return SublatticeReport(tuple(generators), inf_ok, sup_ok, lattice.joins_agree(), lattice.distributive(), witness)


def check_sublattice_work(count: int, n: int) -> None:
    """Refuse ``count`` generators on n symbols when G³·2ⁿ is over ``MAX_SUBLATTICE_WORK``."""
    if count**3 << n > MAX_SUBLATTICE_WORK:
        raise ValueError(f"{count} generators on {n} symbols are over the bound of {MAX_SUBLATTICE_WORK} on G³·2ⁿ")


class _Lattice:
    """The table store of the sublattice: closure tables, each named by an
    index and hashed once, when made; ``given`` names those it is built from.
    ``meet`` (``&`` per mask, as ``_table`` compiles ``Meet``) and ``join``
    (the weak join) map two names to one, each pair computed once."""

    def __init__(self, tables: list[tuple[int, ...]]) -> None:
        self.tables: list[tuple[int, ...]] = []
        self._names: dict[tuple[int, ...], int] = {}
        self._done: dict[tuple[bool, int, int], int] = {}
        self.given = list(dict.fromkeys(map(self._name, tables)))

    def _name(self, t: tuple[int, ...]) -> int:
        name = self._names.setdefault(t, len(self.tables))
        if name == len(self.tables):
            self.tables.append(t)
        return name

    def _combine(self, join: bool, i: int, j: int) -> int:
        # Both operations commute on closure tables and keep them closure tables.
        key = (join, min(i, j), max(i, j))
        if key not in self._done:
            p, q = self.tables[i], self.tables[j]
            self._done[key] = self._name(weak_join_table(p, q) if join else tuple(map(and_, p, q)))
        return self._done[key]

    meet = partialmethod(_combine, False)
    join = partialmethod(_combine, True)

    def joins_agree(self) -> bool:
        """Whether the naive join (``|`` per mask) is the weak join on every pair."""
        pairs = combinations_with_replacement(self.given, 2)
        return all(tuple(map(or_, self.tables[i], self.tables[j])) == self.tables[self.join(i, j)] for i, j in pairs)

    def distributive(self) -> bool:
        """Both distributive laws on every triple, each symmetric in its last two operands."""
        meet, join = self.meet, self.join
        return all(
            meet(i, join(j, k)) == join(meet(i, j), meet(i, k)) and join(i, meet(j, k)) == meet(join(i, j), join(i, k))
            for i, (j, k) in product(self.given, combinations_with_replacement(self.given, 2))
        )


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
