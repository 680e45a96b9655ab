"""The partial order and lattice algebra on consequence operators.

``le(a, b)`` holds when a(X) ⊆ b(X) for every subset X.  Finite universes
are decided on both tables in ascending bitmask order (so witnesses are
the least counterexample).  On the infinite universe the comparison is
decided exactly through closed-form case analysis on the two parametric
families (plus the identity and the top map); anything else raises rather
than samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .sets import Mode, ModeError, SentenceSet, Universe, UniverseMismatchError
from .operators import (
    Compose,
    CPrime,
    Cxy,
    FromTable,
    Identity,
    Meet,
    NaiveJoin,
    OperatorConstraintError,
    OperatorExpr,
    Top,
    WeakJoin,
    evaluate,
    table,
    weak_join_table,
)
from .classify import AxiomReport, check_axioms


class UndecidableComparisonError(ValueError):
    """No exact decision procedure exists for this cofinite operand pair."""


@dataclass(frozen=True)
class Comparison:
    holds: bool
    witness: SentenceSet | None = None

    def __bool__(self) -> bool:
        return self.holds


def le(a: OperatorExpr, b: OperatorExpr) -> Comparison:
    """Pointwise order; on failure carries a witness X with a(X) ⊄ b(X)."""
    if a.universe != b.universe:
        raise UniverseMismatchError("operands from different universes")
    if a.universe.mode is Mode.FINITE:
        for m, (p, q) in enumerate(zip(table(a), table(b))):
            if p & ~q:
                return Comparison(False, a.universe.from_mask(m))
        return Comparison(True)
    return _le_cofinite(a, b)


def equivalent(a: OperatorExpr, b: OperatorExpr) -> bool:
    """Pointwise equality of the denoted maps."""
    if a.universe != b.universe:
        raise UniverseMismatchError("operands from different universes")
    if a.universe.mode is Mode.FINITE:
        return table(a) == table(b)
    return le(a, b).holds and le(b, a).holds


# -- cofinite closed forms ----------------------------------------------------
#
# Every supported operator normalises to one of two shapes:
#   ("meets", X, Y):    A -> A ∪ X when A ∩ Y ≠ ∅   (identity = ("meets", ∅, ∅))
#   ("contains", X, Y): A -> A ∪ X when Y ⊆ A       (top = ("contains", L, ∅))
#
# The order is decided by minimal-argument analysis: for a "meets" left
# operand the binding constraints come from singletons {y} with y ∈ Y, and
# for a "contains" left operand from the single minimal argument Y itself.

_MEETS = "meets"
_CONTAINS = "contains"


def _closed_form(op: OperatorExpr) -> tuple[str, SentenceSet, SentenceSet]:
    u = op.universe
    if isinstance(op, Identity):
        return (_MEETS, u.empty(), u.empty())
    if isinstance(op, Top):
        return (_CONTAINS, u.full(), u.empty())
    if isinstance(op, Cxy):
        return (_MEETS, op.x, op.y)
    if isinstance(op, CPrime):
        return (_CONTAINS, op.x, op.y)
    raise UndecidableComparisonError(
        f"no exact comparison for {type(op).__name__} on an infinite universe"
    )


def _singleton_violation(x: SentenceSet, over: SentenceSet) -> int | None:
    """Least y in ``over`` with x ⊄ {y}, or None when every y satisfies it."""
    if x.is_empty() or over.is_empty():
        return None
    if x.cardinality() == 1:
        rest = over.difference(x)
        return None if rest.is_empty() else rest.least()
    return over.least()


def _le_cofinite(a: OperatorExpr, b: OperatorExpr) -> Comparison:
    kind_a, x1, y1 = _closed_form(a)
    kind_b, x2, y2 = _closed_form(b)
    u = a.universe
    if kind_a == _MEETS:
        # Binding arguments are the singletons {y}, y ∈ Y1.
        if kind_b == _MEETS:
            v1 = _singleton_violation(x1, y1.difference(y2))
            v2 = _singleton_violation(x1.difference(x2), y1.intersect(y2))
        else:
            if y2.is_empty():
                v1, v2 = None, _singleton_violation(x1.difference(x2), y1)
            elif y2.cardinality() == 1:
                v1 = _singleton_violation(x1, y1.difference(y2))
                inside = y1.intersect(y2)
                v2 = _singleton_violation(x1.difference(x2), inside)
            else:
                v1, v2 = _singleton_violation(x1, y1), None
        hits = [v for v in (v1, v2) if v is not None]
        if not hits:
            return Comparison(True)
        return Comparison(False, u.subset([min(hits)]))
    # "contains" left operand: the single binding argument is Y1 itself.
    if kind_b == _MEETS:
        relaxed = not y1.intersect(y2).is_empty()
    else:
        relaxed = y2.is_subset(y1)
    needed = x1.difference(x2) if relaxed else x1
    if needed.is_subset(y1):
        return Comparison(True)
    return Comparison(False, y1)


# -- weak join -----------------------------------------------------------------


def weak_join(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """``WeakJoin(a, b)``, refused here rather than at evaluation when cofinite
    operands have no closed form."""
    expr = WeakJoin(a, b)
    if a.universe.mode is Mode.COFINITE:
        # Fail fast on unsupported operand combinations.
        evaluate(expr, a.universe.empty())
    return expr


# -- relative complements ------------------------------------------------------


@dataclass(frozen=True)
class ComplementResult:
    candidate: FromTable
    report: AxiomReport
    lattice_ok: bool


def relative_complement(
    c: OperatorExpr, c1: OperatorExpr, include_top: bool = False
) -> ComplementResult:
    """Candidate complement of ``c`` relative to ``c1``: (c1(A) − c(A)) ∪ A.

    Requires I < c < c1 strictly.  The top map is rejected as a target
    unless ``include_top`` is set, mirroring its removal from the operator
    lattice.  The returned report states whether the candidate is itself
    a consequence operator; the lattice check asserts the two defining
    equations (naive join back to ``c1``, meet down to the identity).
    """
    universe = c.universe
    if universe.mode is not Mode.FINITE:
        raise ModeError("relative complements are computed in finite mode only")
    if c.universe != c1.universe:
        raise UniverseMismatchError("operands from different universes")
    ident = Identity(universe)
    if not include_top and equivalent(c1, Top(universe)):
        raise OperatorConstraintError(
            "the top map is excluded as a complement target (pass include_top to allow it)"
        )
    if not (le(ident, c).holds and not equivalent(ident, c)):
        raise OperatorConstraintError("the lower operand must lie strictly above the identity")
    if not (le(c, c1).holds and not equivalent(c, c1)):
        raise OperatorConstraintError("the operands must be strictly ordered")

    values = ((q & ~p) | m for m, (p, q) in enumerate(zip(table(c), table(c1))))
    candidate = FromTable(universe, tuple(values))
    report = check_axioms(candidate)
    lattice_ok = equivalent(NaiveJoin(c, candidate), c1) and equivalent(Meet(c, candidate), ident)
    return ComplementResult(candidate, report, lattice_ok)


# -- chains --------------------------------------------------------------------


@dataclass(frozen=True)
class ChainResult:
    holds: bool
    violating_pair: tuple[OperatorExpr, OperatorExpr] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _equal_same_family(kind: str, p: SentenceSet, q: SentenceSet, y: SentenceSet) -> bool:
    """Pointwise equality of two same-family operators sharing parameter Y."""
    diff = p.difference(q).union(q.difference(p))
    if kind == _MEETS:
        return _singleton_violation(diff, y) is None
    return diff.is_subset(y)


def _comparable_by_composition(a: OperatorExpr, b: OperatorExpr) -> bool:
    """Whether a and b are comparable, decided through composition identities.

    A pair of closure operators is comparable exactly when composing the
    larger after the smaller reproduces the larger.  Finite universes check
    this by exhaustive evaluation; the infinite universe handles operands
    that are semantically the identity or the top map, and same-family
    pairs sharing their second parameter, where the composite has the
    closed form family(X1 ∪ X2, Y).
    """
    if a.universe.mode is Mode.FINITE:
        return equivalent(Compose(b, a), b) or equivalent(Compose(a, b), a)
    for one, other in ((a, b), (b, a)):
        kind, x, y = _closed_form(one)
        if kind == _MEETS and _singleton_violation(x, y) is None:
            return True  # semantically the identity: other ∘ id = other
        if kind == _CONTAINS and y.is_empty() and x.is_full():
            return True  # semantically the top map: top ∘ other = top
    kind_a, x1, y1 = _closed_form(a)
    kind_b, x2, y2 = _closed_form(b)
    if kind_a == kind_b and y1 == y2:
        composite_x = x1.union(x2)
        return _equal_same_family(kind_a, composite_x, x2, y1) or _equal_same_family(
            kind_a, composite_x, x1, y1
        )
    raise UndecidableComparisonError(
        "no composition closed form for this cofinite operand pair"
    )


def is_chain(family: list[OperatorExpr]) -> ChainResult:
    """Whether every pair in the family is comparable.

    Each pair is decided twice: through ``le`` and through the composition
    characterisation; the two verdicts must agree (they coincide exactly
    for consequence operators, so a disagreement means a malformed operand
    and raises).
    """
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            via_le = le(a, b).holds or le(b, a).holds
            via_comp = _comparable_by_composition(a, b)
            if via_le != via_comp:
                raise OperatorConstraintError(
                    "order and composition verdicts disagree; "
                    "an operand is not a consequence operator"
                )
            if not via_le:
                return ChainResult(False, (a, b))
    return ChainResult(True)


# -- the generated sublattice ----------------------------------------------------


@dataclass(frozen=True)
class SublatticeReport:
    generators: tuple[SentenceSet, ...]
    inf_closed_form: bool
    sup_closed_form: bool
    joins_agree: bool
    distributive: bool
    non_chain_witness: tuple[SentenceSet, SentenceSet, SentenceSet] | None

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
    full = (1 << universe.size) - 1
    b_mask = b.mask
    tables = [table(Cxy(g, b)) for g in generators]

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
                op_a, op_d = Cxy(a_set, b), Cxy(d_set, b)
                if not le(op_a, op_d).holds and not le(op_d, op_a).holds:
                    witness = (a_set, d_set, b)
                    break

    return SublatticeReport(
        tuple(generators), inf_ok, sup_ok, joins_agree, distributive, witness
    )


def _distributive(tables: list[tuple[int, ...]], joins: dict) -> bool:
    """Both distributive laws on every triple of tables, in the operator lattice.

    The meet is ``&`` on tables and the join is the weak join; ``joins``
    holds the weak joins already computed, keyed by operand pair, and
    grows with the ones the laws need.
    """

    def join(p, q):
        if (p, q) not in joins:
            joins[p, q] = weak_join_table(p, q)
        return joins[p, q]

    def meet(p, q):
        return tuple(x & y for x, y in zip(p, q))

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
    argument contains 0.  Strict descent of adjacent links is verified via
    the exact cofinite comparison, and no member may collapse to the
    identity (probed at {0, 1}).
    """
    if universe.mode is not Mode.COFINITE:
        raise ModeError("the descending chain needs the infinite universe")
    if n < 1:
        raise ValueError("chain length must be positive")
    anchor = universe.subset([0])
    chain: list[OperatorExpr] = [
        Cxy(universe.cosubset(range(1, k + 1)), anchor) for k in range(1, n + 1)
    ]
    probe = universe.subset([0, 1])
    for k, op in enumerate(chain):
        if evaluate(op, probe) == probe:
            raise OperatorConstraintError(f"member {k + 1} degenerated to the identity")
    for upper, lower in zip(chain, chain[1:]):
        if not le(lower, upper).holds or le(upper, lower).holds:
            raise OperatorConstraintError("chain is not strictly decreasing")
    return chain
