"""Symbolic operator expressions over P(L) and their exact evaluation.

An operator expression denotes a map from subsets of a universe to subsets
of the same universe.  Expressions are immutable values; evaluation is pure
and keeps no state between calls.

Each node class is its own constructor (``Meet(a, b)``, ``FromSystem(s)``),
and each class docstring states its value on an argument A.  Nodes of one
shape share a frozen dataclass base that holds their fields, checks that
they come from one universe, and reports it: ``Identity``, ``Top`` and
``FromTable`` hold a universe; ``Cxy`` and ``CPrime`` hold two parameter
sets X and Y; ``Meet``, ``NaiveJoin`` and ``WeakJoin`` hold two operands.
Nodes of different classes never compare equal, whatever their fields.

``SExample(M, b)`` is the finite-mode example operator: it sends A to the
whole universe when b ∈ A and to M ∪ A otherwise (requiring nonempty M,
b outside M, and at least two elements outside M).  The naive join of two
closure operators need not be idempotent.  ``WeakJoin`` is computed by
iterating the operands to a fixed point.

In finite mode, ``table(op)`` is the whole map at once: ``table(op)[m]`` is
the image mask of the subset with mask m, compiled bottom-up on ints.  A
``ClosureSystem`` is built from closed-set masks (``closed`` is for display)
and holds ``system.table``, the least closed superset of every subset, built
on first use and read by ``table`` for ``FromSystem``; evaluating at one
point scans the closed masks instead.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

from .sets import (
    MAX_SWEEP_SIZE,
    Mode,
    ModeError,
    SentenceSet,
    Universe,
    UniverseMismatchError,
)


class OperatorConstraintError(ValueError):
    """An expression violates one of its construction constraints."""


class OperatorExpr:
    """Base class for the expression variants below; every node is immutable."""

    @property
    def universe(self) -> Universe:
        raise NotImplementedError

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(frozen=True)
class _OnUniverse(OperatorExpr):
    """A node that holds its universe."""

    _universe: Universe

    @property
    def universe(self) -> Universe:
        return self._universe


class Identity(_OnUniverse):
    """Maps every subset to itself."""


class Top(_OnUniverse):
    """Maps every subset to the whole universe."""


@dataclass(frozen=True)
class _Parametric(OperatorExpr):
    """A node with two parameter sets X and Y from one universe."""

    x: SentenceSet
    y: SentenceSet

    def __post_init__(self) -> None:
        if self.x.universe != self.y.universe:
            raise UniverseMismatchError("parameters from different universes")

    @property
    def universe(self) -> Universe:
        return self.x.universe


class Cxy(_Parametric):
    """A ∪ X when A meets Y, otherwise A."""


class CPrime(_Parametric):
    """A ∪ X when Y ⊆ A, otherwise A."""


@dataclass(frozen=True)
class SExample(OperatorExpr):
    m: SentenceSet
    b: int

    def __post_init__(self) -> None:
        u = self.m.universe
        if u.mode is not Mode.FINITE:
            raise ModeError("this operator is defined for finite universes only")
        if not 0 <= self.b < u.size:
            raise OperatorConstraintError(f"trigger element {self.b} out of range")
        if self.m.is_empty():
            raise OperatorConstraintError("the base set must be nonempty")
        if self.b in self.m:
            raise OperatorConstraintError("the trigger element must lie outside the base set")
        if u.size - len(self.m.members) < 2:
            raise OperatorConstraintError("at least two elements must lie outside the base set")

    @property
    def universe(self) -> Universe:
        return self.m.universe


def _check_pair(left: OperatorExpr, right: OperatorExpr) -> None:
    if left.universe != right.universe:
        raise UniverseMismatchError("operands from different universes")


@dataclass(frozen=True)
class _Binary(OperatorExpr):
    """A node with two operands from one universe."""

    left: OperatorExpr
    right: OperatorExpr

    def __post_init__(self) -> None:
        _check_pair(self.left, self.right)

    @property
    def universe(self) -> Universe:
        return self.left.universe


class Meet(_Binary):
    """left(A) ∩ right(A)."""


class NaiveJoin(_Binary):
    """left(A) ∪ right(A); need not be idempotent."""


class WeakJoin(_Binary):
    """The least superset of A fixed by both operands."""


@dataclass(frozen=True)
class Compose(OperatorExpr):
    """outer(inner(A))."""

    outer: OperatorExpr
    inner: OperatorExpr

    def __post_init__(self) -> None:
        _check_pair(self.outer, self.inner)

    @property
    def universe(self) -> Universe:
        return self.outer.universe


@dataclass(frozen=True)
class ClosureSystem:
    """A family of closed sets: contains L and is intersection-closed.

    ``masks`` are the closed sets' bitmasks, sorted ascending on construction;
    ``closed`` renders them as sets, for display.  Finite mode only; the
    closed-set family of an operator on an infinite universe is not
    materialised.
    """

    universe: Universe
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.universe.mode is not Mode.FINITE:
            raise ModeError("closure systems are materialised in finite mode only")
        masks = tuple(sorted(self.masks))
        object.__setattr__(self, "masks", masks)
        full = (1 << self.universe.size) - 1
        for m in masks:
            if not 0 <= m <= full:
                raise OperatorConstraintError(f"closed mask {m:#x} out of range")
        present = set(masks)
        if len(present) != len(masks):
            raise OperatorConstraintError("duplicate closed sets")
        if full not in present:
            raise OperatorConstraintError("the family must contain the whole universe")
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                if a & b not in present:
                    first, second = (self.universe.from_mask(m).literal() for m in (a, b))
                    raise OperatorConstraintError(
                        f"family is not intersection-closed: {first} ∩ {second} missing"
                    )

    @cached_property
    def closed(self) -> tuple[SentenceSet, ...]:
        """The closed sets as ``SentenceSet`` values, in mask order."""
        return tuple(self.universe.from_mask(m) for m in self.masks)

    @cached_property
    def table(self) -> tuple[int, ...]:
        """The mask of the least closed superset of every subset, indexed by mask.

        That is the AND of all closed supersets, L among them: seed each closed
        c with c and every other mask with L, then AND every entry with its
        superset's entry across one bit at a time.
        """
        n = self.universe.size
        out = [(1 << n) - 1] * (1 << n)
        for c in self.masks:
            out[c] = c
        for i in range(n):
            bit = 1 << i
            for m in range(1 << n):
                if not m & bit:
                    out[m] &= out[m | bit]
        return tuple(out)


@dataclass(frozen=True)
class FromSystem(OperatorExpr):
    """Closure via least closed superset in an explicit family."""

    system: ClosureSystem

    @property
    def universe(self) -> Universe:
        return self.system.universe


@dataclass(frozen=True)
class FromTable(_OnUniverse):
    """An arbitrary total map given by its value on every subset.

    ``table[mask]`` is the image mask of the subset with that mask; the
    table must cover all 2^n subsets.  Finite mode only.
    """

    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self._universe.mode is not Mode.FINITE:
            raise ModeError("tables are defined for finite universes only")
        n = self._universe.size
        if len(self.table) != 1 << n:
            raise OperatorConstraintError(
                f"table must be total: expected {1 << n} entries, got {len(self.table)}"
            )
        limit = 1 << n
        for value in self.table:
            if not 0 <= value < limit:
                raise OperatorConstraintError(f"table value {value:#x} out of range")


# -- evaluation ---------------------------------------------------------------


def evaluate(op: OperatorExpr, x: SentenceSet) -> SentenceSet:
    """The exact value of the denoted map at ``x``."""
    if op.universe != x.universe:
        raise UniverseMismatchError("argument from a different universe")
    return _eval(op, x)


_ATOMIC_CLOSURES = (Identity, Top, Cxy, CPrime)


def _eval(op: OperatorExpr, x: SentenceSet) -> SentenceSet:
    if isinstance(op, Identity):
        return x
    if isinstance(op, Top):
        return x.universe.full()
    if isinstance(op, Cxy):
        return x.union(op.x) if not x.intersect(op.y).is_empty() else x
    if isinstance(op, CPrime):
        return x.union(op.x) if op.y.is_subset(x) else x
    if isinstance(op, SExample):
        return x.universe.full() if op.b in x else op.m.union(x)
    if isinstance(op, FromTable):
        return x.universe.from_mask(op.table[x.mask])
    if isinstance(op, FromSystem):
        # The first closed superset; a single point never needs the 2^n table.
        return x.universe.from_mask(next(c for c in op.system.masks if c & x.mask == x.mask))
    if isinstance(op, Meet):
        return _eval(op.left, x).intersect(_eval(op.right, x))
    if isinstance(op, NaiveJoin):
        return _eval(op.left, x).union(_eval(op.right, x))
    if isinstance(op, Compose):
        return _eval(op.outer, _eval(op.inner, x))
    if isinstance(op, WeakJoin):
        return _eval_weak_join(op, x)
    raise TypeError(f"unknown operator expression {op!r}")


def _eval_weak_join(op: WeakJoin, x: SentenceSet) -> SentenceSet:
    universe = op.universe
    if universe.mode is Mode.FINITE:
        return _settle(lambda y: _eval(op.right, _eval(op.left, y)), x, (1 << universe.size) + 1)
    # Cofinite mode: only combinations with a derived closed form are
    # evaluated; anything else is rejected rather than approximated.
    left, right = op.left, op.right
    if isinstance(left, Identity) and isinstance(right, _ATOMIC_CLOSURES):
        return _eval(right, x)
    if isinstance(right, Identity) and isinstance(left, _ATOMIC_CLOSURES):
        return _eval(left, x)
    if isinstance(left, Cxy) and isinstance(right, Cxy) and left.y == right.y:
        return _eval(Cxy(left.x.union(right.x), left.y), x)
    raise ModeError(
        "weak join on an infinite universe is supported only for operands "
        "with a derived closed form"
    )


def _settle(step, y, rounds: int):
    """Iterate ``step`` from ``y`` until it stops changing, within ``rounds``."""
    for _ in range(rounds):
        z = step(y)
        if z == y:
            return y
        y = z
    raise OperatorConstraintError("weak join iteration did not reach a fixed point")


def compose(outer: OperatorExpr, inner: OperatorExpr) -> OperatorExpr:
    """``Compose(outer, inner)``: x -> outer(inner(x)), not necessarily a closure."""
    return Compose(outer, inner)


def table(op: OperatorExpr) -> tuple[int, ...]:
    """The mask of ``evaluate(op, X)`` for every subset X, indexed by X's mask."""
    universe = op.universe
    n = universe.size  # a ModeError on the infinite universe
    if n > MAX_SWEEP_SIZE:
        raise ValueError(f"universe of size {n} is too large for exhaustive sweeps")
    try:
        return _table(op, 1 << n)
    except OperatorConstraintError:
        # _table runs every operand at every argument; evaluation may not reach the failing one.
        return tuple(_eval(op, universe.from_mask(m)).mask for m in range(1 << n))


def _table(op: OperatorExpr, size: int) -> tuple[int, ...]:
    full = size - 1
    if isinstance(op, Identity):
        return tuple(range(size))
    if isinstance(op, Top):
        return (full,) * size
    if isinstance(op, Cxy):
        x, y = op.x.mask, op.y.mask
        return tuple(m | x if m & y else m for m in range(size))
    if isinstance(op, CPrime):
        x, y = op.x.mask, op.y.mask
        return tuple(m | x if m & y == y else m for m in range(size))
    if isinstance(op, SExample):
        base, trigger = op.m.mask, 1 << op.b
        return tuple(full if m & trigger else m | base for m in range(size))
    if isinstance(op, FromTable):
        return op.table
    if isinstance(op, Meet):
        return tuple(p & q for p, q in zip(_table(op.left, size), _table(op.right, size)))
    if isinstance(op, NaiveJoin):
        return tuple(p | q for p, q in zip(_table(op.left, size), _table(op.right, size)))
    if isinstance(op, Compose):
        outer = _table(op.outer, size)
        return tuple(outer[v] for v in _table(op.inner, size))
    if isinstance(op, FromSystem):
        return op.system.table
    if isinstance(op, WeakJoin):
        return weak_join_table(_table(op.left, size), _table(op.right, size))
    raise TypeError(f"unknown operator expression {op!r}")


def weak_join_table(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """The table of ``WeakJoin`` over operands with tables ``left`` and ``right``."""
    size = len(left)
    return tuple(_settle(lambda y: right[left[y]], m, size + 1) for m in range(size))


def to_closure_system(op: OperatorExpr) -> ClosureSystem:
    """The family of fixed points of ``op`` (finite mode).

    For a closure operator this is its closed-set family; the constructor
    validates that the result contains L and is intersection-closed, so a
    non-closure operand surfaces as a constraint error.
    """
    universe = op.universe
    if universe.mode is not Mode.FINITE:
        raise ModeError("closed-set families are enumerated in finite mode only")
    return ClosureSystem(universe, tuple(m for m, v in enumerate(table(op)) if v == m))
