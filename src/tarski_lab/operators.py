"""Symbolic operator expressions over P(L) and their exact evaluation.

An operator expression denotes a map from subsets of a universe to subsets
of the same universe.  Expressions are immutable values; evaluation is pure
and keeps no state between calls.

Each node class is its own constructor (``Meet(a, b)``, ``FromSystem(s)``),
and each class docstring states its value on an argument A.  Nodes of one
shape share a base (on ``sets._Frozen``) that holds their fields, checks
that they come from one universe, and reports it: ``Identity``, ``Top`` and
``FromTable`` hold a universe; ``Cxy`` and ``CPrime`` hold two parameter
sets X and Y; ``Meet``, ``NaiveJoin`` and ``WeakJoin`` hold two operands.
Nodes of different classes never compare equal, whatever their fields.

``SExample(M, b)`` is the finite-mode example operator: it sends A to the
whole universe when b ∈ A and to M ∪ A otherwise (requiring nonempty M,
b outside M, and at least two elements outside M).  The naive join of two
closure operators need not be idempotent.

On the naturals ``_closed_form`` gives the shape of the four atomic
operators, which their axiom verdicts read, and ``algebra``'s order when
one is the left operand.  Every expression is exactly an operator on a
finite model, a ``_Quotient``, which one or more expressions share:
``check`` on a composite reads the model of one's table, and ``algebra``'s
order the joint model of both operands, at its classes' least elements or
on its tables, which it refuses over ``MAX_SWEEP_SIZE`` points.  Classes
are the listed elements (in some literal of a parameter of any of them),
grouped by the parameters they lie in, and the tail of every unlisted
natural, so each parameter is a union of classes.  By induction on the
node, C(A) ∩ c is A ∩ c or c, and which depends only on whether each
A ∩ c' is empty, partial or full: ``I`` keeps A ∩ c, ``U`` gives c,
``cxy X Y`` fills X's classes when A meets a class of Y, ``cprime X Y``
when A fills Y's classes, ``meet`` and ``join`` act per class,
``comp(E, F)`` applies E to F(A), and ``wjoin(E, F)`` iterates the
extensive y ↦ F(E(y)), each round that changes y filling a class, so it
settles within (listed elements + 2) rounds; ``s``, ``table[...]`` and
``system[...]`` refuse the naturals.  The model is the operator restricted
to its points, naturals: the element of a one-element class, the least and
greatest of any other, and the tail's two least; a parameter is the points
in it.  A set A of points lifts to A with each class whose points it holds
brought in whole (a held tail: cofinite), which meets each class as A does,
so the model's C(A) is C(lift A) ∩ points and lifts to C(lift A): every
mask is a set.  Points rank by value, but the second tail point above all;
so on the masks that hold no class's greatest point without its least, the
least sets of their states, mask order is the set order on ℕ (S < T when
the greatest element of S △ T lies in T; finite sets lie below cofinite
ones), and any other mask has the states of a smaller one: the least
failing mask lifts to the least failing set, whatever the model's
parameters.  X↓, X with its part of the tail cut to one element, is a
finite part with X's states but a held tail, only met, and no finite part
has more; C is monotone, so (iii) fails at X exactly when C(X) ⊄ C(X↓) ∪ X:
on the model, at a mask holding both tail points, X↓ that mask less the top.

In finite mode, ``table(op)`` is the whole map at once: ``table(op)[m]`` is
the image mask of the subset with mask m, compiled bottom-up on ints.  A
``ClosureSystem`` is built from closed-set masks (``closed`` is for display)
and stores its closure table (the least closed superset of every subset) in
one form, packed: ``system.lanes``, built on first use and kept.
``system.table`` is a view of those bytes, built on each read, and ``table``
reads it for ``FromSystem``; evaluating at one point scans the closed masks
instead.  ``classify``'s family passes read the lanes of many systems.

The lane encoding lives here too, below ``classify``'s axiom kernel: a table
packs into one int, one little-endian lane of ``_lane_width(n)`` bytes per
image (``_LANE_CODES`` names the ``struct`` code of each width), and
``_superset_and`` ANDs every lane with the lanes of its supersets in one
masked shift of the whole int per bit (``_zeta_steps``).  ``_closure_lanes``
is one such pass over the closure tables of one family, for ``system.lanes``,
or of all, for ``classify``'s store, whose systems receive their lanes.  It
builds one selector at a time, except on at most eight symbols for one
table, where ``_byte_lane_steps`` keeps them per n.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from .sets import (
    Mode,
    ModeError,
    SentenceSet,
    Universe,
    UniverseMismatchError,
    _Frozen,
    _setattr,
)

# Tables and exhaustive sweeps have 2^n entries; beyond this size they are hopeless.
MAX_SWEEP_SIZE = 24

# The ``struct`` code of a little-endian lane of 1, 2 or 4 bytes.
_LANE_CODES = {1: "B", 2: "H", 4: "I"}


def _refuse_oversized(n: int) -> None:
    if n > MAX_SWEEP_SIZE:
        raise ValueError(f"universe of size {n} is too large for exhaustive sweeps")


def _lane_width(n: int) -> int:
    """Bytes per lane: 1, 2 or 4, enough for a mask of n bits."""
    return 1 if n <= 8 else 2 if n <= 16 else 4


def _zeta_steps(n: int, width: int, count: int) -> Iterator[tuple[int, int]]:
    """Per bit b of ``count`` tables on n symbols packed end to end in lanes of
    ``width`` bytes: the selector, which fills with L every lane whose index
    within its table has bit b, and the shift, which moves a lane m to m + 2ᵇ.
    The pattern repeats every table, so a shift never carries a lane across a
    table boundary.  Each selector is built as it is asked for."""
    size = 1 << n
    empty, full = bytes(width), (size - 1).to_bytes(width, "little")
    for b in range(n):
        run = 1 << b
        selector = int.from_bytes((empty * run + full * run) * (count * size >> b + 1), "little")
        yield selector, 8 * width * run


@lru_cache(maxsize=None)
def _byte_lane_steps(n: int) -> tuple[tuple[int, int], ...]:
    """The steps of one table on at most eight symbols, kept for each such n:
    n selectors of at most 256 bytes each, which cost more to build than the
    superset-AND."""
    return tuple(_zeta_steps(n, 1, 1))


def _superset_and(packed: int, steps: Iterable[tuple[int, int]]) -> int:
    """The packed tables with lane s holding the AND of the lanes r ⊇ s of its
    table: one masked shift of the whole int per bit."""
    for selector, shift in steps:
        packed &= ((packed & selector) >> shift) | selector
    return packed


def _closure_lanes(families: Sequence[Sequence[int]], n: int) -> int:
    """The closure tables of ``families`` (closed masks on n symbols) end to end
    in one int, lane m of table i the AND of family i's closed supersets of m:
    L in every lane, then c in lane c of each closed c, then ``_superset_and``."""
    size, width, count = 1 << n, _lane_width(n), len(families)
    lane = struct.Struct(f"<{_LANE_CODES[width]}")
    seeded = bytearray(lane.pack(size - 1) * (size * count))
    for base, masks in zip(range(0, size * count, size), families):
        for c in masks:
            lane.pack_into(seeded, (base + c) * width, c)
    steps = _byte_lane_steps(n) if count == width == 1 else _zeta_steps(n, width, count)
    return _superset_and(int.from_bytes(seeded, "little"), steps)


class OperatorConstraintError(ValueError):
    """An expression violates one of its construction constraints."""


class OperatorExpr(_Frozen):
    """Base class for the expression variants below; every node is immutable."""

    __slots__ = ()

    @property
    def universe(self) -> Universe:
        raise NotImplementedError


class _OnUniverse(OperatorExpr):
    """A node that holds its universe."""

    __slots__ = ("_universe",)

    def __init__(self, _universe: Universe) -> None:
        _setattr(self, "_universe", _universe)

    @property
    def universe(self) -> Universe:
        return self._universe


class Identity(_OnUniverse):
    """Maps every subset to itself."""

    __slots__ = ()


class Top(_OnUniverse):
    """Maps every subset to the whole universe."""

    __slots__ = ()


class _Parametric(OperatorExpr):
    """A node with two parameter sets X and Y from one universe."""

    __slots__ = ("x", "y")

    def __init__(self, x: SentenceSet, y: SentenceSet) -> None:
        if x.universe != y.universe:
            raise UniverseMismatchError("parameters from different universes")
        _setattr(self, "x", x)
        _setattr(self, "y", y)

    @property
    def universe(self) -> Universe:
        return self.x.universe


class Cxy(_Parametric):
    """A ∪ X when A meets Y, otherwise A."""

    __slots__ = ()


class CPrime(_Parametric):
    """A ∪ X when Y ⊆ A, otherwise A."""

    __slots__ = ()


class SExample(OperatorExpr):
    __slots__ = ("m", "b")

    def __init__(self, m: SentenceSet, b: int) -> None:
        u = m.universe
        if u.mode is not Mode.FINITE:
            raise ModeError("this operator is defined for finite universes only")
        if not 0 <= b < u.size:
            raise OperatorConstraintError(f"trigger element {b} out of range")
        if m.is_empty():
            raise OperatorConstraintError("the base set must be nonempty")
        if b in m:
            raise OperatorConstraintError("the trigger element must lie outside the base set")
        if u.size - len(m.members) < 2:
            raise OperatorConstraintError("at least two elements must lie outside the base set")
        _setattr(self, "m", m)
        _setattr(self, "b", b)

    @property
    def universe(self) -> Universe:
        return self.m.universe


def _check_pair(left: OperatorExpr, right: OperatorExpr) -> None:
    if left.universe != right.universe:
        raise UniverseMismatchError("operands from different universes")


class _Binary(OperatorExpr):
    """A node with two operands from one universe."""

    __slots__ = ("left", "right")

    def __init__(self, left: OperatorExpr, right: OperatorExpr) -> None:
        _check_pair(left, right)
        _setattr(self, "left", left)
        _setattr(self, "right", right)

    @property
    def universe(self) -> Universe:
        return self.left.universe


class Meet(_Binary):
    """left(A) ∩ right(A)."""

    __slots__ = ()


class NaiveJoin(_Binary):
    """left(A) ∪ right(A); need not be idempotent."""

    __slots__ = ()


class WeakJoin(_Binary):
    """The least superset of A fixed by both operands."""

    __slots__ = ()


class Compose(OperatorExpr):
    """outer(inner(A))."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: OperatorExpr, inner: OperatorExpr) -> None:
        _check_pair(outer, inner)
        _setattr(self, "outer", outer)
        _setattr(self, "inner", inner)

    @property
    def universe(self) -> Universe:
        return self.outer.universe


class ClosureSystem(_Frozen):
    """A family of closed sets: contains L and is intersection-closed.

    ``masks`` are the closed sets' bitmasks, sorted ascending on construction;
    ``closed`` renders them as sets, for display.  Finite mode only; the
    closed-set family of an operator on an infinite universe is not
    materialised.
    """

    __slots__ = ("universe", "masks", "_lanes", "_closed")

    def __init__(self, universe: Universe, masks: tuple[int, ...]) -> None:
        if universe.mode is not Mode.FINITE:
            raise ModeError("closure systems are materialised in finite mode only")
        masks = tuple(sorted(masks))
        full = (1 << universe.size) - 1
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
                    first, second = (universe.from_mask(m).literal() for m in (a, b))
                    raise OperatorConstraintError(
                        f"family is not intersection-closed: {first} ∩ {second} missing"
                    )
        self._fill(universe, masks, None)

    def _fill(self, universe: Universe, masks: tuple[int, ...], lanes: bytes | None) -> None:
        _setattr(self, "universe", universe)
        _setattr(self, "masks", masks)
        _setattr(self, "_lanes", lanes)
        _setattr(self, "_closed", None)

    @property
    def closed(self) -> tuple[SentenceSet, ...]:
        """The closed sets as ``SentenceSet`` values, in mask order: built on
        first use and kept."""
        if self._closed is None:
            _setattr(self, "_closed", tuple(self.universe.from_mask(m) for m in self.masks))
        return self._closed

    @classmethod
    def _trusted(cls, universe: Universe, masks: tuple[int, ...], lanes: bytes) -> ClosureSystem:
        """A system from sorted masks known to hold L and to be intersection-closed,
        and its ``lanes``, unvalidated; only ``classify``'s store builds these."""
        system = object.__new__(cls)
        system._fill(universe, masks, lanes)
        return system

    @property
    def lanes(self) -> bytes:
        """The closure table packed one little-endian lane of ``_lane_width(n)``
        bytes per subset, in mask order: lane m holds the mask of the least
        closed superset of m (``_closure_lanes``): built on first use and
        kept, or given by the store.
        """
        if self._lanes is None:
            n = self.universe.size
            _refuse_oversized(n)
            _setattr(self, "_lanes", _closure_lanes([self.masks], n).to_bytes(_lane_width(n) << n, "little"))
        return self._lanes

    @property
    def table(self) -> tuple[int, ...]:
        """The mask of the least closed superset of every subset, indexed by
        mask: a view of ``lanes``, built on each read."""
        lanes = self.lanes
        n = self.universe.size
        if n <= 8:
            return tuple(lanes)
        return struct.unpack(f"<{1 << n}{_LANE_CODES[_lane_width(n)]}", lanes)


class FromSystem(OperatorExpr):
    """Closure via least closed superset in an explicit family."""

    __slots__ = ("system",)

    def __init__(self, system: ClosureSystem) -> None:
        _setattr(self, "system", system)

    @property
    def universe(self) -> Universe:
        return self.system.universe


class FromTable(_OnUniverse):
    """An arbitrary total map given by its value on every subset.

    ``table[mask]`` is the image mask of the subset with that mask; the
    table must cover all 2^n subsets.  Finite mode only.
    """

    __slots__ = ("table",)

    def __init__(self, _universe: Universe, table: tuple[int, ...]) -> None:
        if _universe.mode is not Mode.FINITE:
            raise ModeError("tables are defined for finite universes only")
        n = _universe.size
        if len(table) != 1 << n:
            raise OperatorConstraintError(
                f"table must be total: expected {1 << n} entries, got {len(table)}"
            )
        limit = 1 << n
        for value in table:
            if not 0 <= value < limit:
                raise OperatorConstraintError(f"table value {value:#x} out of range")
        _setattr(self, "_universe", _universe)
        _setattr(self, "table", table)


# -- evaluation ---------------------------------------------------------------


def evaluate(op: OperatorExpr, x: SentenceSet) -> SentenceSet:
    """The exact value of the denoted map at ``x``."""
    if op.universe != x.universe:
        raise UniverseMismatchError("argument from a different universe")
    return _eval(op, x)


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
        rounds = (1 << universe.size) + 1
    else:
        # A round that changes the value fills a class (module docstring).
        rounds = len({e for s in _parameters(op) for e in s.members}) + 2
    for _ in range(rounds):
        y = _eval(op.right, _eval(op.left, x))
        if y == x:
            return x
        x = y
    raise OperatorConstraintError("weak join iteration did not reach a fixed point")


def _closed_form(op: OperatorExpr) -> tuple[str, SentenceSet, SentenceSet] | None:
    """The shape of an atomic operator, or None for every other node.

    ``("meets", X, Y)`` is A ↦ A ∪ X when A ∩ Y ≠ ∅, and ``("contains", X, Y)``
    is A ↦ A ∪ X when Y ⊆ A: the identity is meets ∅ ∅ and the top map
    contains L ∅.
    """
    if isinstance(op, Identity):
        return ("meets", op.universe.empty(), op.universe.empty())
    if isinstance(op, Top):
        return ("contains", op.universe.full(), op.universe.empty())
    if isinstance(op, Cxy):
        return ("meets", op.x, op.y)
    if isinstance(op, CPrime):
        return ("contains", op.x, op.y)
    return None


def _parameters(op: OperatorExpr) -> list[SentenceSet]:
    """The parameter sets X and Y of every ``Cxy`` and ``CPrime`` leaf of ``op``."""
    if isinstance(op, _Parametric):
        return [op.x, op.y]
    if isinstance(op, (_Binary, Compose)):
        return [s for child in op._values() for s in _parameters(child)]
    return []


class _Quotient:
    """The finite model of one or more expressions on the naturals (module
    docstring): ``classes`` but the tail, their least elements and the
    tail's in ``leasts``, bit i for ``points[i]``, and ``tail`` the tail's
    two points.  Only ``tables`` refuses over ``MAX_SWEEP_SIZE`` points."""

    def __init__(self, *ops: OperatorExpr) -> None:
        self.ops, self.naturals = ops, ops[0].universe
        params = [s for op in ops for s in _parameters(op)]
        self.listed = set().union(*(s.members for s in params))
        # Refine the partition by one parameter at a time, each pass linear in the listed elements.
        groups = [self.listed] if self.listed else []
        for s in params:
            members = set(s.members)
            groups = [part for g in groups for part in (g & members, g - members) if part]
        self.classes = sorted(map(sorted, groups))
        self.tail = sorted(set(range(len(self.listed) + 2)).difference(self.listed))[:2]
        self.leasts = sorted([members[0] for members in self.classes] + self.tail[:1])
        ends = {e for members in self.classes for e in (members[0], members[-1])}
        self.points = sorted(ends.union(self.tail[:1])) + self.tail[1:]

    def tables(self) -> list[tuple[int, ...]]:
        """The table of each expression on the points, in the order given."""
        if len(self.points) > MAX_SWEEP_SIZE:
            raise ValueError(f"the finite model has {len(self.points)} points; exact checks stop at {MAX_SWEEP_SIZE}")
        universe = Universe(Mode.FINITE, tuple(map(str, self.points)))
        return [table(self._on_model(op, universe)) for op in self.ops]

    def _on_model(self, op: OperatorExpr, universe: Universe) -> OperatorExpr:
        """``op`` on ``universe``, each parameter the points that lie in it."""
        if isinstance(op, _Parametric):
            masks = (sum(1 << i for i, p in enumerate(self.points) if p in s) for s in (op.x, op.y))
            return type(op)(*map(universe.from_mask, masks))
        if isinstance(op, (_Binary, Compose)):
            return type(op)(*(self._on_model(child, universe) for child in op._values()))
        return type(op)(universe)

    def lift(self, mask: int) -> SentenceSet:
        """The points in ``mask`` on the naturals, with each class whose points
        are all held brought in whole, a held tail making the set cofinite."""
        held = {p for i, p in enumerate(self.points) if mask >> i & 1}
        kept = held.union(*(c for c in self.classes if c[0] in held and c[-1] in held))
        if held.issuperset(self.tail):
            return self.naturals.cosubset(sorted(self.listed.difference(kept)))
        return self.naturals.subset(kept)


def compose(outer: OperatorExpr, inner: OperatorExpr) -> OperatorExpr:
    """``Compose(outer, inner)``: x -> outer(inner(x)), not necessarily a closure."""
    return Compose(outer, inner)


def table(op: OperatorExpr) -> tuple[int, ...]:
    """The mask of ``evaluate(op, X)`` for every subset X, indexed by X's mask."""
    universe = op.universe
    n = universe.size  # a ModeError on the infinite universe
    _refuse_oversized(n)
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
        return _cxy_table(op.x.mask, op.y.mask, size)
    if isinstance(op, CPrime):
        return _cprime_table(op.x.mask, op.y.mask, size)
    if isinstance(op, SExample):
        base, trigger = op.m.mask, 1 << op.b
        return tuple([full if m & trigger else m | base for m in range(size)])
    if isinstance(op, FromTable):
        return op.table
    if isinstance(op, Meet):
        return tuple(map(and_, _table(op.left, size), _table(op.right, size)))
    if isinstance(op, NaiveJoin):
        return tuple(map(or_, _table(op.left, size), _table(op.right, size)))
    if isinstance(op, Compose):
        outer = _table(op.outer, size)
        return tuple([outer[v] for v in _table(op.inner, size)])
    if isinstance(op, FromSystem):
        return op.system.table
    if isinstance(op, WeakJoin):
        return weak_join_table(_table(op.left, size), _table(op.right, size))
    raise TypeError(f"unknown operator expression {op!r}")


def _cxy_table(x: int, y: int, size: int) -> tuple[int, ...]:
    """The table of ``Cxy`` with parameter masks x and y."""
    return tuple([m | x if m & y else m for m in range(size)])


def _cprime_table(x: int, y: int, size: int) -> tuple[int, ...]:
    """The table of ``CPrime`` with parameter masks x and y."""
    return tuple([m | x if m & y == y else m for m in range(size)])


def weak_join_table(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """The table of ``WeakJoin`` over operands with tables ``left`` and ``right``."""
    size = len(left)
    out = []
    for y in range(size):
        # _settle's loop, inline: a frame per mask would cost more than the steps.
        for _ in range(size + 1):
            z = right[left[y]]
            if z == y:
                break
            y = z
        else:
            raise OperatorConstraintError("weak join iteration did not reach a fixed point")
        out.append(y)
    return tuple(out)


def to_closure_system(op: OperatorExpr) -> ClosureSystem:
    """The family of fixed points of ``op`` (finite mode).

    For a closure operator this is its closed-set family; the constructor
    validates that the result contains L and is intersection-closed, so a
    non-closure operand surfaces as a constraint error.  A ``FromSystem``
    operand's fixed points are its own closed sets, so its system is
    returned as it is, with no table built.
    """
    universe = op.universe
    if universe.mode is not Mode.FINITE:
        raise ModeError("closed-set families are enumerated in finite mode only")
    if isinstance(op, FromSystem):
        return op.system
    return ClosureSystem(universe, tuple(m for m, v in enumerate(table(op)) if v == m))
