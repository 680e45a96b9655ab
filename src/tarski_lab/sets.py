"""Universes and exact set algebra over them.

Two universe modes are supported: an explicit finite symbol table, and a
countably infinite carrier (the naturals) whose representable subsets are
exactly the finite and the cofinite ones.  Every operation here is exact;
nothing is sampled or approximated.

A finite-mode set is its sorted member ids plus its bitmask (bit i set
when symbol i is a member), computed once on construction and kept in a
slot beside the fields: equality, hashing and repr read only the fields,
and a pickled or copied set is built again, mask and all.
Inclusion of two finite-mode sets is one test on their masks; the other
operations build their results from members, which costs about as much
as building them from masks.

The package's value classes are plain classes with ``__slots__`` on the
two bases here, which cost next to nothing to create at import:
``_Frozen`` for immutable values, ``_Record`` for the few that callers
fill in.
"""

from __future__ import annotations

import enum
from typing import Sequence

# Frozen classes set their slots in ``__init__`` through this.
_setattr = object.__setattr__


class _Record:
    """A plain class whose fields are its ``__init__``'s parameters, in order,
    each stored in a slot of the same name.  Two records are equal when they
    are of one class with equal fields; repr shows the fields, and pickling
    and copying go through the constructor.  A record is mutable and
    unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class _Frozen(_Record):
    """An immutable ``_Record``: it hashes its fields and refuses assignment
    and deletion, so its ``__init__`` sets the slots with ``_setattr``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Mode(enum.Enum):
    FINITE = "finite"
    COFINITE = "cofinite"


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class DuplicateSymbolError(ValueError):
    """A finite universe was declared with repeated symbol names."""


class UniverseMismatchError(ValueError):
    """Two values drawn from different universes were combined."""


class ModeError(ValueError):
    """The operation is not available in this universe mode."""


class Universe(_Frozen):
    """The sentence carrier: a finite symbol table or the naturals."""

    __slots__ = ("mode", "symbols")

    def __init__(self, mode: Mode, symbols: tuple[str, ...] = ()) -> None:
        if mode is Mode.FINITE:
            if not symbols:
                raise ValueError("a finite universe needs at least one symbol")
            if len(set(symbols)) != len(symbols):
                raise DuplicateSymbolError(f"duplicate symbols in {symbols!r}")
        elif symbols:
            raise ValueError("a cofinite universe has no symbol table")
        _setattr(self, "mode", mode)
        _setattr(self, "symbols", symbols)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mode is other.mode and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash((self.mode, self.symbols))

    @property
    def size(self) -> int:
        if self.mode is not Mode.FINITE:
            raise ModeError("a cofinite universe has no finite size")
        return len(self.symbols)

    def index_of(self, name: str) -> int:
        try:
            return self.symbols.index(name)
        except ValueError:
            raise KeyError(f"unknown symbol {name!r}") from None

    def name_of(self, element: int) -> str:
        if self.mode is Mode.FINITE:
            return self.symbols[element]
        return str(element)

    # -- set constructors ---------------------------------------------------

    def empty(self) -> "SentenceSet":
        return SentenceSet(self, Polarity.POSITIVE, ())

    def full(self) -> "SentenceSet":
        if self.mode is Mode.FINITE:
            return SentenceSet(self, Polarity.POSITIVE, tuple(range(self.size)))
        return SentenceSet(self, Polarity.NEGATIVE, ())

    def subset(self, elements: Sequence[int]) -> "SentenceSet":
        return SentenceSet(self, Polarity.POSITIVE, tuple(elements))

    def cosubset(self, excluded: Sequence[int]) -> "SentenceSet":
        """The complement of a finite set; only meaningful in cofinite mode."""
        return SentenceSet(self, Polarity.NEGATIVE, tuple(excluded))

    def of_names(self, *names: str) -> "SentenceSet":
        return self.subset([self.index_of(n) for n in names])

    def from_mask(self, mask: int) -> "SentenceSet":
        n = self.size
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} out of range for size {n}")
        return self.subset([i for i in range(n) if mask >> i & 1])


def make_universe(mode: Mode, symbols: Sequence[str] | None = None) -> Universe:
    """Build a universe; finite mode requires at least one distinct symbol."""
    return Universe(mode, tuple(symbols) if symbols else ())


class SentenceSet(_Frozen):
    """A subset of a universe, kept in canonical form.

    Finite mode stores the member ids directly (polarity is always
    positive) and their bitmask (``mask``).  Cofinite mode tags a finite
    member list as either the set itself (positive) or the complement of it
    (negative); negative with no members denotes the full universe.
    """

    __slots__ = ("universe", "polarity", "members", "_mask")

    def __init__(self, universe: Universe, polarity: Polarity, members: tuple[int, ...]) -> None:
        canon = tuple(sorted(set(members)))
        mask = None
        if universe.mode is Mode.FINITE:
            if polarity is not Polarity.POSITIVE:
                raise ValueError("finite-mode sets are stored positively")
            if canon and (canon[0] < 0 or canon[-1] >= len(universe.symbols)):
                raise ValueError(f"member out of range: {canon}")
            mask = 0
            for i in canon:
                mask |= 1 << i
        elif canon and canon[0] < 0:
            raise ValueError("cofinite-mode members are naturals")
        _setattr(self, "universe", universe)
        _setattr(self, "polarity", polarity)
        _setattr(self, "members", canon)
        # Not a field: equality, hashing and repr ignore it.
        _setattr(self, "_mask", mask)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.members == other.members
            and self.polarity is other.polarity
            and (self.universe is other.universe or self.universe == other.universe)
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.polarity, self.members))

    # -- predicates ---------------------------------------------------------

    def is_empty(self) -> bool:
        return self.polarity is Polarity.POSITIVE and not self.members

    def is_full(self) -> bool:
        if self.universe.mode is Mode.FINITE:
            return len(self.members) == self.universe.size
        return self.polarity is Polarity.NEGATIVE and not self.members

    def is_finite(self) -> bool:
        return self.polarity is Polarity.POSITIVE

    def cardinality(self) -> int | None:
        """Number of elements, or None for the (infinite) cofinite case."""
        return len(self.members) if self.is_finite() else None

    def __contains__(self, element: int) -> bool:
        inside = element in self.members
        return inside if self.is_finite() else not inside

    @property
    def mask(self) -> int:
        if self._mask is None:
            raise ModeError("masks exist only for finite universes")
        return self._mask

    def least(self) -> int:
        """The smallest element; errors on the empty set."""
        if self.is_finite():
            if not self.members:
                raise ValueError("empty set has no least element")
            return self.members[0]
        excluded = set(self.members)
        i = 0
        while i in excluded:
            i += 1
        return i

    # -- algebra ------------------------------------------------------------

    def _check(self, other: "SentenceSet") -> None:
        # One shared Universe object is the common case; `is` skips the field comparison.
        if self.universe is not other.universe and self.universe != other.universe:
            raise UniverseMismatchError("sets belong to different universes")

    def union(self, other: "SentenceSet") -> "SentenceSet":
        self._check(other)
        a, b = set(self.members), set(other.members)
        if self.is_finite() and other.is_finite():
            return SentenceSet(self.universe, Polarity.POSITIVE, tuple(a | b))
        if self.is_finite():
            return SentenceSet(self.universe, Polarity.NEGATIVE, tuple(b - a))
        if other.is_finite():
            return SentenceSet(self.universe, Polarity.NEGATIVE, tuple(a - b))
        return SentenceSet(self.universe, Polarity.NEGATIVE, tuple(a & b))

    def intersect(self, other: "SentenceSet") -> "SentenceSet":
        self._check(other)
        a, b = set(self.members), set(other.members)
        if self.is_finite() and other.is_finite():
            return SentenceSet(self.universe, Polarity.POSITIVE, tuple(a & b))
        if self.is_finite():
            return SentenceSet(self.universe, Polarity.POSITIVE, tuple(a - b))
        if other.is_finite():
            return SentenceSet(self.universe, Polarity.POSITIVE, tuple(b - a))
        return SentenceSet(self.universe, Polarity.NEGATIVE, tuple(a | b))

    def complement(self) -> "SentenceSet":
        if self.universe.mode is Mode.FINITE:
            keep = [i for i in range(self.universe.size) if i not in self.members]
            return SentenceSet(self.universe, Polarity.POSITIVE, tuple(keep))
        flipped = Polarity.NEGATIVE if self.is_finite() else Polarity.POSITIVE
        return SentenceSet(self.universe, flipped, self.members)

    def difference(self, other: "SentenceSet") -> "SentenceSet":
        return self.intersect(other.complement())

    def is_subset(self, other: "SentenceSet") -> bool:
        self._check(other)
        if self._mask is not None:
            return not self._mask & ~other._mask
        a, b = set(self.members), set(other.members)
        if self.is_finite() and other.is_finite():
            return a <= b
        if self.is_finite():
            return a.isdisjoint(b)
        if other.is_finite():
            # A cofinite set is infinite while `other` is finite, except in
            # finite mode where negative polarity never occurs.
            return False
        return b <= a

    # -- presentation ---------------------------------------------------------

    def literal(self) -> str:
        """Canonical text form matching the CLI set-literal grammar."""
        if self.universe.mode is Mode.FINITE:
            return "{" + ",".join(self.universe.symbols[i] for i in self.members) + "}"
        if self.is_finite():
            return "{" + ",".join(str(i) for i in self.members) + "}"
        if not self.members:
            return "L"
        return "co{" + ",".join(str(i) for i in self.members) + "}"

    def __repr__(self) -> str:
        return f"SentenceSet({self.literal()})"
