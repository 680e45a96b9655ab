"""Universes and exact set algebra over them.

Two universe modes are supported: an explicit finite symbol table, and a
countably infinite carrier (the naturals) whose representable subsets are
exactly the finite and the cofinite ones.  Every operation here is exact;
nothing is sampled or approximated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

# Exhaustive sweeps materialise all 2^n subsets; beyond this they are hopeless.
MAX_SWEEP_SIZE = 24


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


@dataclass(frozen=True)
class Universe:
    """The sentence carrier: a finite symbol table or the naturals."""

    mode: Mode
    symbols: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode is Mode.FINITE:
            if not self.symbols:
                raise ValueError("a finite universe needs at least one symbol")
            if len(set(self.symbols)) != len(self.symbols):
                raise DuplicateSymbolError(f"duplicate symbols in {self.symbols!r}")
        elif self.symbols:
            raise ValueError("a cofinite universe has no symbol table")

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


@dataclass(frozen=True)
class SentenceSet:
    """A subset of a universe, kept in canonical form.

    Finite mode stores the member ids directly (polarity is always
    positive).  Cofinite mode tags a finite member list as either the set
    itself (positive) or the complement of it (negative); negative with no
    members denotes the full universe.
    """

    universe: Universe
    polarity: Polarity
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.members)))
        if canon != self.members:
            object.__setattr__(self, "members", canon)
        if self.universe.mode is Mode.FINITE:
            if self.polarity is not Polarity.POSITIVE:
                raise ValueError("finite-mode sets are stored positively")
            if canon and (canon[0] < 0 or canon[-1] >= self.universe.size):
                raise ValueError(f"member out of range: {canon}")
        else:
            if canon and canon[0] < 0:
                raise ValueError("cofinite-mode members are naturals")

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
        if self.universe.mode is not Mode.FINITE:
            raise ModeError("masks exist only for finite universes")
        out = 0
        for i in self.members:
            out |= 1 << i
        return out

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
        if self.universe != other.universe:
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


@lru_cache(maxsize=None)
def all_subsets(universe: Universe) -> tuple[SentenceSet, ...]:
    """All subsets of a finite universe, ascending by bitmask."""
    if universe.mode is not Mode.FINITE:
        raise ModeError("cannot enumerate the subsets of an infinite universe")
    n = universe.size
    if n > MAX_SWEEP_SIZE:
        raise ValueError(f"universe of size {n} is too large for exhaustive sweeps")
    return tuple(universe.from_mask(m) for m in range(1 << n))
