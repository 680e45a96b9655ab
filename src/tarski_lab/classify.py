"""Axiom verification, operator classification, and exhaustive enumeration.

The three axioms checked are extensivity-with-idempotence
(X ⊆ C(X) = C(C(X)) ⊆ L), monotonicity (X ⊆ Y implies C(X) ⊆ C(Y)), and
finitarity (C(X) is the union of C(A) over the finite subsets A of X).
On a finite universe ``check_axioms`` sweeps the three axioms over every
subset, exhaustively, and reports least-bitmask witnesses.  On the
infinite universe an atomic operator gets the exact verdicts of its shape
(``operators._closed_form``).  Every other expression is extensive and
monotone by its structure, so (ii) passes, and (i) and (iii) are decided on
its finite model's table (``operators._Quotient``, none over 24 points),
least witnesses in the set order (S < T when the greatest element of S △ T
lies in T; finite below cofinite).

``axiom_witnesses`` finds the same least witnesses on an int table.  It
packs the table into one int, one little-endian lane of 1, 2 or 4 bytes
per image (``struct.pack``), and runs a superset-AND and a subset-OR zeta
transform on that int in O(n) masked whole-int shifts
(``_zeta_failures``); ``lemma26_witness`` decides through it.  The lane
encoding is defined in ``operators``: the lane width, the ``struct`` codes,
the per-bit steps (kept per n only for one table on at most eight symbols,
``_byte_lane_steps``) and the superset-AND that builds
``ClosureSystem.lanes``.  A family of k tables on the same symbols packs
end to end into one int, table i filling slot i (2ⁿ lanes); ``_slots(n, k)``
places the slots (kept for the last few sizes), and ``_failures`` tiles the
steps and the identity over them, so the same shifts run once for the
whole family and no lane crosses a slot.  ``_fold`` turns a failure int
into one flag bit per table, the first bit of its slot, with no loop:
adding ``low`` (the bits of every slot but its last) to the bits below each
slot's last bit carries into that bit exactly when one of them is set, so
five whole-int operations fold every slot at once; callers count with
``int.bit_count``.

A family of closure systems reaches a pass as one int (``_joined_lanes``):
the store's packed int when the family is the store's systems in order,
else the join of their stored lanes; no pass packs a closure table again.
``is_atom`` tests that int against the tiled target in one pass and reads
only the few systems flagged below it.  Lemma 2.6's co-singleton scan
(``_uncovered``), which ``dense_cover_check`` and the lemma-2.6 demo share,
is one pass too: XOR with L in the co-singleton lanes, each lane's bits
OR-ed down into its first bit, and one ``_fold`` per table.
``_order_flags`` lays a k×m matrix of pairs, one slot each, for the Thm 3.5
demo: a ≤ b where no lane of a leaves the tiled b, and b∘a = b where a
gathered through b's 256-byte lookup (``bytes.translate``) equals it.
``_axiom_flags`` flags the tables failing (i), (ii) and (iii), both Thm 2.5
families in one pass, with C∘C one ``bytes.translate`` per table, and
``_monotone_finitary_flags`` only (ii) and (iii), for the extensive
idempotent tables of Remark 2.2, which ``_extensive_idempotent_tables``
builds one mask per level from L down: each image is chosen among the
fixed points already decided, so no table is built only to be filtered
out.  The exhaustive sweep keeps its ``SentenceSet`` pair loops, each
inclusion one test on the two sets' stored masks, until ``check_axioms``
wraps the same kernel (ROADMAP item 3).

Enumeration produces every closure system (intersection-closed family
containing L) on a tiny universe, in ascending order of the family's
characteristic bitmask over P(L); these are the extensional forms of all
consequence operators and serve as the oracle for the lattice and
atom-structure checks.  For n ≤ ``ENUMERATION_LIMIT`` a store
(``_closure_systems``) keeps them once per process, unvalidated, as the
Moore search makes them sure, with one int of every closure table end to
end from one batched superset-AND, each system's lanes a slice of it.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import starmap
from typing import Iterable, Iterator, NamedTuple, Sequence

from .sets import Mode, ModeError, SentenceSet, Universe, _Frozen, _setattr, make_universe
from .operators import (
    _LANE_CODES,
    ClosureSystem,
    CPrime,
    OperatorExpr,
    _Quotient,
    _closed_form,
    _byte_lane_steps,
    _closure_lanes,
    _lane_width,
    _superset_and,
    _zeta_steps,
    evaluate,
    table,
)

EXHAUSTIVE = "exhaustive"
CLOSED_FORM = "closed-form"
QUOTIENT = "quotient"

ENUMERATION_LIMIT = 4


class Verdict(_Frozen):
    __slots__ = ("passed", "witness")

    def __init__(self, passed: bool, witness: tuple | None = None) -> None:
        _setattr(self, "passed", passed)
        _setattr(self, "witness", witness)


class AxiomReport(_Frozen):
    __slots__ = ("axiom_i", "axiom_ii", "axiom_iii", "axiomless", "mode_note", "finitary_from_monotone")

    def __init__(
        self, axiom_i: Verdict, axiom_ii: Verdict, axiom_iii: Verdict, axiomless: bool, mode_note: str,
        finitary_from_monotone: bool | None = None,
    ) -> None:
        _setattr(self, "axiom_i", axiom_i)
        _setattr(self, "axiom_ii", axiom_ii)
        _setattr(self, "axiom_iii", axiom_iii)
        _setattr(self, "axiomless", axiomless)
        _setattr(self, "mode_note", mode_note)
        _setattr(self, "finitary_from_monotone", finitary_from_monotone)

    @property
    def is_consequence(self) -> bool:
        return self.axiom_i.passed and self.axiom_ii.passed

    @property
    def all_pass(self) -> bool:
        return self.is_consequence and self.axiom_iii.passed


def check_axioms(op: OperatorExpr) -> AxiomReport:
    """Full per-axiom report with least counterexample witnesses.

    On the naturals every expression is extensive and monotone by induction
    on its structure, so (ii) holds, and an atom gets the verdicts of its
    shape.  Any other expression is exactly an operator on its finite model
    (``operators._Quotient``), whose table goes through ``axiom_witnesses``
    for (i) and ``_finitarity`` for (iii); each witness is the least failing
    mask, lifted to the least failing set on the naturals.
    """
    universe = op.universe
    if universe.mode is Mode.FINITE:
        t = table(op)
        subsets = [universe.from_mask(m) for m in range(len(t))]
        return _sweep(subsets, [subsets[v] for v in t])
    shape = _closed_form(op)
    if shape is not None:
        return _check_closed_form(*shape)
    model = _Quotient(op)
    (t,) = model.tables()
    first, _, _ = axiom_witnesses(t)
    return AxiomReport(
        axiom_i=Verdict(True) if first is None else Verdict(False, witness=(model.lift(*first),)),
        axiom_ii=Verdict(True),
        axiom_iii=_finitarity(model, t),
        axiomless=t[0] == 0,
        mode_note=QUOTIENT,
    )


def _finitarity(model: _Quotient, t: tuple[int, ...]) -> Verdict:
    """(iii) on the naturals on the table t of ``model`` (``operators``): the
    least mask m holding both tail points with t[m] ⊄ t[m ^ top] ∪ m fails."""
    top = len(t) >> 1
    least = 1 << model.points.index(model.tail[0])
    for m in range(top | least, len(t)):
        if m & least and t[m] & ~(t[m ^ top] | m):
            missing = model.lift(t[m]).difference(model.lift(t[m ^ top] | m))
            return Verdict(False, witness=(model.lift(m), missing.least()))
    return Verdict(True)


def _sweep(family: list[SentenceSet], images: list[SentenceSet]) -> AxiomReport:
    """The three axioms over ``family``, every subset of a finite universe in
    ascending bitmask order, where ``images`` holds C(s) for each subset s;
    each witness is the least."""
    axiom_i = Verdict(True)
    for s, image in zip(family, images):
        if not s.is_subset(image) or images[image.mask] != image:
            axiom_i = Verdict(False, witness=(s,))
            break

    axiom_ii = Verdict(True)
    for s, image in zip(family, images):
        if not axiom_ii.passed:
            break
        for t, other in zip(family, images):
            if s.is_subset(t) and not image.is_subset(other):
                axiom_ii = Verdict(False, witness=(s, t))
                break

    axiom_iii = Verdict(True)
    for s, image in zip(family, images):
        union = family[0]
        for a, part in zip(family, images):
            if a.is_subset(s):
                union = union.union(part)
        # s is among its own parts, so "union ⊆ image" is equality.
        if not union.is_subset(image):
            axiom_iii = Verdict(False, witness=(s, union.difference(image).least()))
            break

    return AxiomReport(
        axiom_i=axiom_i,
        axiom_ii=axiom_ii,
        axiom_iii=axiom_iii,
        axiomless=images[0].is_empty(),
        mode_note=EXHAUSTIVE,
        finitary_from_monotone=axiom_i.passed and axiom_ii.passed,
    )


def _check_closed_form(kind: str, x: SentenceSet, y: SentenceSet) -> AxiomReport:
    """The exact report for an operator of shape (kind, X, Y) on the naturals.

    Both shapes satisfy (i) and (ii).  C(∅) is ∅ unless C adds a nonempty X
    to every argument, which only "contains" with Y = ∅ does.  Finitarity
    fails exactly for "contains" with Y infinite and X ⊄ Y: any element of
    X − Y enters C(Y), but no finite part of Y contains Y.
    """
    axiom_iii = Verdict(True)
    if kind == "contains" and not y.is_finite() and not x.is_subset(y):
        axiom_iii = Verdict(False, witness=(y, x.difference(y).least()))
    return AxiomReport(
        axiom_i=Verdict(True),
        axiom_ii=Verdict(True),
        axiom_iii=axiom_iii,
        axiomless=kind == "meets" or x.is_empty() or not y.is_empty(),
        mode_note=CLOSED_FORM,
    )


class _Slots(NamedTuple):
    """Where ``count`` tables on n symbols sit when laid end to end in one int."""

    width: int  # bytes per lane: 1, 2 or 4, enough for a mask of n bits
    slot: int  # bits per table, a power of two
    starts: int  # the first bit of every table
    high: int  # the last bit of every table
    low: int  # every bit of every table but its last


@lru_cache(maxsize=16)
def _slots(n: int, count: int) -> _Slots:
    """The slots of ``count`` tables on n symbols, kept for the last few sizes asked."""
    width = _lane_width(n)
    slot = 8 * width << n
    starts = int.from_bytes((b"\1" + bytes(slot // 8 - 1)) * count, "little")
    high = starts << slot - 1
    return _Slots(width, slot, starts, high, high - starts)


def _lanes(tables: Iterable[Iterable[int]], width: int, size: int) -> bytes:
    """The tables of ``size`` images end to end, one little-endian lane of
    ``width`` bytes per image."""
    pack = struct.Struct(f"<{size}{_LANE_CODES[width]}").pack
    return b"".join(starmap(pack, tables))


def _lookup(t: bytes | tuple[int, ...]) -> bytes:
    """The 256-byte lookup v ↦ t[v] that ``bytes.translate`` reads, for a
    table on at most eight symbols, as a tuple or as its one-byte lanes."""
    return bytes(t).ljust(256, b"\0")


def _zeta_failures(packed: int, steps: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """C & ~D and U & ~C of every packed table, nonzero in the lanes that fail
    (ii) and (iii), where lane s of D holds the AND of C(r) over r ⊇ s and
    lane s of U the OR of C(a) over a ⊆ s.  Both zeta transforms take one
    masked shift of the whole int per bit; D is ``operators._superset_and``."""
    up = packed
    for selector, shift in steps:
        up |= (up & ~selector) << shift
    return packed & ~_superset_and(packed, steps), up & ~packed


_BYTE_IDENTITY = bytes(range(256))  # one-byte lanes, lane m holding m; prefixes serve n < 8


def _failures(images: bytes, twice: bytes, n: int) -> tuple[int, int, int]:
    """The failure ints of (i), (ii) and (iii) for the tables C on n symbols
    packed end to end in ``images``, with C∘C packed alike in ``twice``:
    (I & ~C) | (C∘C ^ C), C & ~D and U & ~C.  The identity is packed before
    the steps are built, so its transient argument tuple never meets them."""
    size, width = 1 << n, _lane_width(n)
    count = len(images) // (width * size)
    identity = _BYTE_IDENTITY[:size] if width == 1 else _lanes([range(size)], width, size)
    identity = int.from_bytes(identity * count, "little")
    steps = _byte_lane_steps(n) if count == width == 1 else tuple(_zeta_steps(n, width, count))
    packed = int.from_bytes(images, "little")
    first = (identity & ~packed) | (int.from_bytes(twice, "little") ^ packed)
    return (first, *_zeta_failures(packed, steps))


def _fold(failed: int, slots: _Slots) -> int:
    """One flag per table: bit k·slot of the result is set exactly when
    ``failed`` has a bit set in table k.  Adding ``low`` to the bits of a
    slot below its last carries into its last bit exactly when one of them
    is set, and no further (Hacker's Delight, §6-1); OR-ing ``failed`` back
    in adds the last bit itself, and the shift moves each last bit to the
    first bit of its slot."""
    return ((((failed & slots.low) + slots.low) | failed) & slots.high) >> (slots.slot - 1)


def _axiom_flags(images: bytes, n: int) -> tuple[int, int, int]:
    """The flags (see ``_fold``) of the tables that fail (i), (ii) and (iii),
    for tables on n ≤ 8 symbols packed end to end in ``images``, one byte per
    image, all checked in one pass; C∘C is one ``bytes.translate`` per table."""
    size = 1 << n
    tables = [images[i : i + size] for i in range(0, len(images), size)]
    twice = b"".join([t.translate(t.ljust(256, b"\0")) for t in tables])
    first, second, third = _failures(images, twice, n)
    slots = _slots(n, len(tables))
    return _fold(first, slots), _fold(second, slots), _fold(third, slots)


def _monotone_finitary_flags(images: bytes, n: int) -> tuple[int, int]:
    """The flags (see ``_fold``) of the tables that fail (ii) and of those
    that fail (iii), for tables on n symbols packed end to end in ``images``,
    in one pass that skips the C∘C gather of (i)."""
    count = len(images) // (_lane_width(n) << n)
    slots = _slots(n, count)
    steps = tuple(_zeta_steps(n, slots.width, count))
    second, third = _zeta_failures(int.from_bytes(images, "little"), steps)
    return _fold(second, slots), _fold(third, slots)


def _order_flags(rows: Sequence[bytes], columns: Sequence[bytes]) -> tuple[int, int, _Slots]:
    """For every table a of ``rows`` and b of ``columns``, each on the same
    n ≤ 8 symbols as one-byte lanes, the flags (see ``_fold``) of the pairs
    that fail a ≤ b, where some image of a leaves the image of b, and of those
    that fail b∘a = b, where b sends some image a[m] elsewhere than b[m]; and
    the slots.  The pair of columns[j] and rows[i] sits in slot
    j·len(rows) + i: a is the rows repeated once per column, the tile of b
    repeats each column once per row, and b∘a gathers the rows through each
    column's lookup."""
    family = b"".join(rows)
    slots = _slots(len(rows[0]).bit_length() - 1, len(rows) * len(columns))
    tile = int.from_bytes(b"".join([b * len(rows) for b in columns]), "little")
    rows_tiled = int.from_bytes(family * len(columns), "little")
    outside = rows_tiled ^ (rows_tiled & tile)  # rows & ~tile, without negating a whole int
    composed = b"".join([family.translate(b.ljust(256, b"\0")) for b in columns])
    moved = int.from_bytes(composed, "little") ^ tile
    return _fold(outside, slots), _fold(moved, slots), slots


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def axiom_witnesses(t: tuple[int, ...]) -> tuple[tuple | None, tuple | None, tuple | None]:
    """The least witnesses against axioms (i), (ii) and (iii) on the table t.

    Each is None where its axiom holds, else ``(s,)``, ``(s, r)`` or
    ``(s, element)`` in masks: the witnesses ``check_axioms`` reports in finite mode.
    The table is packed into one int, lane m holding t[m], and
    ``_zeta_failures`` builds D and U in O(n) big-int steps.  Each axiom
    then fails at the lowest nonzero lane of one int: (i) of
    (I & ~C) | (C∘C ^ C), (ii) of C & ~D, paired with the first superset r
    where C(s) ⊄ C(r), and (iii) of U & ~C, whose lowest set bit within the
    lane is the element.  A table whose length is not a power of two, or
    with an image outside it, is refused.
    """
    size = len(t)
    if size < 1 or size & size - 1:
        raise ValueError(f"table must be total: expected 2^n entries, got {size}")
    n = size.bit_length() - 1
    width = _lane_width(n)
    lane = 8 * width
    first = second = third = None
    try:
        # An image of 2^n or more fails the gather, and a negative one the packing.
        twice = _lanes([[t[v] for v in t]], width, size)
        images = _lanes([t], width, size)
    except (IndexError, struct.error):
        value = next(v for v in t if not 0 <= v < size)
        raise ValueError(f"table value {value:#x} out of range") from None
    fails_i, fails_ii, fails_iii = _failures(images, twice, n)
    if fails_i:
        first = (_lowest_bit(fails_i) // lane,)
    if fails_ii:
        s = _lowest_bit(fails_ii) // lane
        r = s
        while not t[s] & ~t[r]:
            r = (r + 1) | s  # the next superset of s
        second = (s, r)
    if fails_iii:
        third = divmod(_lowest_bit(fails_iii), lane)
    return first, second, third


def lemma26_witness(op: OperatorExpr) -> int:
    """Least element x with C(L − {x}) = L, for an axiomatic operator."""
    universe = op.universe
    if universe.mode is not Mode.FINITE:
        raise ModeError("the witness scan runs in finite mode only")
    t = table(op)
    first, second, _ = axiom_witnesses(t)
    if first is not None or second is not None:
        raise ValueError("the operand is not a consequence operator")
    if t[0] == 0:
        raise ValueError("the operand is axiomless; no witness is guaranteed")
    x = _cosingleton_witness(t)
    if x is None:
        raise RuntimeError("no witness found; the axiomatic premise was violated")
    return x


def _cosingleton_witness(t: tuple[int, ...]) -> int | None:
    """Least element x with C(L − {x}) = L on the table t, or None."""
    full = len(t) - 1
    return next((x for x in range(full.bit_length()) if t[full & ~(1 << x)] == full), None)


def _extensive_idempotent_tables(n: int) -> list[tuple[int, ...]]:
    """Every extensive, idempotent table on n symbols, built level by level.

    Masks are decided from L downward, each level extending every partial
    table of the level before, kept as (images of the masks decided so far,
    fixed points among them).  t[m] is either m itself or a fixed point
    already decided that contains m: every strict superset of m is a larger
    mask, so it was decided first.  Images are therefore fixed points,
    t[t[m]] = t[m] holds by construction, and each extensive idempotent
    table is built exactly once.
    """
    level: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    for m in range((1 << n) - 1, -1, -1):
        following = []
        for images, fixed in level:
            following.append(((m,) + images, fixed + (m,)))
            for f in fixed:
                if f & m == m:
                    following.append(((f,) + images, fixed))
        level = following
    return [images for images, _ in level]


# -- exhaustive enumeration ----------------------------------------------------


@lru_cache(maxsize=None)
def default_universe(n: int) -> Universe:
    if not 1 <= n <= 10:
        raise ValueError(f"default universes have 1 to 10 symbols, got {n}")
    return make_universe(Mode.FINITE, tuple("abcdefghij"[:n]))


@lru_cache(maxsize=None)
def _moore_family_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """The closed masks of every closure system on n symbols, each family
    ascending, the families in ascending order of their characteristic
    bitmask over P(L).

    Subsets are decided from L downward, excluding before including; the
    intersection of two chosen sets is forced in.  Later subsets are
    numerically smaller, so none can force an excluded one: every leaf is a
    closure system, and its chosen masks, reversed, ascend.
    """
    found: list[tuple[int, ...]] = []

    def decide(s: int, forced: int, chosen: tuple[int, ...]) -> None:
        if s < 0:
            found.append(chosen[::-1])
            return
        if not forced >> s & 1:
            decide(s - 1, forced, chosen)
        for c in chosen:
            forced |= 1 << (c & s)
        decide(s - 1, forced, chosen + (s,))

    full = (1 << n) - 1
    decide(full, 1 << full, ())
    return tuple(found)


def _enumerable_family_masks(n: int) -> tuple[tuple[int, ...], ...]:
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"enumeration is supported for 1 <= n <= {ENUMERATION_LIMIT}")
    return _moore_family_masks(n)


def count_closure_systems(n: int, include_top: bool = True) -> int:
    """How many systems ``enumerate_operators(n, include_top)`` yields, building none."""
    return len(_enumerable_family_masks(n)) - (not include_top)


@lru_cache(maxsize=None)
def _closure_systems(n: int) -> tuple[tuple[ClosureSystem, ...], int]:
    """The store of the Moore family on n symbols: every closure system in
    canonical order, and their closure tables end to end in one int."""
    families = _enumerable_family_masks(n)
    packed, stride, universe = _closure_lanes(families, n), _lane_width(n) << n, default_universe(n)
    data = packed.to_bytes(stride * len(families), "little")
    lanes = [data[start : start + stride] for start in range(0, len(data), stride)]
    return tuple(ClosureSystem._trusted(universe, f, lane) for f, lane in zip(families, lanes)), packed


def enumerate_operators(n: int, include_top: bool = True) -> Iterator[ClosureSystem]:
    """All closure systems on an n-element universe, in canonical order.

    ``include_top=False`` drops the single {L}-only family (the map sending
    everything to L); its family mask is the least, so it comes first.
    Counts for n = 1..4 are 2, 7, 61, 2480.  The result iterates over the
    store's tuple (``_closure_systems``), built once per process with every
    lane and shared by every call; an n outside 1..4 is refused at the call.
    """
    systems, _ = _closure_systems(n)
    return iter(systems if include_top else systems[1:])


# -- atoms and dense covers ------------------------------------------------------


def e0_family(universe: Universe) -> list[OperatorExpr]:
    """The candidate atoms: one operator per element x, adding {x} once the
    argument contains everything else."""
    if universe.mode is not Mode.FINITE:
        raise ModeError("the atom family is built in finite mode only")
    if universe.size < 2:
        raise ValueError("the atom family needs at least two elements")
    full = universe.full()
    members: list[OperatorExpr] = []
    for x in range(universe.size):
        rest = full.difference(universe.subset([x]))
        op = CPrime(universe.subset([x]), rest)
        if not evaluate(op, rest).is_full():
            raise RuntimeError("atom candidate failed its defining evaluation")
        members.append(op)
    return members


def is_atom(op: OperatorExpr, oracle: Iterable[ClosureSystem]) -> bool:
    """Whether nothing in the oracle lies strictly between the identity and ``op``.

    The oracle's lanes are joined end to end and tested against the target
    tiled over them in one pass; only the few systems found below the target
    are then read one by one.
    """
    universe = op.universe
    if universe.mode is not Mode.FINITE:
        raise ModeError("atom checks run in finite mode only")
    target = table(op)
    identity = tuple(range(len(target)))
    if target == identity:
        raise ValueError("the identity is not eligible for the atom check")
    systems = list(oracle)
    if not systems:
        return True
    n = universe.size
    packed = _joined_lanes(systems, n, "the operator")
    slots = _slots(n, len(systems))
    tile = int.from_bytes(_lanes([target], slots.width, len(target)), "little") * slots.starts
    # x ^ (x & y) is x & ~y without negating a whole int, and flags sit only
    # at the starts, so XOR with the starts negates them.
    below = slots.starts ^ _fold(packed ^ (packed & tile), slots)
    while below:
        if systems[_lowest_bit(below) // slots.slot].table not in (identity, target):
            return False
        below &= below - 1
    return True


def _joined_lanes(systems: Sequence[ClosureSystem], n: int, expected: str) -> int:
    """The lanes of ``systems`` end to end, as one int: the store's, for its
    systems in order or systems equal to them, else joined.  A system on
    other than n symbols is refused, naming ``expected`` as what is on n: a
    total length of one n-symbol table per system, none longer, means all are."""
    if 1 <= n <= ENUMERATION_LIMIT and len(systems) == len(_moore_family_masks(n)):
        stored, packed = _closure_systems(n)
        if tuple(systems) == stored:
            return packed
    lanes = [system.lanes for system in systems]
    length = _lane_width(n) << n
    images = b"".join(lanes)
    if len(images) != length * len(lanes) or max(map(len, lanes)) != length:
        other = next(system for system, lane in zip(systems, lanes) if len(lane) != length)
        raise ValueError(
            f"the oracle holds a system on {other.universe.size} symbols, but {expected} is on {n}"
        )
    return int.from_bytes(images, "little")


class CoverResult(_Frozen):
    __slots__ = ("holds", "failing")

    def __init__(self, holds: bool, failing: ClosureSystem | None = None) -> None:
        _setattr(self, "holds", holds)
        _setattr(self, "failing", failing)

    def __bool__(self) -> bool:
        return self.holds


def dense_cover_check(oracle: Iterable[ClosureSystem]) -> CoverResult:
    """Every axiomatic operator in the oracle must dominate some e0 candidate.

    A closure table t dominates the candidate for x exactly when t[L − {x}] = L,
    so this is Lemma 2.6's co-singleton scan (``_uncovered``); the first system
    that fails it is reported."""
    systems = list(oracle)
    if not systems:
        return CoverResult(True)
    if systems[0].universe.size < 2:
        raise ValueError("the atom family needs at least two elements")
    _, failing, slots = _uncovered(systems)
    if failing:
        return CoverResult(False, systems[_lowest_bit(failing) // slots.slot])
    return CoverResult(True)


def _uncovered(systems: Sequence[ClosureSystem]) -> tuple[int, int, _Slots]:
    """Lemma 2.6's co-singleton scan over a nonempty family of systems on the
    same n ≥ 2 symbols, in one pass over their joined lanes: the flags (see
    ``_fold``) of the axiomatic systems, C(∅) ≠ ∅, and of those among them
    that send no co-singleton L − {x} to L; and the slots.  XOR with L in the
    co-singleton lanes leaves such a lane zero where its image is L, and lane
    0 as it is; OR-ing each lane's bits into its first bit flags the nonzero lanes."""
    n = systems[0].universe.size
    packed = _joined_lanes(systems, n, "its first system")
    slots, cosingletons = _slots(n, len(systems)), _cosingleton_lanes(n, len(systems))
    nonzero = packed ^ cosingletons * ((1 << n) - 1)
    shift = 1
    while shift < 8 * slots.width:
        # Bit 0 of a lane gathers bits below 8·width of its own lane only.
        nonzero |= nonzero >> shift
        shift <<= 1
    # x ^ (x & y) is x & ~y without negating a whole int.
    open_lanes = cosingletons ^ (cosingletons & nonzero)
    axiomatic = nonzero & slots.starts
    return axiomatic, axiomatic ^ (axiomatic & _fold(open_lanes, slots)), slots


@lru_cache(maxsize=4)
def _cosingleton_lanes(n: int, count: int) -> int:
    """The first bit of the lane of every co-singleton L − {x} in each of
    ``count`` tables on n symbols laid end to end."""
    slots = _slots(n, count)
    full, lane = (1 << n) - 1, 8 * slots.width
    return sum(1 << lane * (full & ~(1 << x)) for x in range(n)) * slots.starts
