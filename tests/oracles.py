"""Literal reference computations, and a reader for packed flags, shared by
the test modules."""


def all_subsets(universe) -> tuple:
    """Every subset of a finite universe, ascending by bitmask."""
    return tuple(universe.from_mask(m) for m in range(1 << universe.size))


def flag_bytes(flags, slots, count):
    """The per-table flags of a ``classify._fold`` result over ``count`` tables
    as one byte each, 1 where table k's flag is set: its first byte."""
    step = slots.slot // 8
    return flags.to_bytes(count * step, "little")[::step]


def bounded_family(universe, cap):
    """The reference family of sets on the naturals below a horizon ``cap``:
    the empty set, every singleton and pair below cap, the runs of 3 to 8
    consecutive elements that end below cap, L, and co{0..k-1} for k = 1..4.
    Scanning it is a sample, so a pass on it decides nothing."""
    sets = [universe.empty()]
    sets.extend(universe.subset([i]) for i in range(cap))
    sets.extend(universe.subset([i, j]) for i in range(cap) for j in range(i + 1, cap))
    for size in range(3, 9):
        sets.extend(universe.subset(range(i, i + size)) for i in range(max(0, cap - size + 1)))
    sets.append(universe.full())
    sets.extend(universe.cosubset(range(k)) for k in range(1, 5))
    return sets


def bounded_sweep(evaluate, family):
    """The three axioms as pair loops over ``family``, whose first member is
    the empty set, reading C through ``evaluate``.  Returns the witnesses, each
    None where its axiom holds on the family: the first s failing (i) as
    ``(s,)``, the first s ⊆ t with C(s) ⊄ C(t) as ``(s, t)``, and the first s
    whose finite parts a ⊆ s in the family reach an element outside C(s), as
    ``(s, least such element)``."""
    images = [evaluate(s) for s in family]
    first = second = third = None
    for s, image in zip(family, images):
        if not s.is_subset(image) or evaluate(image) != image:
            first = (s,)
            break
    for s, image in zip(family, images):
        if second is not None:
            break
        for t, other in zip(family, images):
            if s.is_subset(t) and not image.is_subset(other):
                second = (s, t)
                break
    finite = [(a, part) for a, part in zip(family, images) if a.is_finite()]
    for s, image in zip(family, images):
        union = family[0]
        for a, part in finite:
            if a.is_subset(s):
                union = union.union(part)
        # A finite s is among the parts, so for it "union ⊆ image" is equality.
        if not union.is_subset(image):
            third = (s, union.difference(image).least())
            break
    return first, second, third


def loop_axiom_witnesses(t):
    """``classify.axiom_witnesses`` as plain loops over the table t, one image
    at a time: the least s failing (i), the least s with C(s) ⊄ D(s) and its
    first failing superset for (ii), and the least s with U(s) ≠ C(s) for
    (iii), where D(s) is the AND of C(r) over r ⊇ s and U(s) the OR of C(a)
    over a ⊆ s, each built with one pass per bit."""
    size = len(t)
    first = next(((s,) for s in range(size) if s & ~t[s] or t[t[s]] != t[s]), None)
    down, up = list(t), list(t)
    bit = 1
    while bit < size:
        for m in range(size):
            if m & bit:
                up[m] |= up[m ^ bit]
            else:
                down[m] &= down[m | bit]
        bit <<= 1
    second = third = None
    s = next((s for s in range(size) if t[s] & ~down[s]), None)
    if s is not None:
        r = s
        while not t[s] & ~t[r]:
            r = (r + 1) | s  # the next superset of s
        second = (s, r)
    s = next((s for s in range(size) if up[s] != t[s]), None)
    if s is not None:
        extra = up[s] & ~t[s]
        third = (s, (extra & -extra).bit_length() - 1)
    return first, second, third


def closed_form_le(a, b):
    """The order of two atoms on the naturals by minimal-argument analysis,
    each given as its shape ``(kind, X, Y)``: ``"meets"`` is A ↦ A ∪ X when
    A meets Y, and ``"contains"`` is A ↦ A ∪ X when Y ⊆ A.  Returns (holds,
    witness): for a "meets" left operand the binding arguments are the
    singletons {y}, y ∈ Y, and the witness is the least failing one; for a
    "contains" left operand the single binding argument, and the witness, is
    Y itself."""
    (kind_a, x1, y1), (kind_b, x2, y2) = a, b
    if kind_a == "meets":
        # b adds X2 at the y in ``fires``.
        if kind_b == "meets" or y2.cardinality() == 1:
            fires = y1.intersect(y2)
        elif y2.is_empty():
            fires = y1
        else:
            fires = y1.universe.empty()
        hits = [
            v
            for v in (_singleton_violation(x1, y1.difference(fires)), _singleton_violation(x1.difference(x2), fires))
            if v is not None
        ]
        return (False, y1.universe.subset([min(hits)])) if hits else (True, None)
    relaxed = not y1.intersect(y2).is_empty() if kind_b == "meets" else y2.is_subset(y1)
    needed = x1.difference(x2) if relaxed else x1
    return (True, None) if needed.is_subset(y1) else (False, y1)


def _singleton_violation(x, over):
    """Least y in ``over`` with x ⊄ {y}, or None when every y satisfies it."""
    if x.is_empty() or over.is_empty():
        return None
    if x.cardinality() == 1:
        rest = over.difference(x)
        return None if rest.is_empty() else rest.least()
    return over.least()
