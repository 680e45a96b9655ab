"""Literal reference computations, and a reader for packed flags, shared by
the test modules."""


def all_subsets(universe) -> tuple:
    """Every subset of a finite universe, ascending by bitmask."""
    return tuple(universe.from_mask(m) for m in range(1 << universe.size))


def flag_bytes(flags, lanes, count):
    """The per-table flags of a ``classify._fold`` result over ``count`` tables
    as one byte each, 1 where table k's flag is set: its first byte."""
    step = lanes.slot // 8
    return flags.to_bytes(count * step, "little")[::step]


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
