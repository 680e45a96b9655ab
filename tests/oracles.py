"""Literal reference computations shared by the test modules."""


def least_closed_supersets(closed_masks, size: int) -> tuple[int, ...]:
    """For every subset mask on ``size`` symbols, the AND of the closed masks containing it."""
    full = (1 << size) - 1
    out = []
    for m in range(1 << size):
        value = full
        for closed in closed_masks:
            if closed & m == m:
                value &= closed
        out.append(value)
    return tuple(out)


def all_subsets(universe) -> tuple:
    """Every subset of a finite universe, ascending by bitmask."""
    return tuple(universe.from_mask(m) for m in range(1 << universe.size))
