"""Literal reference computations shared by the test modules."""


def all_subsets(universe) -> tuple:
    """Every subset of a finite universe, ascending by bitmask."""
    return tuple(universe.from_mask(m) for m in range(1 << universe.size))
