"""Finite concurrence checks and the monotone-union consequence of axiom (ii).

A relation is concurrent on a domain when every nonempty finite subset of
the domain admits one common right-bound.  On a finite carrier this is
decided exactly by sweeping all subsets (ascending index-bitmask order, so
the reported failing subset is the least one); the sweep is capped at 20
domain elements.  A chain ordered by ≤ is always concurrent (bounded by
its maximum), while strict < on any finite carrier never is: nothing lies
strictly above the top.  That contrast is precisely the finite content the
infinite-bound constructions rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

from .sets import SentenceSet, UniverseMismatchError

if TYPE_CHECKING:
    from .operators import OperatorExpr

DOMAIN_CAP = 20


@dataclass(frozen=True)
class ConcurrenceResult:
    concurrent: bool
    bound: Hashable | None = None
    failing_subset: tuple | None = None

    def __bool__(self) -> bool:
        return self.concurrent


def _least(items: set) -> Hashable:
    try:
        return min(items)
    except TypeError:
        return min(items, key=repr)


def is_concurrent(
    pairs: Sequence[tuple[Hashable, Hashable]], domain: Sequence[Hashable]
) -> ConcurrenceResult:
    """Exact concurrence verdict with the least failing subset on false."""
    domain = list(domain)
    if len(domain) > DOMAIN_CAP:
        raise ValueError(f"domain of {len(domain)} exceeds the exhaustive cap {DOMAIN_CAP}")
    if len(set(domain)) != len(domain):
        raise ValueError("domain elements must be distinct")
    if not domain:
        return ConcurrenceResult(True)

    successors: dict[Hashable, set] = {x: set() for x in domain}
    targets: list[Hashable] = []
    seen_targets: set = set()
    for x, y in pairs:
        if x in successors:
            successors[x].add(y)
        if y not in seen_targets:
            seen_targets.add(y)
            targets.append(y)

    whole = set.intersection(*(successors[x] for x in domain))
    if whole:
        return ConcurrenceResult(True, bound=_least(whole))

    # Some subset fails; find the least one by index bitmask.  A bound for a
    # superset bounds every subset, so the full-domain test above already
    # settled the concurrent case.
    index_of = {y: i for i, y in enumerate(targets)}
    succ_bits = []
    for x in domain:
        bits = 0
        for y in successors[x]:
            bits |= 1 << index_of[y]
        succ_bits.append(bits)
    size = len(domain)
    every = (1 << len(targets)) - 1
    inter = [every] * (1 << size)
    for mask in range(1, 1 << size):
        low = mask & -mask
        inter[mask] = inter[mask ^ low] & succ_bits[low.bit_length() - 1]
        if inter[mask] == 0:
            failing = tuple(domain[i] for i in range(size) if mask >> i & 1)
            return ConcurrenceResult(False, failing_subset=failing)
    raise RuntimeError("sweep found no failing subset despite an unbounded domain")


def monotone_union_check(op: OperatorExpr, parts: Sequence[SentenceSet]) -> bool:
    """Whether the union of the images is inside the image of the union.

    This holds for every monotone operator; a false verdict identifies an
    axiom (ii) violation in the operand.
    """
    # Imported here so that the concurrence check loads no ``operators``.
    from .operators import evaluate

    parts = list(parts)
    if not parts:
        raise ValueError("at least one part is required")
    for part in parts:
        if part.universe != op.universe:
            raise UniverseMismatchError("part from a different universe")
    union_of_images = evaluate(op, parts[0])
    union_of_parts = parts[0]
    for part in parts[1:]:
        union_of_images = union_of_images.union(evaluate(op, part))
        union_of_parts = union_of_parts.union(part)
    return union_of_images.is_subset(evaluate(op, union_of_parts))
