"""Finite concurrence checks and the monotone-union consequence of axiom (ii).

A relation is concurrent on a domain when every nonempty finite subset of
the domain admits one common right-bound.  On a finite carrier this is
decided exactly, with the least failing subset in ascending index-bitmask
order, by one descent: that subset takes the least possible highest
element, then the least possible next one, and so on.  The descent reads
each pair a bounded number of times, O(|pairs| + |D|) in all, so no domain
size is refused.  A chain ordered by ≤ is always concurrent (bounded by
its maximum), while strict < on any finite carrier never is: nothing lies
strictly above the top.  That contrast is precisely the finite content the
infinite-bound constructions rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Sequence

from .sets import SentenceSet, UniverseMismatchError, _Frozen, _setattr

if TYPE_CHECKING:
    from .operators import OperatorExpr


class ConcurrenceResult(_Frozen):
    __slots__ = ("concurrent", "bound", "failing_subset")

    def __init__(
        self, concurrent: bool, bound: Hashable | None = None, failing_subset: tuple | None = None
    ) -> None:
        _setattr(self, "concurrent", concurrent)
        _setattr(self, "bound", bound)
        _setattr(self, "failing_subset", failing_subset)

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
    if len(set(domain)) != len(domain):
        raise ValueError("domain elements must be distinct")
    if not domain:
        return ConcurrenceResult(True)

    successors: dict[Hashable, set] = {x: set() for x in domain}
    for x, y in pairs:
        if x in successors:
            successors[x].add(y)
    succ = [successors[x] for x in domain]

    # last[t], for each target t of domain[0]: the first index whose
    # successors miss t, or |D|.  The prefix 0..k shares t iff last[t] > k.
    last = {}
    for t in succ[0]:
        i = 1
        while i < len(succ) and t in succ[i]:
            i += 1
        last[t] = i
    whole = {t for t, i in last.items() if i == len(succ)}
    if whole:
        return ConcurrenceResult(True, bound=_least(whole))

    # The least failing subset by index bitmask takes the least highest
    # element k whose prefix 0..k shares nothing with the targets common to
    # the elements taken so far: the largest last[t] over those targets.
    k = max(last.values(), default=0)
    chosen, common = [k], succ[k]
    while common:
        k = max(last.get(t, 0) for t in common)
        chosen.append(k)
        common = common & succ[k]
    return ConcurrenceResult(False, failing_subset=tuple(domain[i] for i in reversed(chosen)))


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
