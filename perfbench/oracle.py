"""Reference answers for the benchmark, written from the definitions.

Nothing here imports ``tarski_lab``: every expected verdict, witness, count
and report is computed from the literal definitions on bitmasks, so a
defect in the code under test cannot also hide in its reference.

Finite sets are bitmasks over symbol indices (``a`` is bit 0).  Operator
expressions are tuples:

    ("I",)  ("cxy", X, Y)  ("cprime", X, Y)  ("system", (M1, M2, ...))
    ("meet", e1, e2)  ("join", e1, e2)  ("wjoin", e1, e2)  ("comp", e1, e2)

with the meaning given in the program's README: ``cxy`` adds X when the
argument meets Y, ``cprime`` adds X when Y is inside the argument, ``meet``
and ``join`` are pointwise ∩ and ∪, ``comp(e1,e2)`` is e1 after e2, ``wjoin``
iterates e2∘e1 to its first fixed point, and ``system[...]`` maps a set to
its least closed superset in the family.
"""

from __future__ import annotations

SYMBOLS = "abcdefghij"

# Published numbers of closure systems (Moore families) on n points, n = 1..4
# (OEIS A102896; Habib & Nourine, Discrete Math. 2005).
MOORE_COUNTS = {1: 2, 2: 7, 3: 61, 4: 2480}


def low_bit_index(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# -- text --------------------------------------------------------------------


def set_literal(mask: int, n: int) -> str:
    return "{" + ",".join(SYMBOLS[i] for i in range(n) if mask >> i & 1) + "}"


def render(expr: tuple, n: int) -> str:
    """Canonical text of an expression in the program's operator grammar."""
    head = expr[0]
    if head == "I":
        return "I"
    if head in ("cxy", "cprime"):
        return f"{head} {set_literal(expr[1], n)} {set_literal(expr[2], n)}"
    if head == "system":
        return "system[" + ";".join(set_literal(m, n) for m in expr[1]) + "]"
    return f"{head}({render(expr[1], n)},{render(expr[2], n)})"


def composite_subterms(expr: tuple):
    """Every composite node of ``expr``, outermost first."""
    if expr[0] in ("meet", "join", "wjoin", "comp"):
        yield expr
        yield from composite_subterms(expr[1])
        yield from composite_subterms(expr[2])


# -- tables ------------------------------------------------------------------


def table(expr: tuple, n: int) -> list[int]:
    """``t[m]`` is the image of the subset with bitmask ``m``."""
    size = 1 << n
    head = expr[0]
    if head == "I":
        return list(range(size))
    if head == "cxy":
        x, y = expr[1], expr[2]
        return [m | x if m & y else m for m in range(size)]
    if head == "cprime":
        x, y = expr[1], expr[2]
        return [m | x if y & ~m == 0 else m for m in range(size)]
    if head == "system":
        return closure_table(expr[1], n)
    left, right = table(expr[1], n), table(expr[2], n)
    if head == "meet":
        return [p & q for p, q in zip(left, right)]
    if head == "join":
        return [p | q for p, q in zip(left, right)]
    if head == "comp":
        return [left[right[m]] for m in range(size)]
    if head == "wjoin":
        out = []
        for m in range(size):
            y = m
            for _ in range(size + 1):
                z = right[left[y]]
                if z == y:
                    break
                y = z
            else:
                raise ValueError("weak join does not settle")
            out.append(y)
        return out
    raise ValueError(f"unknown expression head {head!r}")


def closure_table(family, n: int) -> list[int]:
    """Least closed superset of every subset in a closure system."""
    full = (1 << n) - 1
    out = []
    for m in range(1 << n):
        value = full
        for closed in family:
            if closed & m == m:
                value &= closed
        out.append(value)
    return out


def fixed_points(tab: list[int]) -> list[int]:
    return [m for m, v in enumerate(tab) if v == m]


def is_closure_family(masks, n: int) -> bool:
    """Contains the whole universe and is closed under intersection."""
    present = set(masks)
    if (1 << n) - 1 not in present:
        return False
    ordered = sorted(present)
    return all(a & b in present for i, a in enumerate(ordered) for b in ordered[i + 1 :])


# -- axioms, order -----------------------------------------------------------


def _verdict(witness: dict | None) -> dict:
    out: dict = {"passed": witness is None, "conclusive": True}
    if witness is not None:
        out["witness"] = witness
    return out


def axiom_payload(tab: list[int], n: int) -> dict:
    """Finite-universe axiom report with least-bitmask witnesses.

    (i) X ⊆ C(X) = C(C(X)); (ii) X ⊆ Y implies C(X) ⊆ C(Y), first failing
    pair in (X, Y) order; (iii) C(X) equals the union of C(A) over A ⊆ X, the
    witness element being the least missing one, else the least extra one.
    """
    size = 1 << n
    first = None
    for s in range(size):
        image = tab[s]
        if s & ~image or tab[image] != image:
            first = {"set": set_literal(s, n)}
            break
    second = None
    for s in range(size):
        t = s
        while t < size:
            if tab[s] & ~tab[t]:
                second = {"smaller": set_literal(s, n), "larger": set_literal(t, n)}
                break
            t = (t + 1) | s
        if second is not None:
            break
    third = None
    for s in range(size):
        union = 0
        a = s
        while True:
            union |= tab[a]
            if a == 0:
                break
            a = (a - 1) & s
        if union != tab[s]:
            missing, extra = tab[s] & ~union, union & ~tab[s]
            element = low_bit_index(missing if missing else extra)
            third = {"set": set_literal(s, n), "element": element}
            break
    return {
        "axiom-i": _verdict(first),
        "axiom-ii": _verdict(second),
        "axiom-iii": _verdict(third),
        "axiomless": tab[0] == 0,
        "mode": "exhaustive",
        "finitary-followed-from-i-ii": first is None and second is None,
    }


def le_witness(left: list[int], right: list[int]) -> int | None:
    """Least X with left(X) ⊄ right(X), or None when left ≤ right."""
    for m, (p, q) in enumerate(zip(left, right)):
        if p & ~q:
            return m
    return None


def is_consequence(tab: list[int], n: int) -> bool:
    """Axioms (i) and (ii) hold."""
    report = axiom_payload(tab, n)
    return report["axiom-i"]["passed"] and report["axiom-ii"]["passed"]


# -- Moore families ------------------------------------------------------------


def moore_families(n: int) -> list[tuple[int, ...]]:
    """Every closure system on n points, as ascending tuples of closed masks,
    listed in ascending order of the family's bitmask over P(L).

    Subsets are decided from L downward; an intersection of two chosen sets
    is forced in, anything else is excluded first and then included.
    """
    full = (1 << n) - 1
    out: list[int] = []

    def walk(m: int, chosen: list[int], family: int, forced: int) -> None:
        # ``forced`` has bit s set when s is the intersection of two chosen sets.
        if m < 0:
            out.append(family)
            return
        if not forced >> m & 1:
            walk(m - 1, chosen, family, forced)
        meets = 0
        for c in chosen:
            meets |= 1 << (c & m)
        chosen.append(m)
        walk(m - 1, chosen, family | 1 << m, forced | meets)
        chosen.pop()

    walk(full - 1, [full], 1 << full, 0)
    return [tuple(m for m in range(full + 1) if fam >> m & 1) for fam in sorted(out)]


def e0_member(x: int, n: int) -> tuple:
    """The candidate atom adding {x} once everything else is present."""
    full = (1 << n) - 1
    return ("cprime", 1 << x, full & ~(1 << x))


# -- the infinite universe -------------------------------------------------------
#
# A cofinite-mode set is (finite, members): finite=True lists the set, False
# lists its complement.


def cofinite_literal(s: tuple[bool, tuple[int, ...]]) -> str:
    finite, members = s
    body = ",".join(str(i) for i in members)
    if finite:
        return "{" + body + "}"
    return "co{" + body + "}" if members else "L"


def cofinite_check_payload(head: str, x, y) -> dict:
    """Closed-form axiom report on the naturals for the two families.

    Both families satisfy (i) and (ii) outright.  ``cxy`` is finitary and
    axiomless.  ``cprime X Y`` loses finitarity exactly when Y is infinite
    and X ⊄ Y: Y itself witnesses it with the least element of X − Y.
    ``cprime`` is axiomless unless it adds a nonempty X to every argument.
    """
    third = None
    if head == "cxy":
        axiomless = True
    else:
        x_empty = x[0] and not x[1]
        y_empty = y[0] and not y[1]
        axiomless = x_empty or not y_empty
        if not y[0]:
            extra = _cofinite_difference(x, y)
            if extra is not None:
                third = {"set": cofinite_literal(y), "element": extra}
    return {
        "axiom-i": _verdict(None),
        "axiom-ii": _verdict(None),
        "axiom-iii": _verdict(third),
        "axiomless": axiomless,
        "mode": "closed-form",
    }


def parse_cofinite_literal(text: str) -> tuple[bool, tuple[int, ...]]:
    if text == "L":
        return (False, ())
    finite = not text.startswith("co")
    body = text[1:-1] if finite else text[3:-1]
    return (finite, tuple(int(i) for i in body.split(",") if i))


class CofiniteModel:
    """Finite stand-in for the naturals, exact for cxy/cprime comparisons.

    Elements 0..k-1 are themselves; two more points stand for everything
    from k on.  Every parameter and argument is finite or cofinite, so past
    its largest listed element it holds all of the tail or none of it.  An
    argument can also hold only part of the tail (one of the two points).
    Which of those three cases holds is all that ``cxy``/``cprime`` ever
    read, so a ≤ b on the naturals exactly when a ≤ b on this model.
    """

    def __init__(self, *sets) -> None:
        self.k = 1 + max((e for s in sets for e in s[1]), default=0)
        self.full = (1 << (self.k + 2)) - 1

    def mask(self, s) -> int:
        finite, members = s
        bits = 0
        for e in members:
            bits |= 1 << e
        return bits if finite else self.full & ~bits

    def literal(self, mask: int) -> str:
        tail = mask >> self.k
        if tail == 0:
            return cofinite_literal((True, tuple(i for i in range(self.k) if mask >> i & 1)))
        if tail != 3:
            raise ValueError("a part of the tail has no literal")
        return cofinite_literal((False, tuple(i for i in range(self.k) if not mask >> i & 1)))

    def table(self, head: str, x, y) -> list[int]:
        return table((head, self.mask(x), self.mask(y)), self.k + 2)


def _cofinite_difference(x, y) -> int | None:
    """Least element of X − Y for Y cofinite, or None when X ⊆ Y."""
    x_finite, x_members = x
    excluded = set(y[1])  # Y misses exactly these
    if x_finite:
        hits = [e for e in x_members if e in excluded]
    else:
        hits = [e for e in excluded if e not in set(x_members)]
    return min(hits) if hits else None


# -- complements and the fixed-trigger sublattice -------------------------------------


def relative_complement(lower: list[int], upper: list[int]) -> list[int]:
    """(upper(A) − lower(A)) ∪ A for every A."""
    return [(u & ~c) | m for m, (c, u) in enumerate(zip(lower, upper))]


def render_table(tab: list[int], n: int) -> str:
    return "table[" + ";".join(f"{set_literal(m, n)}>{set_literal(v, n)}" for m, v in enumerate(tab)) + "]"


def non_chain_witness(b: int, generators: list[int], n: int) -> dict | None:
    """Least A in the ∪/∩ closure of the generators with ∅ ≠ b ⊊ A ≠ L such
    that cxy A b and cxy {d} b are incomparable, d the least element outside A."""
    if not b:
        return None
    full = (1 << n) - 1
    closure = set(generators)
    grew = True
    while grew:
        new = {p | q for p in closure for q in closure} | {p & q for p in closure for q in closure}
        grew = not new <= closure
        closure |= new
    for a in sorted(closure):
        if a and a != full and a & b == b and a != b:
            d = (full & ~a) & -(full & ~a)
            ta, td = table(("cxy", a, b), n), table(("cxy", d, b), n)
            if le_witness(ta, td) is not None and le_witness(td, ta) is not None:
                return {"first": set_literal(a, n), "second": set_literal(d, n), "probe": set_literal(b, n)}
    return None


# -- words --------------------------------------------------------------------------


def word_code(word: str, alphabet: str) -> int:
    """Shortlex rank from 0: all shorter words first, then lexicographic."""
    k = len(alphabet)
    value = 0
    for ch in word:
        value = value * k + alphabet.index(ch)
    return sum(k**j for j in range(1, len(word))) + value


def word_of_code(code: int, alphabet: str) -> str:
    k = len(alphabet)
    length = 1
    while code >= k**length:
        code -= k**length
        length += 1
    digits = []
    for _ in range(length):
        digits.append(alphabet[code % k])
        code //= k
    return "".join(reversed(digits))


def word_splits(word: str, k: int) -> list[str]:
    """Cuttings into k + 1 pieces, cut sets in ascending bitmask order."""
    gaps = len(word) - 1
    out = []
    for mask in range(1 << gaps):
        if bin(mask).count("1") != k:
            continue
        pieces, start = [], 0
        for g in range(gaps):
            if mask >> g & 1:
                pieces.append(word[start : g + 1])
                start = g + 1
        pieces.append(word[start:])
        out.append(",".join(pieces))
    return out


# -- concurrence ---------------------------------------------------------------------


def concurrence(pairs: list[tuple[str, str]], domain: list[str]) -> dict:
    """A common right-bound for the domain, else the least failing subset."""
    succ = {x: {y for a, y in pairs if a == x} for x in domain}
    common = set.intersection(*(succ[x] for x in domain))
    if common:
        return {"concurrent": True, "bound": min(common)}
    for mask in range(1, 1 << len(domain)):
        members = [domain[i] for i in range(len(domain)) if mask >> i & 1]
        if not set.intersection(*(succ[x] for x in members)):
            return {"concurrent": False, "failing-subset": members}
    raise ValueError("no failing subset")
