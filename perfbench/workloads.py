"""Seeded request streams for the three workloads.

A stream is a deterministic function of the seed and imports nothing from
``tarski_lab``.  It is built from rounds: each round holds a fixed multiset
of request slots in a seeded order, so every stretch of a run sees the same
mix, and the latency percentiles fall inside one slot class rather than on
the edge between two (see README.md for which class each percentile hits).
Each request carries the text the program sees and the expression trees
the reference checker reads.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import count

import oracle

WORKLOADS = ("finite-verdicts", "operator-space", "cli-cold")

# Peak RSS is read after this many requests, whole rounds well inside a
# run, so that it does not grow with how many requests the host's speed
# lets a run finish (the program's composite memo is unbounded).  After 200
# finite-verdicts requests the memo holds about 31 000 entries, well away
# from the sizes where its table doubles (21 845 and 43 690 entries); at
# 300 some seeds had crossed the second and others not, 3 MB apart.
RSS_AFTER = {"finite-verdicts": 200, "operator-space": 90, "cli-cold": 50}

# -- finite-verdicts -----------------------------------------------------------
#
# Per round of 20: the n=8 axiom check is the top 5 %, the two n=7 checks
# span 85-95 % (so p90 sits in their middle), the rest are lighter.
FINITE_SLOTS = (
    [("check", 4), ("check", 4), ("check", 5), ("check", 5), ("check", 6), ("check", 6)]
    + [("check", 7), ("check", 7), ("check", 8)]
    + [("le", 6), ("le", 7), ("le", 8), ("le", 9)]
    + [("equivalent", 5), ("equivalent", 7), ("equivalent", 8)]
    + [("fixpoints", 5), ("fixpoints", 6), ("fixpoints", 7), ("fixpoints", 8)]
)

COMPOSITES = ("meet", "join", "wjoin", "comp")


def _leaf(rng: random.Random, n: int) -> tuple:
    roll = rng.random()
    if roll < 0.08:
        return ("I",)
    head = "cxy" if roll < 0.54 else "cprime"
    return (head, rng.randrange(1 << n), rng.randrange(1 << n))


def _expr(rng: random.Random, n: int, depth: int) -> tuple:
    """An expression whose composite nesting is exactly ``depth``."""
    if depth == 0:
        return _leaf(rng, n)
    deep = _expr(rng, n, depth - 1)
    other = _expr(rng, n, rng.randrange(depth))
    if rng.random() < 0.5:
        deep, other = other, deep
    return (rng.choice(COMPOSITES), deep, other)


class _Unique:
    """Refuses a request whose top-level or composite terms were seen before,
    so no memo in the program can answer one request from another."""

    def __init__(self) -> None:
        self.seen: set[tuple[int, str]] = set()

    def fresh(self, n: int, exprs: list[tuple]) -> bool:
        keys = set()
        for e in exprs:
            keys.add((n, oracle.render(e, n)))
            keys.update((n, oracle.render(c, n)) for c in oracle.composite_subterms(e))
        if keys & self.seen:
            return False
        self.seen |= keys
        return True


def _finite_pair(rng: random.Random, kind: str, n: int, turn: int) -> list[tuple]:
    a = _expr(rng, n, turn % 2)
    c = _expr(rng, n, turn // 2 % 2)
    roll = turn % 3
    if kind == "le":
        if roll == 0:
            return [a, (rng.choice(("join", "wjoin")), a, c)]
        if roll == 1:
            return [("join", a, c), a]
        return [a, c]
    if roll == 0:
        op = rng.choice(("meet", "join"))
        return [(op, a, c), (op, c, a)]
    if roll == 1:
        return [("join", a, ("I",)), a]
    return [a, c]


def _finite_request(rng: random.Random, unique: _Unique, kind: str, n: int, turn: int) -> dict:
    """``turn`` counts the earlier requests of the same slot class.  The
    nesting depths and pair shapes cycle with it and only the leaves and
    connectives are drawn, so every seed gets the same mix of shapes, and
    with it the same growth of the program's composite memo."""
    while True:
        if kind in ("le", "equivalent"):
            exprs = _finite_pair(rng, kind, n, turn)
        else:
            exprs = [_expr(rng, n, turn % 3)]
        if kind == "fixpoints":
            fixed = oracle.fixed_points(oracle.table(exprs[0], n))
            if not oracle.is_closure_family(fixed, n):
                continue
        if unique.fresh(n, exprs):
            return {"kind": kind, "n": n, "exprs": exprs, "texts": [oracle.render(e, n) for e in exprs]}


def _finite_verdicts(seed: int):
    rng = random.Random(f"finite-verdicts/{seed}")
    unique = _Unique()
    turns: Counter = Counter()
    while True:
        slots = list(FINITE_SLOTS)
        rng.shuffle(slots)
        for kind, n in slots:
            yield _finite_request(rng, unique, kind, n, turns[kind, n])
            turns[kind, n] += 1


# -- operator-space ------------------------------------------------------------
#
# Per round of 30 (latency order): twelve requests under ~50 ms, then five
# thm-2.5 runs spanning 40-57 % (p50 sits inside them), five thm-4.3-lemma
# runs, three n=4 enumerations, four thm-3.5 runs spanning 83-97 % (p90 sits
# inside them) and remark-2.2 on top.  Both percentiles fall on long
# requests whose cost does not depend on the seed.
SWEEP_DEMOS = ("thm-2.5", "thm-2.7", "thm-3.1", "thm-3.5", "lemma-2.6", "remark-2.2", "thm-4.3-lemma")

OPERATOR_SLOTS = (
    [("roundtrip", 3), ("roundtrip", 4), ("order", 3), ("order", 4), ("atom", 3), ("dense", 3), ("enumerate", 3)]
    + [("demo", "thm-2.7"), ("demo", "thm-3.1")]
    + [("atom", 4), ("dense", 4), ("demo", "lemma-2.6")]
    + [("demo", "thm-2.5")] * 5 + [("demo", "thm-4.3-lemma")] * 5 + [("enumerate", 4)] * 3
    + [("demo", "thm-3.5")] * 4 + [("demo", "remark-2.2")]
)


def _operator_space(seed: int):
    rng = random.Random(f"operator-space/{seed}")
    families = {n: oracle.moore_families(n) for n in (3, 4)}
    # The round trips walk through every family in a seeded order, so any
    # stretch of the walk samples all sizes of family alike.
    walk = {n: rng.sample(range(len(families[n])), len(families[n])) for n in (3, 4)}
    sweep = {3: 0, 4: 0}
    member = {3: 0, 4: 0}

    def system(n: int, index: int) -> tuple:
        return ("system", families[n][index])

    while True:
        slots = list(OPERATOR_SLOTS)
        rng.shuffle(slots)
        for kind, arg in slots:
            if kind == "demo":
                yield {"kind": "demo", "name": arg}
                continue
            n = arg
            if kind == "roundtrip":
                exprs = [system(n, walk[n][sweep[n]])]
                sweep[n] = (sweep[n] + 1) % len(families[n])
            elif kind == "order":
                exprs = [system(n, rng.randrange(len(families[n]))) for _ in range(2)]
            elif kind == "atom":
                exprs = [oracle.e0_member(member[n], n)]
                member[n] = (member[n] + 1) % n
            else:
                exprs = []
            yield {"kind": kind, "n": n, "exprs": exprs, "texts": [oracle.render(e, n) for e in exprs]}


# -- cli-cold ----------------------------------------------------------------------
#
# Per round of 25: twenty light commands (p50 sits among them), four
# `enumerate --n 4` (80-96 %, so p90 sits inside them) and one
# `atoms --n 4` on top.
LIGHT_COMMANDS = (
    "check", "order", "combine", "complement", "theories", "chain", "sublattice", "lemma26",
    "check-cofinite", "order-cofinite", "chain-cofinite", "descend",
    "words-encode", "words-decode", "words-split", "words-classify", "words-equiv",
    "concurrent", "enumerate-3", "demo",
)
CLI_SLOTS = list(LIGHT_COMMANDS) + ["enumerate-4"] * 4 + ["atoms-4"]
CHEAP_DEMOS = ("example-2.8", "example-3.2", "example-3.4", "thm-2.7", "thm-3.1", "thm-3.3")


def _universe_arg(n: int) -> str:
    return ",".join(oracle.SYMBOLS[:n])


def _cofinite_set(rng: random.Random) -> tuple[bool, tuple[int, ...]]:
    members = tuple(sorted(rng.sample(range(6), rng.randrange(4))))
    finite = rng.random() < 0.5
    if not finite and not members:
        members = (rng.randrange(6),)
    return (finite, members)


def _word(rng: random.Random, alphabet: str, low: int, high: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(low, high)))


def _cli_request(rng: random.Random, slot: str) -> dict:
    """One command line; ``spec`` holds what the reference checker needs."""
    if slot == "enumerate-3":
        return {"kind": slot, "argv": ["enumerate", "--n", "3", "--json"], "spec": {"n": 3}}
    if slot == "enumerate-4":
        return {"kind": slot, "argv": ["enumerate", "--n", "4", "--json"], "spec": {"n": 4}}
    if slot == "atoms-4":
        return {"kind": slot, "argv": ["atoms", "--n", "4", "--json"], "spec": {"n": 4}}
    if slot == "demo":
        name = rng.choice(CHEAP_DEMOS)
        return {"kind": slot, "argv": ["demo", name, "--json"], "spec": {"name": name}}
    if slot == "descend":
        length = rng.randint(2, 40)
        return {"kind": slot, "argv": ["descend", str(length), "--json"], "spec": {"length": length}}
    if slot == "check-cofinite":
        head = rng.choice(("cxy", "cprime"))
        x, y = _cofinite_set(rng), _cofinite_set(rng)
        text = f"{head} {oracle.cofinite_literal(x)} {oracle.cofinite_literal(y)}"
        return {
            "kind": slot,
            "argv": ["check", "--universe", "cofinite", text, "--json"],
            "spec": {"head": head, "x": x, "y": y, "text": text},
        }
    if slot in ("order-cofinite", "chain-cofinite"):
        # A chain on the naturals is decided only within one family sharing
        # its second parameter, so chain members vary X alone.
        head, y = rng.choice(("cxy", "cprime")), _cofinite_set(rng)
        size = 2 if slot == "order-cofinite" else rng.randint(2, 4)
        leaves = []
        for _ in range(size):
            if slot == "order-cofinite":
                head, y = rng.choice(("cxy", "cprime")), _cofinite_set(rng)
            leaves.append((head, _cofinite_set(rng), y))
        texts = [f"{h} {oracle.cofinite_literal(x)} {oracle.cofinite_literal(y)}" for h, x, y in leaves]
        command = "order" if slot == "order-cofinite" else "chain"
        return {
            "kind": slot,
            "argv": [command, "--universe", "cofinite"] + texts + ["--json"],
            "spec": {"leaves": leaves, "texts": texts},
        }
    if slot.startswith("words-"):
        alphabet = "".join(rng.sample("abcdehimst", rng.randint(2, 5)))
        prefix = ["words", "--alphabet", alphabet]
        if slot == "words-encode":
            word = _word(rng, alphabet, 1, 9)
            return {"kind": slot, "argv": prefix + ["encode", word, "--json"], "spec": {"alphabet": alphabet, "word": word}}
        if slot == "words-decode":
            code = rng.randrange(10**6)
            return {"kind": slot, "argv": prefix + ["decode", str(code), "--json"], "spec": {"alphabet": alphabet, "code": code}}
        if slot == "words-split":
            word = _word(rng, alphabet, 2, 9)
            k = rng.randrange(len(word))
            return {
                "kind": slot,
                "argv": prefix + ["split", "--k", str(k), word, "--json"],
                "spec": {"alphabet": alphabet, "word": word, "k": k},
            }
        if slot == "words-classify":
            word = _word(rng, alphabet, 1, 12)
            return {"kind": slot, "argv": prefix + ["classify", word, "--json"], "spec": {"alphabet": alphabet, "word": word}}
        word = _word(rng, alphabet, 2, 10)
        cuts = sorted(rng.sample(range(1, len(word)), rng.randrange(len(word))))
        first = ",".join(word[a:b] for a, b in zip([0] + cuts, cuts + [len(word)]))
        other = word if rng.random() < 0.6 else _word(rng, alphabet, 2, 10)
        second = ",".join(other[i : i + 2] for i in range(0, len(other), 2))
        return {
            "kind": slot,
            "argv": prefix + ["equiv", first, second, "--json"],
            "spec": {"alphabet": alphabet, "first": first, "second": second},
        }
    if slot == "concurrent":
        size = rng.randint(2, 6)
        domain = [str(i) for i in range(size)]
        targets = [str(i) for i in range(size + 3)]
        pairs = [(x, y) for x in domain for y in targets if rng.random() < 0.6]
        edges = "".join(f"{x} {y}\n" for x, y in pairs)
        return {
            "kind": slot,
            "argv": ["concurrent", "-", "--domain", ",".join(domain), "--json"],
            "stdin": edges,
            "spec": {"pairs": pairs, "domain": domain},
        }
    n = rng.choice((3, 4))
    universe = ["--universe", _universe_arg(n)]
    if slot == "check":
        e = _expr(rng, n, rng.randrange(3))
        text = oracle.render(e, n)
        return {"kind": slot, "argv": ["check"] + universe + [text, "--json"], "spec": {"n": n, "exprs": [e]}}
    if slot == "order":
        exprs = [_expr(rng, n, rng.randrange(2)) for _ in range(2)]
        texts = [oracle.render(e, n) for e in exprs]
        return {"kind": slot, "argv": ["order"] + universe + texts + ["--json"], "spec": {"n": n, "exprs": exprs}}
    if slot == "combine":
        op = rng.choice(("meet", "wjoin"))
        while True:
            exprs = [_leaf(rng, n), _leaf(rng, n)]
            fixed = oracle.fixed_points(oracle.table((op,) + tuple(exprs), n))
            if oracle.is_closure_family(fixed, n):
                break
        texts = [oracle.render(e, n) for e in exprs]
        return {
            "kind": slot,
            "argv": [op] + universe + texts + ["--json"],
            "spec": {"n": n, "op": op, "exprs": exprs},
        }
    if slot == "complement":
        while True:
            lower = _leaf(rng, n)
            upper = ("wjoin", lower, _leaf(rng, n))
            low, up = oracle.table(lower, n), oracle.table(upper, n)
            strict = low != list(range(1 << n)) and low != up and oracle.le_witness(low, up) is None
            if strict and up != [(1 << n) - 1] * (1 << n):
                break
        texts = [oracle.render(lower, n), oracle.render(upper, n)]
        return {"kind": slot, "argv": ["complement"] + universe + texts + ["--json"], "spec": {"n": n, "exprs": [lower, upper]}}
    if slot == "sublattice":
        b = rng.randrange(1, 1 << n)
        if n == 3 and rng.random() < 0.3:
            generators, extra = list(range(1 << n)), ["--all-generators"]
        else:
            generators = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
            extra = [oracle.set_literal(g, n) for g in generators]
        argv = ["sublattice"] + universe + ["--b", oracle.set_literal(b, n), "--json"] + extra
        return {"kind": slot, "argv": argv, "spec": {"n": n, "b": b, "generators": generators}}
    if slot == "theories":
        while True:
            e = _expr(rng, n, rng.randrange(3))
            if oracle.is_closure_family(oracle.fixed_points(oracle.table(e, n)), n):
                break
        return {"kind": slot, "argv": ["theories"] + universe + [oracle.render(e, n), "--json"], "spec": {"n": n, "exprs": [e]}}
    if slot == "chain":
        exprs = [_leaf(rng, n) for _ in range(rng.randint(2, 4))]
        texts = [oracle.render(e, n) for e in exprs]
        return {"kind": slot, "argv": ["chain"] + universe + texts + ["--json"], "spec": {"n": n, "exprs": exprs}}
    if slot == "lemma26":
        while True:
            e = _expr(rng, n, rng.randrange(2))
            tab = oracle.table(e, n)
            if tab[0] != 0 and oracle.is_consequence(tab, n):
                break
        return {"kind": slot, "argv": ["lemma26"] + universe + [oracle.render(e, n), "--json"], "spec": {"n": n, "exprs": [e]}}
    raise ValueError(f"unknown slot {slot!r}")


def _cli_cold(seed: int):
    rng = random.Random(f"cli-cold/{seed}")
    while True:
        slots = list(CLI_SLOTS)
        rng.shuffle(slots)
        for slot in slots:
            yield _cli_request(rng, slot)


_STREAMS = {"finite-verdicts": _finite_verdicts, "operator-space": _operator_space, "cli-cold": _cli_cold}
_SLOTS = {"finite-verdicts": FINITE_SLOTS, "operator-space": OPERATOR_SLOTS, "cli-cold": CLI_SLOTS}


def stream(workload: str, seed: int):
    """Endless numbered request stream; the same seed gives the same stream."""
    for index, request in zip(count(), _STREAMS[workload](seed)):
        request["id"] = index
        yield request


def round_size(workload: str) -> int:
    return len(_SLOTS[workload])


def request_kinds(workload: str) -> set[str]:
    """Every request kind a round of the workload contains."""
    return {slot if isinstance(slot, str) else slot[0] for slot in _SLOTS[workload]}
