"""Expected exit code and output of every request, from the reference alone.

``expected(request)`` returns ``(exit_code, form, value)``: ``form`` is
"json" when the output must parse to the dict ``value``, "call" when the
parsed output must satisfy the predicate ``value``, and "bytes" when it
must equal the text ``value`` exactly (the demo goldens).
"""

from __future__ import annotations

import json
import os

import oracle

_GOLDEN_CACHE: dict[str, str] = {}


def golden(root: str, name: str) -> str:
    if name not in _GOLDEN_CACHE:
        with open(os.path.join(root, "tests", "golden", f"demo-{name}.json"), encoding="utf-8") as handle:
            _GOLDEN_CACHE[name] = handle.read()
    return _GOLDEN_CACHE[name]


def _report(command: str, verdict, data: dict) -> dict:
    return {"command": command, "verdict": verdict, "data": data}


def _family_literal(family, n: int) -> str:
    return "[" + ";".join(oracle.set_literal(m, n) for m in family) + "]"


def _closed_sets(tab: list[int], n: int) -> list[str]:
    return [oracle.set_literal(m, n) for m in oracle.fixed_points(tab)]


def _passes(payload: dict, *axioms: str) -> bool:
    return all(payload[a]["passed"] for a in axioms)


def in_process(request: dict, root: str):
    kind = request["kind"]
    if kind == "demo":
        return 0, "bytes", golden(root, request["name"])
    n, texts = request["n"], request["texts"]
    tabs = [oracle.table(e, n) for e in request["exprs"]]
    command = " ".join([kind] + texts)
    if kind == "check":
        payload = oracle.axiom_payload(tabs[0], n)
        return 0, "json", _report(command, _passes(payload, "axiom-i", "axiom-ii"), {"axiom-report": payload})
    if kind == "roundtrip":
        payload = oracle.axiom_payload(tabs[0], n)
        verdict = _passes(payload, "axiom-i", "axiom-ii", "axiom-iii")
        return 0, "json", _report(command, verdict, {"axiom-report": payload, "closed-sets": _closed_sets(tabs[0], n)})
    if kind in ("le", "order"):
        witness = oracle.le_witness(tabs[0], tabs[1])
        data = {} if witness is None else {"witness": oracle.set_literal(witness, n)}
        if kind == "order":
            composite = [tabs[1][v] for v in tabs[0]]
            data["composition-identity"] = composite == tabs[1]
        return 0, "json", _report(command, witness is None, data)
    if kind == "equivalent":
        return 0, "json", _report(command, tabs[0] == tabs[1], {})
    if kind == "fixpoints":
        closed = _closed_sets(tabs[0], n)
        return 0, "json", _report(command, True, {"count": len(closed), "closed-sets": closed})
    if kind == "atom":
        # Theorem 2.7: every single-element candidate is an atom.
        return 0, "json", _report(command, True, {})
    if kind == "dense":
        # Theorem 2.7: every axiomatic operator dominates one of them.
        return 0, "json", _report(f"dense {n}", True, {})
    if kind == "enumerate":
        families = oracle.moore_families(n)
        data = {
            "count": oracle.MOORE_COUNTS[n],
            "first": _family_literal(families[0], n),
            "last": _family_literal(families[-1], n),
        }
        return 0, "json", _report(f"enumerate {n}", True, data)
    raise ValueError(f"unknown request kind {kind!r}")


def cli(request: dict, root: str):
    kind, spec = request["kind"], request["spec"]
    if kind == "demo":
        return 0, "bytes", golden(root, spec["name"])
    if kind in ("enumerate-3", "enumerate-4"):
        n = spec["n"]
        data = {"n": n, "include-top": False, "count": oracle.MOORE_COUNTS[n] - 1}
        return 0, "json", _report(f"enumerate --n {n}", True, data)
    if kind == "atoms-4":
        n = spec["n"]
        # Theorem 2.7 again: all candidates are atoms and they densely cover.
        atoms = {oracle.render(oracle.e0_member(x, n), n): True for x in range(n)}
        data = {"atoms": atoms, "dense-cover": True, "operator-count": oracle.MOORE_COUNTS[n]}
        return 0, "json", _report(f"atoms --n {n}", True, data)
    if kind == "descend":
        length = spec["length"]
        members = [f"cxy co{{{','.join(str(i) for i in range(1, k + 1))}}} {{0}}" for k in range(1, min(length, 8) + 1)]
        return 0, "json", _report(f"descend {length}", True, {"length": length, "first-members": members})
    if kind == "check-cofinite":
        payload = oracle.cofinite_check_payload(spec["head"], spec["x"], spec["y"])
        text = spec["text"]
        return 0, "json", _report(f"check {text}", True, {"operator": text, "axiom-report": payload})
    if kind == "order-cofinite":
        return _order_cofinite(spec)
    if kind == "chain-cofinite":
        return _chain_cofinite(spec)
    if kind.startswith("words-"):
        return _words(kind, spec)
    if kind == "concurrent":
        result = oracle.concurrence([tuple(p) for p in spec["pairs"]], spec["domain"])
        verdict = result.pop("concurrent")
        return (0 if verdict else 1), "json", _report("concurrent -", verdict, {"domain": spec["domain"], **result})
    n = spec["n"]
    if kind == "sublattice":
        b, generators = spec["b"], spec["generators"]
        # Theorem 3.1: the family is a distributive sublattice in closed form
        # where both joins agree; only the non-chain witness is searched.
        data = {
            "trigger": oracle.set_literal(b, n),
            "generators": [oracle.set_literal(g, n) for g in generators],
            "inf-closed-form": True,
            "sup-closed-form": True,
            "joins-agree": True,
            "distributive": True,
        }
        witness = oracle.non_chain_witness(b, generators, n)
        if witness is not None:
            data["non-chain-witness"] = witness
        return 0, "json", _report(f"sublattice --b {oracle.set_literal(b, n)}", True, data)
    texts = [oracle.render(e, n) for e in spec["exprs"]]
    tabs = [oracle.table(e, n) for e in spec["exprs"]]
    if kind == "check":
        payload = oracle.axiom_payload(tabs[0], n)
        verdict = _passes(payload, "axiom-i", "axiom-ii")
        return (0 if verdict else 1), "json", _report(f"check {texts[0]}", verdict, {"operator": texts[0], "axiom-report": payload})
    if kind == "order":
        witness = oracle.le_witness(tabs[0], tabs[1])
        data = {"left": texts[0], "right": texts[1]}
        if witness is not None:
            data["witness"] = oracle.set_literal(witness, n)
            data["left-value"] = oracle.set_literal(tabs[0][witness], n)
            data["right-value"] = oracle.set_literal(tabs[1][witness], n)
        verdict = witness is None
        return (0 if verdict else 1), "json", _report(f"order {texts[0]} {texts[1]}", verdict, data)
    if kind == "combine":
        op = spec["op"]
        combined = oracle.table([op] + spec["exprs"], n)
        operator = f"{op}({texts[0]},{texts[1]})"
        data = {"operator": operator, "closed-sets": _closed_sets(combined, n)}
        return 0, "json", _report(f"{op} {texts[0]} {texts[1]}", True, data)
    if kind == "complement":
        candidate = oracle.relative_complement(tabs[0], tabs[1])
        payload = oracle.axiom_payload(candidate, n)
        lattice = [c | d for c, d in zip(tabs[0], candidate)] == tabs[1] and [
            c & d for c, d in zip(tabs[0], candidate)
        ] == list(range(1 << n))
        verdict = _passes(payload, "axiom-i", "axiom-ii", "axiom-iii") and lattice
        data = {"candidate": oracle.render_table(candidate, n), "axiom-report": payload, "lattice-check": lattice}
        return (0 if verdict else 1), "json", _report(f"complement {texts[0]} {texts[1]}", verdict, data)
    if kind == "theories":
        closed = _closed_sets(tabs[0], n)
        data = {"operator": texts[0], "count": len(closed), "closed-sets": closed}
        return 0, "json", _report(f"theories {texts[0]}", True, data)
    if kind == "chain":
        data: dict = {"members": texts}
        verdict = True
        for i in range(len(tabs)):
            for j in range(i + 1, len(tabs)):
                if verdict and oracle.le_witness(tabs[i], tabs[j]) is not None and oracle.le_witness(tabs[j], tabs[i]) is not None:
                    verdict = False
                    data["incomparable-pair"] = [texts[i], texts[j]]
        return (0 if verdict else 1), "json", _report("chain " + " ".join(texts), verdict, data)
    if kind == "lemma26":
        full = (1 << n) - 1
        witness = next(x for x in range(n) if tabs[0][full & ~(1 << x)] == full)
        data = {"operator": texts[0], "witness": oracle.SYMBOLS[witness]}
        return 0, "json", _report(f"lemma26 {texts[0]}", True, data)
    raise ValueError(f"unknown request kind {kind!r}")


def _cofinite_le(a, b) -> bool:
    model = oracle.CofiniteModel(a[1], a[2], b[1], b[2])
    return oracle.le_witness(model.table(*a), model.table(*b)) is None


def _order_cofinite(spec: dict):
    """The verdict is exact; a witness is accepted when it is a genuine
    counterexample with the stated values, since the closed-form procedure
    may name any failing set."""
    a, b = spec["leaves"]
    left, right = spec["texts"]
    holds = _cofinite_le(a, b)

    def check(out: dict) -> bool:
        data = out.get("data", {})
        if out.get("command") != f"order {left} {right}" or out.get("verdict") is not holds:
            return False
        if data.get("left") != left or data.get("right") != right:
            return False
        if holds:
            return set(data) == {"left", "right"}
        witness = oracle.parse_cofinite_literal(data["witness"])
        model = oracle.CofiniteModel(a[1], a[2], b[1], b[2], witness)
        at = model.mask(witness)
        left_value, right_value = model.table(*a)[at], model.table(*b)[at]
        return (
            left_value & ~right_value != 0
            and data["left-value"] == model.literal(left_value)
            and data["right-value"] == model.literal(right_value)
        )

    return (0 if holds else 1), "call", check


def _chain_cofinite(spec: dict):
    leaves, texts = spec["leaves"], spec["texts"]
    data: dict = {"members": texts}
    verdict = True
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            if verdict and not _cofinite_le(leaves[i], leaves[j]) and not _cofinite_le(leaves[j], leaves[i]):
                verdict = False
                data["incomparable-pair"] = [texts[i], texts[j]]
    return (0 if verdict else 1), "json", _report("chain " + " ".join(texts), verdict, data)


def _words(kind: str, spec: dict):
    alphabet = spec["alphabet"]
    if kind == "words-encode":
        word = spec["word"]
        return 0, "json", _report(f"words encode {word}", True, {"word": word, "code": oracle.word_code(word, alphabet)})
    if kind == "words-decode":
        code = spec["code"]
        return 0, "json", _report(f"words decode {code}", True, {"code": code, "word": oracle.word_of_code(code, alphabet)})
    if kind == "words-split":
        word, k = spec["word"], spec["k"]
        splits = oracle.word_splits(word, k)
        data = {"word": word, "k": k, "count": len(splits), "splits": splits}
        return 0, "json", _report(f"words split {word} --k {k}", True, data)
    if kind == "words-classify":
        word = spec["word"]
        data = {
            "word": word,
            "size": len(word),
            "max-arity": len(word) - 1,
            "decompositions": 1 << (len(word) - 1),
            "code": oracle.word_code(word, alphabet),
        }
        return 0, "json", _report(f"words classify {word}", True, data)
    first, second = spec["first"], spec["second"]
    joined = first.replace(",", ""), second.replace(",", "")
    verdict = joined[0] == joined[1]
    data = {"first": joined[0], "second": joined[1]}
    return (0 if verdict else 1), "json", _report(f"words equiv {first} {second}", verdict, data)


def expected(workload: str, request: dict, root: str):
    return cli(request, root) if workload == "cli-cold" else in_process(request, root)


def matches(want, code: int, output: str) -> bool:
    exit_code, form, value = want
    if code != exit_code:
        return False
    if form == "bytes":
        return output == value
    try:
        parsed = json.loads(output)
    except ValueError:
        return False
    return value(parsed) if form == "call" else parsed == value
