"""Self-tests of the benchmark: python -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from itertools import islice

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import expect  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

A, B, C = 1, 2, 4  # bitmasks of the symbols a, b, c


def test_order_witness_from_readme():
    # le(cxy {a} {b}, cxy {c} {b}) fails, least witness {b}.
    left, right = oracle.table(("cxy", A, B), 3), oracle.table(("cxy", C, B), 3)
    assert oracle.set_literal(oracle.le_witness(left, right), 3) == "{b}"
    assert oracle.le_witness(left, left) is None


def test_fixed_points_from_readme():
    # cxy {a} {b} on a,b,c has six fixed points.
    assert len(oracle.fixed_points(oracle.table(("cxy", A, B), 3))) == 6


def test_finitarity_caveat_from_readme():
    # cprime {0} co{0} passes (i) and (ii) and loses finitarity at (co{0}, 0).
    payload = oracle.cofinite_check_payload("cprime", (True, (0,)), (False, (0,)))
    assert payload["axiom-i"]["passed"] and payload["axiom-ii"]["passed"]
    assert payload["axiom-iii"] == {"passed": False, "conclusive": True, "witness": {"set": "co{0}", "element": 0}}


def test_axiom_witnesses_are_least():
    # The naive join of cprime {b} {} and s {a} b is not idempotent from {}.
    join = [m | B for m in range(8)]
    example = [7 if m & B else m | A for m in range(8)]
    table = [p | q for p, q in zip(join, example)]
    payload = oracle.axiom_payload(table, 3)
    assert payload["axiom-i"]["witness"] == {"set": "{}"}
    assert payload["axiom-ii"]["passed"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_moore_family_counts(n):
    families = oracle.moore_families(n)
    assert len(families) == oracle.MOORE_COUNTS[n]
    assert len(set(families)) == len(families)
    assert all(oracle.is_closure_family(f, n) for f in families)


def test_words_reference():
    assert [oracle.word_of_code(c, "ab") for c in range(6)] == ["a", "b", "aa", "ab", "ba", "bb"]
    assert all(oracle.word_code(oracle.word_of_code(c, "abc"), "abc") == c for c in range(200))
    assert oracle.word_splits("abca", 1) == ["a,bca", "ab,ca", "abc,a"]


def _digest_in_fresh_interpreter(workload: str, seed: int, hash_seed: str) -> str:
    code = (
        "import hashlib, json, sys; from itertools import islice; import workloads; "
        f"reqs = list(islice(workloads.stream({workload!r}, {seed}), 120)); "
        "print(hashlib.sha256(json.dumps(reqs, sort_keys=True).encode()).hexdigest())"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_gives_byte_identical_requests(workload):
    first = _digest_in_fresh_interpreter(workload, 7, "1")
    assert first == _digest_in_fresh_interpreter(workload, 7, "2")
    reqs = list(islice(workloads.stream(workload, 7), 120))
    assert hashlib.sha256(json.dumps(reqs, sort_keys=True).encode()).hexdigest() == first
    assert first != _digest_in_fresh_interpreter(workload, 8, "1")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_kind_in_each_round(workload):
    size = workloads.round_size(workload)
    stream = workloads.stream(workload, 3)
    for _ in range(3):
        kinds = {r["kind"] for r in islice(stream, size)}
        assert kinds == workloads.request_kinds(workload)


def test_finite_verdicts_never_repeat_a_term():
    seen = set()
    for request in islice(workloads.stream("finite-verdicts", 5), 400):
        n = request["n"]
        terms = {(n, oracle.render(e, n)) for e in request["exprs"]}
        for e in request["exprs"]:
            terms |= {(n, oracle.render(c, n)) for c in oracle.composite_subterms(e)}
        assert not terms & seen
        seen |= terms


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_has_a_reference(workload):
    root = os.path.dirname(HERE)
    for request in islice(workloads.stream(workload, 11), 2 * workloads.round_size(workload)):
        code, form, value = expect.expected(workload, request, root)
        assert code in (0, 1) and form in ("json", "call", "bytes") and value


def test_rollup_self_time_subtracts_children():
    recorded = [
        ["request", 0, 100, -1, 0, False],
        ["classify.check_axioms", 10, 70, 0, 0, False],
        ["report.to_json", 70, 90, 0, 0, True],
    ]
    out = spans.rollup(recorded)
    assert out["request"]["self_ns"] == 20
    assert out["classify.check_axioms"]["self_ns"] == 60
    assert out["report.to_json"]["failed"] == 1
    assert spans.layer_of("cli.run.words") == "words" and spans.layer_of("request") is None


def test_quantile_interpolates():
    assert run.quantile([1, 2, 3, 4, 5], 0.5) == 3
    assert run.quantile(list(range(101)), 0.9) == pytest.approx(90)


def test_speed_probe_runs_the_full_sweeps():
    # The probe operator passes all three axioms, so no sweep stops early.
    payload = oracle.axiom_payload(oracle.table(speed.PROBE_EXPR, speed.PROBE_N), speed.PROBE_N)
    assert all(payload[k]["passed"] for k in ("axiom-i", "axiom-ii", "axiom-iii"))
    assert speed.probe() > 0


def test_speed_scales_follow_the_nearest_probes():
    ref = speed.REFERENCE_NS
    probes = [[t, ref] for t in range(0, 40, 10)] + [[t, 2 * ref] for t in range(40, 100, 10)]
    assert speed.scales_at(probes, [5, 95]) == [1.0, 0.5]
    assert speed.scale([ref, 2 * ref, 4 * ref]) == 0.5


def _depth(expr: tuple) -> int:
    if expr[0] in ("meet", "join", "wjoin", "comp"):
        return 1 + max(_depth(expr[1]), _depth(expr[2]))
    return 0


@pytest.mark.parametrize("seed", [1, 2])
def test_finite_verdicts_depths_cycle_per_slot_class(seed):
    turns = {}
    for request in islice(workloads.stream("finite-verdicts", seed), 5 * workloads.round_size("finite-verdicts")):
        if request["kind"] in ("check", "fixpoints"):
            key = (request["kind"], request["n"])
            turn = turns.setdefault(key, 0)
            assert _depth(request["exprs"][0]) == turn % 3
            turns[key] = turn + 1
