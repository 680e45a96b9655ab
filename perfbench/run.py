"""tarski-lab benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload finite-verdicts --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout.  The package is used from ``src``
(PYTHONPATH), never installed.  set-up runs five times in fresh
interpreters and its median is reported; the last of the five goes on to
the timed closed loop.  Every answer is then checked against perfbench's
own reference (oracle.py, expect.py, the demo goldens).  Times are
rescaled to a reference host speed by the probes the worker takes between
requests (speed.py).  The last stdout line is the result object; the lines
before it are the environment record and a readable summary, which also
holds the figures before rescaling.  ``--trace 1`` reports per-layer
metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import expect  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5
INTERPRETER_PROBES = 5
CLI_COMMANDS = ("check", "order", "meet", "wjoin", "complement", "theories", "chain", "sublattice", "lemma26",
                "descend", "words", "concurrent", "enumerate", "atoms", "demo")
TRACED_FUNCTIONS = (
    "classify.check_axioms", "classify.is_atom", "classify.dense_cover_check", "classify.enumerate_operators",
    "algebra.le", "algebra.equivalent", "operators.to_closure_system", "parsing.parse_operator", "report.to_json",
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("TARSKI_LAB_SEED", None)  # the demo goldens assume the default seed
    return env


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    base = os.path.join(root, "src", "tarski_lab")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            with open(os.path.join(base, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def commit(root: str) -> str | None:
    """The checked-out commit, when the checkout is a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def interpreter_floor(env: dict) -> float:
    times = []
    for _ in range(INTERPRETER_PROBES):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


def start_worker(args, env: dict, root: str, setup_only: bool):
    """Spawn a worker and wait for its READY line; returns (proc, setup_s)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.perf_counter_ns()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line.startswith("READY "):
        _, err = finish(proc, 60)
        raise RuntimeError(f"worker set-up failed: {line}{err}")
    return proc, (int(line.split()[1]) - spawned) / 1e9


def finish(proc, timeout: float) -> tuple[str, str]:
    """Collect a worker's output; a worker past its time is killed and reaped."""
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker still running after {timeout:.0f} s; killed") from None


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def requests_of(workload: str, seed: int, records: list) -> dict[int, dict]:
    """The requests the worker sent, regenerated from the same seed."""
    last = max(r[0] for r in records)
    requests = {}
    for request in workloads.stream(workload, seed):
        if request["id"] > last:
            break
        requests[request["id"]] = request
    return requests


def request_class(request: dict) -> str:
    return f"{request['kind']}:{request.get('n', request.get('name', ''))}"


def verify(workload: str, requests: dict, records: list, root: str) -> tuple[int, list[str]]:
    """Count wrong answers against the reference."""
    memo: dict[str, tuple] = {}
    failed, notes = 0, []
    for rid, _, ok, code, output, _ in records:
        request = requests[rid]
        key = json.dumps({k: v for k, v in request.items() if k != "id"}, sort_keys=True)
        if key not in memo:
            memo[key] = expect.expected(workload, request, root)
        if not ok or not expect.matches(memo[key], code, output):
            failed += 1
            if len(notes) < 3:
                notes.append(f"request {rid} ({request['kind']}): exit {code}, output {output[:300]!r}")
    return failed, notes


def end_to_end(records: list, window_ns: int, rss_kb: int, setup: list[float], scales: list[float]) -> dict:
    """The user-facing figures; each request's time is rescaled to reference
    speed by the factor at its start, and the window by their mean weighted
    by time."""
    latencies = [r[1] * f / 1e6 for r, f in zip(records, scales)]
    window_scale = sum(latencies) * 1e6 / sum(r[1] for r in records)
    return {
        "throughput_rps": {"value": len(records) / (window_ns * window_scale / 1e9), "unit": "1/s"},
        "latency_p50_ms": {"value": quantile(latencies, 0.5), "unit": "ms"},
        "latency_p90_ms": {"value": quantile(latencies, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def tracing_overhead(records: list, scales: list[float], traced_from: int, requests: dict) -> float:
    """Median over request classes of traced / untraced median latency, in %.

    Comparing like with like keeps the heavy-tailed mix of the two halves
    of the window out of the figure; rescaled latencies keep a change of
    host speed between the halves out of it."""
    halves: dict[str, tuple[list, list]] = {}
    for i, (record, factor) in enumerate(zip(records, scales)):
        pair = halves.setdefault(request_class(requests[record[0]]), ([], []))
        pair[i >= traced_from].append(record[1] * factor)
    ratios = [statistics.median(t) / statistics.median(u) for u, t in halves.values() if len(u) >= 3 and len(t) >= 3]
    return (statistics.median(ratios) - 1) * 100 if ratios else 0.0


def per_layer(trace: dict, records: list, scales: list[float], requests: dict) -> dict:
    """Per-layer metrics from the traced half of the window."""
    spans_ = trace["spans"]
    by_name = spans.rollup(spans_)
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    layers = {layer: {"calls": 0, "busy_ns": 0, "self_ns": 0, "failed": 0} for layer in spans.LAYERS}
    for name, entry in by_name.items():
        layer = spans.layer_of(name)
        if layer is None:
            continue
        for key in ("calls", "busy_ns", "self_ns", "failed"):
            layers[layer][key] += entry[key]
    for layer, entry in layers.items():
        put(f"layer.{layer}.calls", entry["calls"], "count")
        put(f"layer.{layer}.busy_ms", entry["busy_ns"] / 1e6, "ms")
        put(f"layer.{layer}.self_ms", entry["self_ns"] / 1e6, "ms")
        put(f"layer.{layer}.failed", entry["failed"], "count")
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0, "failed": 0, "durations": []}
    for name in TRACED_FUNCTIONS:
        entry = by_name.get(name, empty)
        put(f"{name}.calls", entry["calls"], "count")
        put(f"{name}.busy_ms", entry["busy_ns"] / 1e6, "ms")
        put(f"{name}.self_ms", entry["self_ns"] / 1e6, "ms")
        put(f"{name}.failed", entry["failed"], "count")
    checks = by_name.get("classify.check_axioms", empty)
    put("classify.check_axioms.ns_per_pair", checks["busy_ns"] / trace["pairs"] if trace["pairs"] else 0.0, "ns")
    put("report.bytes", sum(len(r[4]) for r in records[trace["traced_from"]:] if r[2]), "bytes")

    before, after = trace["cache_before"], trace["cache_after"]
    if after is None:
        put("operators.composite_cache.hit_ratio", 0.0, "ratio")
        put("operators.composite_cache.entries", 0, "count")
    else:
        before = before or {"hits": 0, "misses": 0}
        hits, misses = after["hits"] - before["hits"], after["misses"] - before["misses"]
        put("operators.composite_cache.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
        put("operators.composite_cache.entries", after["entries"], "count")

    def median_ms(name):
        durations = by_name.get(name, empty)["durations"]
        return statistics.median(durations) / 1e6 if durations else 0.0

    for demo in workloads.SWEEP_DEMOS:
        put(f"demos.run_demo.{demo}_ms", median_ms(f"demos.run_demo.{demo}"), "ms")
    put("cli.interpreter_ms", median_ms("cli.interpreter"), "ms")
    put("cli.import_ms", median_ms("cli.import"), "ms")
    for command in CLI_COMMANDS:
        put(f"cli.run.{command}_ms", median_ms(f"cli.run.{command}"), "ms")

    put("request.self_ms", by_name.get("request", empty)["self_ns"] / 1e6, "ms")
    put("trace.overhead_pct", tracing_overhead(records, scales, trace["traced_from"], requests), "%")
    put("trace.spans", len(spans_), "count")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tarski_lab", "cli.py")):
        return fail("run from the root of a tarski-lab checkout: src/tarski_lab is missing")
    if not os.path.isdir(os.path.join(root, "tests", "golden")):
        return fail("tests/golden is missing; the demo reports cannot be checked")
    env = child_env(root)

    environment = {
        "commit": commit(root),
        "source_sha256": source_digest(root),
        "seed": args.seed,
        "workload": args.workload,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python_c_pass_ms": interpreter_floor(env),
    }

    setup, raw_setup = [], []
    try:
        for _ in range(SETUPS - 1):
            proc, seconds = start_worker(args, env, root, setup_only=True)
            out, err = finish(proc, 60)
            if proc.returncode != 0:
                return fail(f"set-up worker exited with {proc.returncode}: {err[-2000:]}")
            raw_setup.append(seconds)
            setup.append(seconds * speed.scale(json.loads(out)["setup_probes"]))
        proc, seconds = start_worker(args, env, root, setup_only=False)
        out, err = finish(proc, args.seconds + 90)
    except RuntimeError as error:
        return fail(str(error))
    if proc.returncode != 0:
        return fail(f"worker exited with {proc.returncode}: {err[-2000:]}")
    result = json.loads(out)
    records = result["records"]
    raw_setup.append(seconds)
    setup.append(seconds * speed.scale(result["setup_probes"]))
    scales = speed.scales_at(result["probes"], [r[5] for r in records])

    requests = requests_of(args.workload, args.seed, records)
    failed, notes = verify(args.workload, requests, records, root)
    environment["loadavg_end"] = os.getloadavg()
    print(json.dumps({"environment": environment}))
    for note in notes:
        print(f"wrong answer: {note}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(result["trace"], records, scales, requests)
    else:
        metrics = end_to_end(records, result["window_ns"], result["rss_kb"], setup, scales)

    latencies = sorted(r[1] * f for r, f in zip(records, scales))
    p90 = quantile(latencies, 0.9)
    summary = {
        "samples": len(records),
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "error_rate": failed / len(records),
        "setup_s_samples": setup,
        "raw_setup_s_samples": raw_setup,
        "window_s": result["window_ns"] / 1e9,
        "speed_scale": statistics.median(scales),
        "speed_probes": len(result["probes"]),
        "raw": end_to_end(records, result["window_ns"], result["rss_kb"], raw_setup, [1.0] * len(records)),
        "composite_cache": result["cache"],
    }
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
