"""One workload in one fresh interpreter: set up, then a closed loop.

Started by run.py from the root of a checkout, with ``src`` on PYTHONPATH.
Prints ``READY <perf_counter ns>`` once set-up is done, then times a few
speed probes (and exits there with ``--setup-only``), then sends requests
one at a time for ``--seconds`` (and on until ``MIN_SAMPLES`` are done).
At the end it prints a single JSON object with every request's latency
and output, its peak RSS after ``workloads.RSS_AFTER`` requests, the speed
probes (one per 100 ms, out of the window) and, with ``--trace 1``, the
recorded spans.

With ``--trace 1`` the first half of the window runs untraced and the
second half traced; comparing the halves gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from collections import deque
from itertools import islice

import oracle
import spans
import speed
import workloads

CHUNK = 64  # requests generated at a time; generation is paused out of the window
SETUP_PROBES = 25  # speed probes right after set-up, to rescale its time
MIN_SAMPLES = 110  # the window goes on past --seconds until this many, so ten lie beyond p90


class InProcess:
    """Calls into tarski_lab directly; every call goes through ``call``."""

    def __init__(self, workload: str) -> None:
        from tarski_lab import algebra, classify, demos, operators, parsing, report, sets

        self.algebra, self.classify, self.demos = algebra, classify, demos
        self.operators, self.parsing, self.report, self.sets = operators, parsing, report, sets
        self.workload = workload
        self.systems: dict[int, list] = {}
        self.call = spans.plain_call
        self.traced = False
        self.pairs = 0  # Σ 4^n over traced check_axioms calls

    def trace(self, recorder: spans.Recorder) -> None:
        self.call, self.traced = recorder.call, True

    def warm_up(self) -> None:
        """Fill the subset tables (and, for operator-space, the oracle lists
        is_atom and dense_cover_check take) before the window opens."""
        if self.workload == "finite-verdicts":
            for n in range(4, 10):
                self.operators.to_closure_system(self.parsing.parse_operator("I", self._context(n)))
        else:
            for n in (3, 4):
                self.systems[n] = list(self.classify.enumerate_operators(n))

    def _context(self, n: int):
        universe = self.sets.make_universe(self.sets.Mode.FINITE, oracle.SYMBOLS[:n])
        return self.parsing.SpecContext(universe)

    def _parse(self, request: dict) -> list:
        ctx = self._context(request["n"])
        return [self.call("parsing.parse_operator", self.parsing.parse_operator, t, ctx) for t in request["texts"]]

    def _check(self, op, n: int):
        if self.traced:
            self.pairs += 4**n
        return self.call("classify.check_axioms", self.classify.check_axioms, op)

    def handle(self, request: dict) -> tuple[int, str]:
        call, kind = self.call, request["kind"]
        if kind == "demo":
            report = call(f"demos.run_demo.{request['name']}", self.demos.run_demo, request["name"])
            return 0, call("report.to_json", report.to_json)
        n = request["n"]
        command = " ".join([kind] + request["texts"])
        data: dict = {}
        if kind in ("check", "roundtrip"):
            (op,) = self._parse(request)
            axioms = self._check(op, n)
            data["axiom-report"] = self.report.axiom_report_payload(axioms)
            verdict = axioms.is_consequence if kind == "check" else axioms.all_pass
            if kind == "roundtrip":
                system = call("operators.to_closure_system", self.operators.to_closure_system, op)
                data["closed-sets"] = [s.literal() for s in system.closed]
        elif kind in ("le", "order"):
            a, b = self._parse(request)
            result = call("algebra.le", self.algebra.le, a, b)
            verdict = result.holds
            if result.witness is not None:
                data["witness"] = result.witness.literal()
            if kind == "order":
                composite = self.operators.compose(b, a)
                data["composition-identity"] = call("algebra.equivalent", self.algebra.equivalent, composite, b)
        elif kind == "equivalent":
            a, b = self._parse(request)
            verdict = call("algebra.equivalent", self.algebra.equivalent, a, b)
        elif kind == "fixpoints":
            (op,) = self._parse(request)
            system = call("operators.to_closure_system", self.operators.to_closure_system, op)
            verdict = True
            data = {"count": len(system.closed), "closed-sets": [s.literal() for s in system.closed]}
        elif kind == "atom":
            (op,) = self._parse(request)
            verdict = call("classify.is_atom", self.classify.is_atom, op, self.systems[n])
        elif kind == "dense":
            verdict = call("classify.dense_cover_check", self.classify.dense_cover_check, self.systems[n]).holds
            command = f"dense {n}"
        elif kind == "enumerate":
            found = call("classify.enumerate_operators", lambda: list(self.classify.enumerate_operators(n)))
            verdict = True
            command = f"enumerate {n}"
            data = {"count": len(found), "first": _family(found[0]), "last": _family(found[-1])}
        else:
            raise ValueError(f"unknown request kind {kind!r}")
        report = self.report.Report(command=command, verdict=verdict, data=data)
        return 0, call("report.to_json", report.to_json)

    def cache_info(self) -> dict | None:
        return spans.composite_cache_info()


def _family(system) -> str:
    return "[" + ";".join(s.literal() for s in system.closed) + "]"


class ColdCli:
    """One fresh ``python -m tarski_lab.cli`` per request; never two at once.

    Traced requests run perfbench/cli_child.py instead, which reports the
    child's start, import and run times on its last stderr line.
    """

    def __init__(self, env: dict) -> None:
        self.env = env
        self.recorder: spans.Recorder | None = None
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        self.cache = {"hits": 0, "misses": 0, "entries": 0, "present": False}

    def trace(self, recorder: spans.Recorder) -> None:
        self.recorder = recorder

    def warm_up(self) -> None:
        subprocess.run([sys.executable, "-m", "tarski_lab.cli", "--help"], env=self.env,
                       stdout=subprocess.DEVNULL, check=True, timeout=120)

    def handle(self, request: dict) -> tuple[int, str]:
        traced = self.recorder is not None
        head = [sys.executable, self.child] if traced else [sys.executable, "-m", "tarski_lab.cli"]
        spawned = time.perf_counter_ns()
        proc = subprocess.run(head + request["argv"], input=request.get("stdin", ""), env=self.env,
                              capture_output=True, text=True, timeout=120)
        if traced:
            times = json.loads(proc.stderr.strip().splitlines()[-1])
            command, span = request["argv"][0], self.recorder.current()
            self.recorder.add("cli.interpreter", spawned, times["start"], span)
            self.recorder.add("cli.import", times["start"], times["imported"], span)
            self.recorder.add(f"cli.run.{command}", times["imported"], times["ran"], span)
            if times.get("cache"):
                self.cache["present"] = True
                for key in ("hits", "misses"):
                    self.cache[key] += times["cache"][key]
                self.cache["entries"] = max(self.cache["entries"], times["cache"]["entries"])
        return proc.returncode, proc.stdout

    def cache_info(self) -> dict | None:
        return dict(self.cache) if self.cache["present"] else None


def pin_to_one_cpu() -> None:
    """Keep this worker, its speed probes and its CLI children on one CPU.

    The CPUs of a shared host are not equally fast at one moment, and a
    probe only tells the speed of the CPU it ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_kb(workload: str) -> int:
    """This process's peak RSS, or the largest CLI child's for cli-cold."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    pin_to_one_cpu()
    stream = workloads.stream(args.workload, args.seed)
    pending = deque(islice(stream, CHUNK))
    if args.workload == "cli-cold":
        client = ColdCli(dict(os.environ))
    else:
        client = InProcess(args.workload)
    client.warm_up()
    print(f"READY {time.perf_counter_ns()}", flush=True)
    setup_probes = [speed.probe() for _ in range(SETUP_PROBES)]
    if args.setup_only:
        print(json.dumps({"setup_probes": setup_probes}))
        return 0

    records = []
    limit = int(args.seconds * 1e9)
    half = limit // 2 if args.trace else limit + 1
    recorder = None
    cache_before = None
    started = time.perf_counter_ns()
    paused = 0
    last_end = started
    last_probe = started - speed.EVERY_NS
    probes = []
    traced_from = None
    while last_end - started - paused < limit or len(records) < MIN_SAMPLES:
        if not pending:
            pause = time.perf_counter_ns()
            pending.extend(islice(stream, CHUNK))
            paused += time.perf_counter_ns() - pause
        if last_end - last_probe >= speed.EVERY_NS:
            pause = time.perf_counter_ns()
            probes.append([pause, speed.probe()])
            last_probe = time.perf_counter_ns()
            paused += last_probe - pause
        if recorder is None and last_end - started - paused >= half:
            recorder = spans.Recorder()
            traced_from = len(records)
            cache_before = client.cache_info()
            client.trace(recorder)
        request = pending.popleft()
        t0 = time.perf_counter_ns()
        span = recorder.begin_request(request["id"], t0) if recorder else -1
        ok = True
        try:
            code, output = client.handle(request)
        except Exception as error:  # a failed request is counted, not fatal
            ok, code, output = False, -1, f"{type(error).__name__}: {error}"
        t1 = time.perf_counter_ns()
        if recorder:
            recorder.end_request(span, t1, not ok)
        records.append([request["id"], t1 - t0, ok, code, output, t0])
        last_end = time.perf_counter_ns()
        if len(records) == workloads.RSS_AFTER[args.workload]:
            rss_kb = peak_rss_kb(args.workload)
    window = last_end - started - paused
    if len(records) < workloads.RSS_AFTER[args.workload]:
        rss_kb = peak_rss_kb(args.workload)
    result = {
        "records": records,
        "window_ns": window,
        "rss_kb": rss_kb,
        "cache": client.cache_info(),
        "setup_probes": setup_probes,
        "probes": probes,
    }
    if recorder is not None:
        result["trace"] = {
            "spans": recorder.spans,
            "traced_from": traced_from,
            "pairs": getattr(client, "pairs", 0),
            "cache_before": cache_before,
            "cache_after": client.cache_info(),
        }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
