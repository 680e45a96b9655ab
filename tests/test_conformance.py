"""Benchmark requests answered by the program and checked against the
benchmark's own reference.

The first requests of each ``perfbench`` workload (seed 3) are answered the
way the benchmark's worker answers them: in process through
``worker.InProcess(...).handle`` after ``warm_up()``, or, for cli-cold,
through the CLI with the request's argv and stdin.  ``expect.expected``
derives every answer from perfbench's independent reference (``oracle.py``)
and the demo goldens, so a verdict, witness or count that drifts from the
reference fails here before the benchmark refuses its run.  The perfbench
modules are imported as they are; nothing under ``perfbench/`` is changed.
"""

import sys
import time
from itertools import islice
from pathlib import Path

import pytest
from cli_runner import invoke

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import expect  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 3
# Each workload's requests take about 2 s on a 2-core x86-64 host.
TIME_BOUND_S = 30.0


def _in_process(workload):
    client = worker.InProcess(workload)
    client.warm_up()
    return client.handle


def _cli(request):
    result = invoke(request["argv"], input=request.get("stdin"))
    return result.exit_code, result.stdout


@pytest.mark.parametrize(
    "workload, count", [("operator-space", 300), ("finite-verdicts", 60), ("cli-cold", 150)]
)
def test_answers_match_the_reference(workload, count):
    handle = _cli if workload == "cli-cold" else _in_process(workload)
    started = time.perf_counter()
    mismatches = []
    for request in islice(workloads.stream(workload, SEED), count):
        code, output = handle(request)
        if not expect.matches(expect.expected(workload, request, str(ROOT)), code, output):
            mismatches.append((request["id"], request["kind"]))
    elapsed = time.perf_counter() - started
    assert mismatches == []
    assert elapsed < TIME_BOUND_S, f"{count} {workload} requests took {elapsed:.1f}s"
