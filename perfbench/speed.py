"""The host's speed, measured by a fixed unit of the benchmark's own work.

The benchmark runs on shared hosts whose speed drifts by tens of per cent
over minutes, while two processes running side by side slow down alike.
So the worker runs ``probe`` between requests, outside every request's
time, and run.py rescales each request's time by ``REFERENCE_NS`` over the
median of the probes nearest to it: timings are reported at the speed the
host had when the probe took ``REFERENCE_NS``.  Nearest probes, not the
run's median, because the host flips between a fast and a slow state
every few seconds and one run sees both.  The probe is oracle code, not
tarski_lab code, so no change to the program moves it; a change to the
program moves the rescaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import oracle

# wjoin of two leaf operators on 8 symbols: a table, then the three axiom
# sweeps in full (the operator passes all three).  About 1.3 ms at 2 GHz.
PROBE_EXPR = ("wjoin", ("cxy", 5, 9), ("cprime", 3, 17))
PROBE_N = 8
REFERENCE_NS = 1_300_000
EVERY_NS = 100_000_000  # at most one probe per 100 ms of the window
NEAREST = 5  # probes whose median gives the speed at one instant


def probe() -> int:
    """Nanoseconds the fixed unit of work takes now.

    The collector is off for the probe, so the probe's time does not
    depend on how many objects the program keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        oracle.axiom_payload(oracle.table(PROBE_EXPR, PROBE_N), PROBE_N)
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def scale(probes: list[int]) -> float:
    """Factor that turns times taken alongside ``probes`` into
    reference-speed times."""
    return REFERENCE_NS / statistics.median(probes)


def scales_at(probes: list[list[int]], instants: list[int]) -> list[float]:
    """The factor at each instant, from the ``NEAREST`` probes around it.

    ``probes`` holds ``[start_ns, took_ns]`` pairs in time order, on the
    same clock as ``instants``."""
    starts = [start for start, _ in probes]
    out = []
    for instant in instants:
        i = bisect.bisect(starts, instant)
        low = max(0, min(i - NEAREST // 2, len(probes) - NEAREST))
        out.append(scale([took for _, took in probes[low : low + NEAREST]]))
    return out
