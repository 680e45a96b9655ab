"""Traced stand-in for ``python -m tarski_lab.cli``: same argv, same stdout.

Its last stderr line is JSON with the CLOCK_MONOTONIC nanosecond times at
which it started, finished importing the CLI, and finished the command,
plus the composite-cache counters when the program still has that cache.
"""

import time

START = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

import tarski_lab.cli as cli  # noqa: E402

IMPORTED = time.perf_counter_ns()
code = cli.run(sys.argv[1:])
RAN = time.perf_counter_ns()
sys.stdout.flush()

import spans  # noqa: E402  (perfbench's own module, after the timed part)

times = {"start": START, "imported": IMPORTED, "ran": RAN, "cache": spans.composite_cache_info()}
sys.stderr.write(json.dumps(times) + "\n")
sys.exit(code)
