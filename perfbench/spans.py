"""In-memory span recorder and the per-layer rollup of its spans.

A span is (name, start_ns, end_ns, parent_index, request_id, failed).  The
recorder keeps spans in a list and the worker writes them out once, after
its timed window; nothing is written while requests run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("sets", "operators", "algebra", "classify", "words", "concurrence", "parsing", "report", "demos", "cli")

# The words and concurrence layers are reached only through these CLI commands.
_LAYER_OF_SPAN = {"cli.run.words": "words", "cli.run.concurrent": "concurrence"}


def plain_call(name, fn, *args):
    """Untraced counterpart of :meth:`Recorder.call`."""
    return fn(*args)


def composite_cache_info() -> dict | None:
    """Counters of the program's composite-evaluation memo, read only;
    None once the program no longer has that memo."""
    operators = sys.modules.get("tarski_lab.operators")
    info = getattr(getattr(operators, "_eval_composite", None), "cache_info", None)
    if info is None:
        return None
    hits, misses, _, size = info()
    return {"hits": hits, "misses": misses, "entries": size}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._request = -1

    def _push(self, name: str, start: int) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, start, parent, self._request, False])
        self._open.append(index)
        return index

    def call(self, name, fn, *args):
        index = self._push(name, time.perf_counter_ns())
        try:
            return fn(*args)
        except BaseException:
            self.spans[index][5] = True
            raise
        finally:
            self.spans[index][2] = time.perf_counter_ns()
            self._open.pop()

    def begin_request(self, request_id: int, start: int) -> int:
        self._request = request_id
        return self._push("request", start)

    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._open[-1] if self._open else -1

    def end_request(self, index: int, end: int, failed: bool) -> None:
        self.spans[index][2] = end
        self.spans[index][5] = failed
        self._open.pop()
        self._request = -1

    def add(self, name: str, start: int, end: int, parent: int) -> None:
        """A span measured elsewhere (a child process), hung under ``parent``."""
        request = self.spans[parent][4] if parent >= 0 else -1
        self.spans.append([name, start, end, parent, request, False])


def rollup(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy_ns, self_ns (busy minus direct children),
    failed, and the list of single durations."""
    child_ns = defaultdict(int)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for index, (name, start, end, _, _, failed) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "failed": 0, "durations": []})
        entry["calls"] += 1
        entry["busy_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[index]
        entry["failed"] += int(failed)
        entry["durations"].append(end - start)
    return out


def layer_of(name: str) -> str | None:
    if name in _LAYER_OF_SPAN:
        return _LAYER_OF_SPAN[name]
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None
