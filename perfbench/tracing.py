"""Stdlib-only span and counter recorder for the benchmark's traced runs.

A :class:`Tracer` keeps every span in memory as ``(name, start, end, parent,
op)`` and a plain ``counters`` dict; nothing is written until :meth:`dump`.
A span's self time is its duration minus the time its child spans cover.
Calls nest strictly (one thread), so children never overlap and that is the
duration minus the sum of the children's durations.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1, op]
        self.counters = defaultdict(int)
        self.op = "setup"        # current op id, stamped on each new span
        self._stack = []         # indices of open spans
        self._child_time = []    # per span: time covered by its children
        self._self_time = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._child_time.append(0.0)
        self._stack.append(index)
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            record = self.spans[index]
            record[2] = end
            duration = end - record[1]
            self._self_time[name] += duration - self._child_time[index]
            if parent >= 0:
                self._child_time[parent] += duration

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        return dict(self._self_time)

    def dump(self, path) -> None:
        """Write spans (one JSON array per line) and counters, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_check() -> str | None:
    """Trace a synthetic nested call on a fake clock; the self times of all
    spans must add up to the outermost span's wall time.  Returns an error
    message, or None when the check passes."""
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        with tracer.span("c"):
            pass
    name, start, end, parent, _ = tracer.spans[0]
    wall = end - start
    total = sum(tracer.self_times().values())
    expected = {"outer": 3.0, "a": 3.0, "b": 3.0, "c": 2.0}
    if parent != -1 or total != wall or tracer.self_times() != expected:
        return (f"tracer self-check failed: self times {tracer.self_times()} "
                f"sum to {total}, wall time {wall}")
    return None


if __name__ == "__main__":
    problem = self_check()
    print(problem or "tracer self-check passed")
    raise SystemExit(1 if problem else 0)
