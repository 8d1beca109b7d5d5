"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent, operation id).  While the traced phase
runs, a span costs two clock reads and one tuple appended when it closes:
(name, start, end, depth, operation id).  Spans nest strictly (one thread)
and close in post-order, so parents and self times are recovered from the
depths once the phase has ended.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns as clock


class Tracer:
    def __init__(self):
        self.closed: list = []
        self._open: list = []
        self.op = -1

    def begin(self) -> None:
        self._open.append(clock())

    def finish(self, name: str) -> None:
        t = clock()
        start = self._open.pop()
        self.closed.append((name, start, t, len(self._open), self.op))

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        opened, closed = self._open, self.closed

        def traced(*args, **kwargs):
            opened.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t = clock()
                start = opened.pop()
                closed.append((name, start, t, len(opened), self.op))

        traced.__wrapped__ = fn
        return traced

    def spans(self):
        """Yield (index, name, start, end, parent index, operation id), with
        indices in closing order and -1 as the parent of a root span."""
        pending: list = []  # per depth: indices of spans awaiting a parent
        parents = [-1] * len(self.closed)
        for k, (_, _, _, depth, _) in enumerate(self.closed):
            while len(pending) <= depth + 1:
                pending.append([])
            for child in pending[depth + 1]:
                parents[child] = k
            pending[depth + 1] = []
            pending[depth].append(k)
        for k, (name, start, end, _, op) in enumerate(self.closed):
            yield k, name, start, end, parents[k], op

    def summary(self) -> dict:
        """Per span name: calls, total and self nanoseconds, and the median
        duration.  Raises if a span is still open or a self time is
        negative, either of which would break the accounting."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        child_ns: list = []  # per depth: summed durations of closed children
        by_name: dict = {}
        for name, start, end, depth, _ in self.closed:
            while len(child_ns) <= depth + 1:
                child_ns.append(0)
            dur = end - start
            own = dur - child_ns[depth + 1]
            child_ns[depth + 1] = 0
            child_ns[depth] += dur
            if own < 0:
                raise RuntimeError(f"negative self time in a {name} span")
            agg = by_name.get(name)
            if agg is None:
                agg = by_name[name] = {"calls": 0, "total_ns": 0,
                                       "self_ns": 0, "durations": []}
            agg["calls"] += 1
            agg["total_ns"] += dur
            agg["self_ns"] += own
            agg["durations"].append(dur)
        for agg in by_name.values():
            agg["p50_ns"] = statistics.median(agg.pop("durations"))
        return by_name

    def write(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            for row in self.spans():
                fh.write("\t".join(map(str, row)) + "\n")
