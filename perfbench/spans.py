"""In-memory span recording and self-time accounting.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span in the same list, or -1 at the top.  The process runs one
thread, so a span's children never overlap and its self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter


class Tracer:
    """Collects spans and counts for the functions it wraps."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn):
        """``fn`` wrapped to record one span per call; results and
        exceptions pass through unchanged."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)

        return wrapper

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()


def self_times(spans) -> dict:
    """``{name: (calls, inclusive_s, self_s)}`` summed over the spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, incl, own = out.get(name, (0, 0.0, 0.0))
        dur = end - start
        out[name] = (calls + 1, incl + dur, own + dur - child[i])
    return out


def call_edges(spans) -> dict:
    """``{"parent > child": [calls, inclusive_s]}``, the aggregated span tree."""
    out: dict = {}
    for name, start, end, parent in spans:
        key = f"{spans[parent][0] if parent >= 0 else '-'} > {name}"
        rec = out.setdefault(key, [0, 0.0])
        rec[0] += 1
        rec[1] += end - start
    return out
