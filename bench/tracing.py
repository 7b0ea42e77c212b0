"""In-memory spans around calls into seqspace, and the self-time arithmetic.

A span records its name, start, end, parent span and operation id; the spans
of one benchmark operation share the id.  Spans are kept in a list while the
traced replay runs and written out once at the end.  A span's self time is
its duration minus the part of its interval covered by its children.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the parent span, -1 for a root
    op: int


def layer_of(name: str) -> str:
    """Layer of a span: the module name before the first dot."""
    return name.split(".", 1)[0]


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Per span: duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so a child that outlives its
    parent (never the case for nested calls) cannot make a self time negative.
    """
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            lo, hi = max(s.start_ns, p.start_ns), min(s.end_ns, p.end_ns)
            if hi > lo:
                children[s.parent].append((lo, hi))
    return [s.end_ns - s.start_ns - covered_ns(c) for s, c in zip(spans, children)]


def layer_summary(spans: list[Span], layers: tuple[str, ...]) -> dict[str, tuple[float, int]]:
    """Self seconds and call count per layer, for the layers asked for."""
    out = {layer: [0, 0] for layer in layers}
    for s, self_ns in zip(spans, self_times_ns(spans)):
        entry = out.get(layer_of(s.name))
        if entry is not None:
            entry[0] += self_ns
            entry[1] += 1
    return {layer: (ns / 1e9, calls) for layer, (ns, calls) in out.items()}


class Tracer:
    """Collects spans from wrapped callables, single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; nested spans share its id."""
        self._op += 1
        with self.span(name):
            yield

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper


def write_spans(path, spans: list[Span]) -> None:
    """One JSON list per span: [index, parent, op, name, start_ns, end_ns]."""
    with gzip.open(path, "wt") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps([i, s.parent, s.op, s.name, s.start_ns, s.end_ns]))
            fh.write("\n")
