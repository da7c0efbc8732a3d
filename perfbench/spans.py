"""In-memory spans recorded by the benchmark around calls into the program.

A span has a name (``layer.function``), a start and an end on the
``perf_counter`` clock, the span that caused it, the trace it belongs to
(one trial, or one command) and optional counts measured at the same
boundary.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    trace: str
    parent: int  # index of the causing span, -1 for a root
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; the innermost open span is the parent of the next."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trace: str | None = None):
        parent = self._open[-1] if self._open else -1
        if trace is None:
            trace = self.spans[parent].trace if parent >= 0 else ""
        index = len(self.spans)
        record = Span(name, trace, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, func):
        """``func`` with every call recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "trace": s.trace, "parent": s.parent,
                                     "start": s.start, "end": s.end, "counts": s.counts}) + "\n")


def load_spans(path) -> list[Span]:
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Duration of [start, end] minus the part of it that the child intervals cover.

    Children are clipped to the parent interval and overlaps are counted
    once, so the result is never negative.
    """
    clipped = sorted((max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start))
    covered = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span, in the order given."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [self_time(s.start, s.end, kids) for s, kids in zip(spans, children)]
