"""In-memory spans recorded around facetkit's public calls.

A span holds its name, start, end, parent span and workload.  Spans stay in
memory while the benchmark runs and are written out once, at the end.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int     # -1 for a root span
    workload: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.workload)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def children(self, span_id):
        return [s for s in self.spans if s.parent == span_id]

    def self_time(self, span: Span) -> float:
        # children of one span never overlap: the tracer is single-threaded
        return span.duration - sum(c.duration for c in self.children(span.id))

    def write(self, path, extra: dict) -> None:
        rows = [dict(asdict(s), self_s=self.self_time(s)) for s in self.spans]
        path.write_text(
            json.dumps(dict(extra, spans=rows), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
