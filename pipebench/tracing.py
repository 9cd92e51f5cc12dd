"""In-memory span recorder for the traced benchmark run.

A span has a name, start, end, parent span and operation id (one program
pipeline, or one compiled corpus).  Spans marked as probes time an extra
call the benchmark makes on the pipeline's own inputs; they sit under the
span that was open at the time but are not the pipeline's work, so they
count neither towards a layer's time nor towards the pipeline's wall time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, op id, is probe]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str, probe: bool = False):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op, probe]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def probe(self, name: str):
        return self.span(name, probe=True)

    def self_times(self, first: int, end: int):
        """Self time and call count per span name for the spans recorded
        between indices ``first`` and ``end``, the total duration of the
        probes among them, and the non-probe self time per stage and name.
        A span's self time is its duration minus its direct children's; its
        stage is the nearest enclosing ``stage.*`` span, else ``pass``."""
        child_time = defaultdict(float)
        for _, start, stop, parent, _, _ in self.spans[first:end]:
            if parent >= first:
                child_time[parent] += stop - start
        totals: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        stages: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        stage_of: dict[int, str] = {}
        probes = 0.0
        for i in range(first, end):
            name, start, stop, parent, _, probe = self.spans[i]
            own = stop - start - child_time[i]
            totals[name] += own
            counts[name] += 1
            stage_of[i] = name if name.startswith("stage.") else stage_of.get(parent, "pass")
            if probe:
                probes += stop - start
            else:
                stages[stage_of[i]][name] += own
        return dict(totals), dict(counts), probes, stages

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "probe"],
                       "spans": self.spans}, fh)


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    op = None
    _null = nullcontext()

    def span(self, name: str, probe: bool = False):
        return self._null

    probe = span


class TimedResolver:
    """Wraps the resolver handed to ``preload`` so that each container read
    becomes a ``pwof.read_module`` span, and counts the bytes read."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.bytes_read = 0

    def load(self, name: str):
        with self.tracer.span("pwof.read_module"):
            mod = self.inner.load(name)
        self.bytes_read += len(self.inner.modules[name])
        return mod
