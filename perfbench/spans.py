"""In-memory span recorder and the small statistics the benchmark reports.

A span is (name, start, end, parent, request, tag): `parent` is the index of
the enclosing span, `request` groups the spans of one query or minibatch,
and `tag` carries a label such as the join count. Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# CPU seconds of this process. On a virtual machine whose CPUs other tenants
# share, wall time also counts the time the CPU was taken away (steal time),
# which swung the same work by up to 2x from one run to the next. For the
# benchmark's single-threaded, CPU-bound calls CPU time equals wall time on
# an idle machine, and work moved to other threads still counts.
clock = time.process_time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request=None, tag=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, clock(), None, parent, request, tag]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = clock()
            self._stack.pop()

    def durations(self, name: str, tag=None) -> list[float]:
        """Durations in seconds of the spans named `name` (and tagged `tag`)."""
        return [
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and (tag is None or s[5] == tag)
        ]

    def totals(self, names: tuple[str, ...], key=lambda request: request) -> list[float]:
        """Summed duration of the spans with one of `names`, per group of
        requests; `key` maps a span's request to its group."""
        out: dict = {}
        for s in self.spans:
            if s[0] in names:
                group = key(s[4])
                out[group] = out.get(group, 0.0) + s[2] - s[1]
        return list(out.values())

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus time in child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - c
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request", "tag")
        path.write_text(
            "\n".join(json.dumps(dict(zip(keys, s))) for s in self.spans) + "\n",
            encoding="utf-8",
        )


class NoTracer:
    """Stand-in with the same `span` call that records nothing."""

    @contextmanager
    def span(self, name: str, request=None, tag=None):
        yield


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
