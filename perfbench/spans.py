"""Spans around calls into the package's public functions.

A ``Tracer`` records one span per call: (name, start_ns, end_ns, parent
span index, operation id).  Spans stay in memory and are written out once,
when the run ends.  ``NullTracer`` has the same interface and only makes
the call, so the untraced run goes through the same code.
"""
from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable


class NullTracer:
    enabled = False
    op = 0

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        return fn(*args)


class Tracer(NullTracer):
    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self._open: list[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0, 0, parent, self.op))
        self._open.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def self_seconds(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover.

        Only spans ``first`` .. ``last - 1`` (in start order) are summed.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in range(first, len(self.spans) if last is None else last):
            name, start, end, _, _ = self.spans[i]
            out[name] += (end - start - child_ns[i]) / 1e9
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
