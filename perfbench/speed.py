"""The machine's current speed, read with a fixed probe.

On a shared machine the same work can take 40-50% longer for seconds or
minutes at a time (measured on a 2-vCPU VM: 25 ms vs 36 ms for one fixed
loop).  Loop latencies are therefore scaled by REF_MS / probe_ms, where
probe_ms is the probe's time read just before and after each 0.25 s
window of the loop: a latency reads as the time on a machine where the
probe takes REF_MS.

The probe mixes what the package's work is made of: attribute and dict
lookups while walking a small tree of slotted nodes, ``json.loads`` and
regex matching.  It never calls the package, so a change to the package
cannot move the probe.  On that VM the ratio of a K8 count to the probe
stayed within 5% across 4-second blocks while the raw count moved by 52%.
"""
from __future__ import annotations

import json
import re
from time import perf_counter

REF_MS = 2.0


class _Node:
    __slots__ = ("kids", "n")

    def __init__(self) -> None:
        self.kids: dict[str, _Node] = {}
        self.n = 0


def _tree() -> _Node:
    root = _Node()
    for i in range(3000):
        node = root
        for part in (f"a{i % 7}", f"b{i % 13}", f"c{i % 29}"):
            node = node.kids.setdefault(part, _Node())
            node.n += 1
    return root


_ROOT = _tree()
_DOC = json.dumps([{"i": i, "id": f"x{i}", "f": i * 3} for i in range(300)])
_LINE = re.compile(r"^<([^<>\s]*)>\s+<([^<>\s]*)>\s+<([^<>\s]*)>\s*\.$")
_LINES = [f"<urn:a:{i}> <urn:p> <urn:b:{i}> ." for i in range(100)]


def _work() -> int:
    total = 0
    for _ in range(3):
        stack = [_ROOT]
        while stack:
            node = stack.pop()
            total += node.n
            stack.extend(node.kids.values())
    total += len(json.loads(_DOC))
    total += sum(1 for line in _LINES if _LINE.match(line))
    return total


def probe_ms() -> float:
    """Best of three probe timings, in ms."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _work()
        best = min(best, (perf_counter() - start) * 1000)
    return best


class Speed:
    """Probe readings over a run, to scale the times measured between them."""

    def __init__(self) -> None:
        probe_ms()  # the first call warms caches and is not a reading
        self.readings: list[float] = []
        self._mark = self._read()

    def _read(self) -> float:
        ms = probe_ms()
        self.readings.append(ms)
        return ms

    def mark(self) -> None:
        """Probe just before the work to be timed."""
        self._mark = self._read()

    def scale_since_mark(self) -> float:
        """Probe again: REF_MS over the mean of the two readings.  The new
        reading is the mark for the work that follows."""
        now = self._read()
        factor = REF_MS / ((self._mark + now) / 2)
        self._mark = now
        return factor
