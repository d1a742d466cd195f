"""Timed wildcard-count queries across wildcard budgets, CSV output.

One protocol, ``run_bench``, times any engine given as a counter: a
function from a wildcard budget m to the number of paths start, m
wildcards, end.  Per budget it makes warmup calls, then records the
MEDIAN wall-clock time of a number of timed trials (robust to one-off
cache or scheduler effects).  Counting is used instead of materializing
matches so large rows stay cheap in memory; path counts are deterministic
and identical across trials, only timings vary.  Three counters are the
engines: ``trie_counter`` queries the index; ``naive_counter`` runs the
brute-force walk counter on the raw graph, the slow baseline series; and
``dp_counter`` counts the same walks with a frontier DP over the graph's
adjacency, the strongest simple competitor for a count on one graph.
"""
from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import IO, Callable, Sequence

from .document import FrozenTrie
from .graph import ProvGraph
from .oracle import check_ends, count_walks
from .query import QueryPattern, count_paths, count_text
from .trie import Trie

CSV_HEADER = "dataset,engine,wildcards,n_paths,time_ns,trials"


class InsufficientData(Exception):
    """Not enough usable rows for a regression."""


class BenchAborted(Exception):
    """A query failed mid-run; carries the rows completed so far."""

    def __init__(self, rows: list["BenchRow"], message: str) -> None:
        super().__init__(f"{message} (partial results: {len(rows)} rows)")
        self.rows = rows


@dataclass(frozen=True)
class BenchRow:
    dataset: str
    engine: str
    wildcards: int
    n_paths: int
    time_ns: int
    trials: int


def check_protocol(max_wildcards: int, trials: int, warmup: int) -> None:
    """Raise ``ValueError`` unless the budgets and trial counts can run a series."""
    if max_wildcards < 1:
        raise ValueError(f"max_wildcards must be >= 1, got {max_wildcards}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")


def run_bench(
    count: Callable[[int], int],
    engine: str,
    max_wildcards: int,
    trials: int = 7,
    warmup: int = 2,
    dataset: str = "dataset",
) -> list[BenchRow]:
    """Time ``count(m)`` for m = 1..max_wildcards, ascending: ``warmup``
    untimed calls, then the median of ``trials`` timed ones per row."""
    check_protocol(max_wildcards, trials, warmup)
    rows: list[BenchRow] = []
    for m in range(1, max_wildcards + 1):
        try:
            for _ in range(warmup):
                count(m)
            times: list[int] = []
            n_paths = 0
            for _ in range(trials):
                t0 = time.perf_counter_ns()
                n_paths = count(m)
                times.append(time.perf_counter_ns() - t0)
        except Exception as exc:
            raise BenchAborted(rows, f"query with {m} wildcards failed: {exc}") from exc
        rows.append(BenchRow(dataset, engine, m, n_paths, max(1, int(statistics.median(times))), trials))
    return rows


def trie_counter(trie: Trie | FrozenTrie, start: str, end: str) -> Callable[[int], int]:
    """The trie engine: indexed paths start, m wildcards, end."""
    return lambda m: count_paths(trie, QueryPattern((start,), m, end))


def naive_counter(g: ProvGraph, start: str, end: str) -> Callable[[int], int]:
    """The naive engine: the brute-force walk counter (m wildcards = m + 1 edges).
    An end outside ``g`` raises ``MissingNode`` here, before any timing."""
    check_ends(g, start, end)
    return lambda m: count_walks(g, start, end, m + 1)


def dp_counter(g: ProvGraph, start: str, end: str) -> Callable[[int], int]:
    """The dp engine: a frontier DP on the graph's successors, built once here.
    For each of the m + 1 edges it maps every reachable vertex to the number
    of walks arriving there, O(m * |E|).  An end outside ``g`` raises
    ``MissingNode`` here, as ``naive_counter`` does."""
    check_ends(g, start, end)
    successors = {v: g.successors(v) for v in g.node_ids}

    def count(m: int) -> int:
        frontier = {start: 1}
        for _ in range(m + 1):
            reached: dict[str, int] = {}
            for v, ways in frontier.items():
                for w in successors[v]:
                    reached[w] = reached.get(w, 0) + ways
            frontier = reached
        return frontier.get(end, 0)

    return count


def write_csv(rows: Sequence[BenchRow], sink: IO[str]) -> None:
    sink.write(CSV_HEADER + "\n")
    for r in rows:
        sink.write(f"{r.dataset},{r.engine},{r.wildcards},{count_text(r.n_paths)},{r.time_ns},{r.trials}\n")


def loglog_slope(rows: Sequence[BenchRow]) -> float:
    """Least-squares slope of log10(time) against log10(path count).

    Rows with fewer than 10 paths sit in timer-noise territory and are
    excluded; fewer than 3 usable rows (or a degenerate count column)
    raise ``InsufficientData``.
    """
    usable = [r for r in rows if r.n_paths >= 10]
    if len(usable) < 3:
        raise InsufficientData(f"need >= 3 rows with n_paths >= 10, have {len(usable)}")
    xs = [math.log10(r.n_paths) for r in usable]
    ys = [math.log10(r.time_ns) for r in usable]
    try:
        return statistics.linear_regression(xs, ys).slope
    except statistics.StatisticsError as exc:
        raise InsufficientData(f"degenerate path counts: {exc}") from None
