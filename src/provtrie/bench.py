"""Timed wildcard-count queries across wildcard budgets, CSV output.

Two engines share a protocol: warmup runs, then a number of timed trials
whose MEDIAN wall-clock time is recorded (robust to one-off cache or
scheduler effects).  Counting is used instead of materializing matches
so large rows stay cheap in memory; path counts are deterministic and
identical across trials, only timings vary.  The "naive" engine runs the
brute-force walk counter on the raw graph and serves as the slow
baseline series; the "dp" engine counts the same walks with a frontier
DP over the graph's adjacency, the strongest simple competitor for a
count on one graph.
"""
from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import IO, Sequence

from .graph import ProvGraph
from .oracle import count_walks
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


def _timed_rows(
    run_query,
    dataset: str,
    engine: str,
    max_wildcards: int,
    trials: int,
    warmup: int,
) -> list[BenchRow]:
    check_protocol(max_wildcards, trials, warmup)
    rows: list[BenchRow] = []
    for m in range(1, max_wildcards + 1):
        try:
            for _ in range(warmup):
                run_query(m)
            times: list[int] = []
            count = 0
            for _ in range(trials):
                t0 = time.perf_counter_ns()
                count = run_query(m)
                times.append(time.perf_counter_ns() - t0)
        except Exception as exc:
            raise BenchAborted(rows, f"query with {m} wildcards failed: {exc}") from exc
        rows.append(BenchRow(dataset, engine, m, count, max(1, int(statistics.median(times))), trials))
    return rows


def run_bench(
    trie: Trie,
    start: str,
    end: str,
    max_wildcards: int,
    trials: int = 7,
    warmup: int = 2,
    dataset: str = "dataset",
) -> list[BenchRow]:
    """Time trie count queries for 1..max_wildcards, ascending."""

    def query(m: int) -> int:
        return count_paths(trie, QueryPattern((start,), m, end))

    return _timed_rows(query, dataset, "trie", max_wildcards, trials, warmup)


def run_bench_naive(
    g: ProvGraph,
    start: str,
    end: str,
    max_wildcards: int,
    trials: int = 7,
    warmup: int = 2,
    dataset: str = "dataset",
) -> list[BenchRow]:
    """Same protocol over the brute-force walk counter (m wildcards = m+1 edges)."""

    def query(m: int) -> int:
        return count_walks(g, start, end, m + 1)

    return _timed_rows(query, dataset, "naive", max_wildcards, trials, warmup)


def run_bench_dp(
    g: ProvGraph,
    start: str,
    end: str,
    max_wildcards: int,
    trials: int = 7,
    warmup: int = 2,
    dataset: str = "dataset",
) -> list[BenchRow]:
    """Same protocol over a frontier DP on the graph's successors: for each
    of the m + 1 edges it maps every reachable vertex to the number of walks
    arriving there, O(m * |E|)."""
    successors = {v: g.successors(v) for v in g.node_ids}

    def query(m: int) -> int:
        frontier = {start: 1}
        for _ in range(m + 1):
            reached: dict[str, int] = {}
            for v, ways in frontier.items():
                for w in successors[v]:
                    reached[w] = reached.get(w, 0) + ways
            frontier = reached
        return frontier.get(end, 0)

    return _timed_rows(query, dataset, "dp", max_wildcards, trials, warmup)


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
