"""Independent references and simple baselines for the benchmark's checks.

Nothing here calls the package's query code.  The references re-derive
each answer from first principles: the closed form for complete graphs,
a scan over the indexed sequences for the run corpus, an exhaustive walk
over the raw node fields for suggestions, and a recount of node
frequencies for the per-depth tables.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Sequence


def clique_count(n: int, edges: int) -> int:
    """Walks of ``edges`` steps between two distinct vertices of K_n."""
    return ((n - 1) ** edges - (-1) ** edges) // n


def frontier_dp_count(succ: dict[str, Sequence[str]], start: str, end: str, edges: int) -> int:
    """Walks of exactly ``edges`` steps from start to end: O(edges * |E|)."""
    frontier = {start: 1}
    for _ in range(edges):
        nxt: dict[str, int] = defaultdict(int)
        for v, ways in frontier.items():
            for w in succ[v]:
                nxt[w] += ways
        frontier = nxt
    return frontier.get(end, 0)


class IndexedSequences:
    """The multiset of indexed sequences, grouped by first label."""

    def __init__(self) -> None:
        self.by_first: dict[str, Counter[tuple[str, ...]]] = defaultdict(Counter)
        self.total = 0

    def add(self, items: Iterable[tuple[str, ...]]) -> None:
        for w in items:
            self.by_first[w[0]][w] += 1
            self.total += 1

    def matches(self, start: str, wildcards: int, terminal: str) -> dict[tuple[str, ...], int]:
        """Distinct matching prefixes, each with the number of sequences through it."""
        length = wildcards + 2
        out: dict[tuple[str, ...], int] = defaultdict(int)
        for w, mult in self.by_first.get(start, {}).items():
            if len(w) >= length and w[length - 1] == terminal:
                out[w[:length]] += mult
        return out

    def distinct(self) -> list[tuple[str, ...]]:
        return [w for group in self.by_first.values() for w in group]


def scan_count(distinct: list[tuple[str, ...]], start: str, wildcards: int, terminal: str) -> int:
    """Linear-scan baseline: one pass over every distinct indexed sequence."""
    length = wildcards + 2
    seen = set()
    for w in distinct:
        if len(w) >= length and w[0] == start and w[length - 1] == terminal:
            seen.add(w[:length])
    return len(seen)


def _step(node, label: str):
    child = node.children.get(label)
    if child is not None:
        return child, child.entry_count / node.freq
    edge = node.cycles.get(label)
    if edge is not None:
        return edge.target, edge.count / node.freq
    return None


def all_continuations(root, prefix: Sequence[str], ahead: int) -> list[tuple[tuple[str, ...], float]]:
    """Every length-``ahead`` continuation of ``prefix`` with its likelihood.

    Exhaustive, iterative, over child and cycle edges; likelihoods multiply
    the raw step ratios in path order.  Sorted likelihood-descending, then
    by labels.
    """
    node = root
    for label in prefix:
        step = _step(node, label)
        if step is None:
            return []
        node = step[0]
    out = []
    stack = [(node, (), 1.0)]
    while stack:
        node, labels, lik = stack.pop()
        if len(labels) == ahead:
            out.append((labels, lik))
            continue
        for label in set(node.children) | set(node.cycles):
            nxt, p = _step(node, label)
            stack.append((nxt, labels + (label,), lik * p))
    out.sort(key=lambda r: (-r[1], r[0]))
    return out


def depth_recount(root) -> dict[int, dict[str, int]]:
    """Per-depth identifier frequencies, summed over the nodes themselves."""
    table: dict[int, dict[str, int]] = defaultdict(dict)
    stack = [(child, 1) for child in root.children.values()]
    while stack:
        node, depth = stack.pop()
        level = table[depth]
        level[node.id] = level.get(node.id, 0) + node.freq
        stack.extend((child, depth + 1) for child in node.children.values())
    return table


def most_probable(table: dict[int, dict[str, int]], depth: int) -> tuple[str, int, float]:
    level = table[depth]
    rid, freq = min(level.items(), key=lambda kv: (-kv[1], kv[0]))
    return rid, freq, freq / sum(level.values())


def terminal_count(root, seq: tuple[str, ...]) -> int:
    """terminal_count at the end of the child path ``seq`` (0 if absent)."""
    node = root
    for label in seq:
        node = node.children.get(label)
        if node is None:
            return 0
    return node.terminal_count
