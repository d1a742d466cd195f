"""Query engine over the trie: wildcard path search, next-step suggestion,
per-depth frequent-pattern lookup.

All queries are read-only and root-anchored: a pattern matches indexed
label sequences from their beginning (mid-run matching is obtained by
building the index from n-gram windows instead).  A wildcard stands for
exactly one arbitrary identifier.  In DG mode traversal follows both
child edges and cycle-edges, so matches may loop through cyclic
structure; label lookup stays unambiguous because the two edge kinds can
never carry the same label from one node.

A match is scored by the product of per-step conditional probabilities,
each step contributing (times this step was taken) / (times the current
node was visited).

``q1`` and ``q2_suggest`` share one depth-first enumerator with an
explicit stack over one step lookup, ``_steps``; ``count_paths`` is a
frontier DP that never materializes a path.  Nothing recurses, so the
interpreter's recursion limit bounds no pattern or run length.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .trie import Trie, TrieMode, TrieNode


class EmptyDepth(Exception):
    """No node exists at the requested depth."""


@dataclass(frozen=True)
class QueryPattern:
    """Anchored prefix, a number of single-step wildcards, optional terminal."""

    prefix: tuple[str, ...]
    wildcards: int = 0
    terminal: str | None = None

    def __post_init__(self) -> None:
        if not self.prefix:
            raise ValueError("pattern prefix must be nonempty")
        if self.wildcards < 0:
            raise ValueError(f"wildcard count must be >= 0, got {self.wildcards}")
        if self.terminal is not None and not self.terminal:
            raise ValueError("terminal must be a nonempty identifier when present")

    @property
    def total_length(self) -> int:
        return len(self.prefix) + self.wildcards + (1 if self.terminal is not None else 0)

    def labels(self) -> list[str | None]:
        """Pattern positions in order; None marks a wildcard."""
        out: list[str | None] = list(self.prefix)
        out.extend([None] * self.wildcards)
        if self.terminal is not None:
            out.append(self.terminal)
        return out


@dataclass(frozen=True)
class PathMatch:
    """One concrete matched sequence with its statistics."""

    path: tuple[str, ...]
    freq: int
    likelihood: float


def _steps(node: TrieNode, want: str | None, follow_cycles: bool) -> list[tuple[str, TrieNode, int]]:
    """Every step out of ``node`` labelled ``want`` (None: any label).

    Each step is (label, next node, times taken); its probability is
    ``taken / node.freq``.  Child and cycle-edge steps are both listed
    when ``follow_cycles`` is set, in no particular order.
    """
    if want is None:
        steps = []
        for label, child in node.children.items():
            steps.append((label, child, child.entry_count))
        if follow_cycles:
            for label, edge in node.cycles.items():
                steps.append((label, edge.target, edge.count))
        return steps
    child = node.children.get(want)
    if child is not None:
        return [(want, child, child.entry_count)]
    if follow_cycles:
        edge = node.cycles.get(want)
        if edge is not None:
            return [(want, edge.target, edge.count)]
    return []


def _walks(
    start: TrieNode, labels: Sequence[str | None], follow_cycles: bool
) -> list[tuple[TrieNode, tuple[str, ...], float]]:
    """Every traversal from ``start`` taking one step per position of the
    nonempty ``labels``, as (end node, step labels, likelihood), unordered.

    The stack holds the untried siblings along one branch.  Likelihood
    multiplies the step probabilities from the start outwards.
    """
    last = len(labels) - 1
    out: list[tuple[TrieNode, tuple[str, ...], float]] = []
    stack: list[tuple[int, TrieNode, tuple[str, ...], float]] = [(0, start, (), 1.0)]
    while stack:
        i, node, path, likelihood = stack.pop()
        freq = node.freq
        steps = _steps(node, labels[i], follow_cycles)
        if i == last:
            for label, nxt, taken in steps:
                out.append((nxt, path + (label,), likelihood * (taken / freq)))
        else:
            i += 1
            for label, nxt, taken in steps:
                stack.append((i, nxt, path + (label,), likelihood * (taken / freq)))
    return out


def locate(trie: Trie, labels: Sequence[str]) -> tuple[TrieNode | None, int]:
    """Position the cursor at a fully anchored label path.

    Returns (node, nodes visited); node is None when the path is absent.
    The visit count is bounded by len(labels): one lookup per symbol.
    """
    follow_cycles = trie.mode is TrieMode.DG
    node = trie.root
    for visited, label in enumerate(labels):
        steps = _steps(node, label, follow_cycles)
        if not steps:
            return None, visited
        node = steps[0][1]
    return node, len(labels)


def _check_q1(trie: Trie, pattern: QueryPattern, strict: bool) -> None:
    if pattern.terminal is None:
        raise ValueError("q1 patterns require a terminal identifier")
    if strict and trie.n != 0:
        raise ValueError("strict terminal matching applies to whole-sequence indexes only (n=0)")


def q1(trie: Trie, pattern: QueryPattern, strict: bool = False) -> list[PathMatch]:
    """All distinct root-anchored label sequences matching the pattern.

    The result set is exact and complete; only the pattern is
    approximate.  Matches are ordered by likelihood descending, ties
    broken by path.  An unknown first anchor is a no-match result (empty
    list), not an error.  With ``strict`` (whole-sequence indexes only)
    the final node must additionally have ended an inserted sequence.
    """
    _check_q1(trie, pattern, strict)
    matches = [
        PathMatch(path, node.freq, likelihood)
        for node, path, likelihood in _walks(trie.root, pattern.labels(), trie.mode is TrieMode.DG)
        if not strict or node.terminal_count
    ]
    matches.sort(key=lambda m: (-m.likelihood, m.path))
    return matches


def count_paths(trie: Trie, pattern: QueryPattern, strict: bool = False) -> int:
    """Number of q1 matches, computed without materializing them.

    A frontier DP: for each pattern position it maps every reachable node
    to the number of traversals arriving there.  Lookup from any node is
    label-deterministic, so distinct label sequences correspond
    one-to-one to distinct traversals and the counts compose.
    """
    _check_q1(trie, pattern, strict)
    follow_cycles = trie.mode is TrieMode.DG
    frontier: dict[TrieNode, int] = {trie.root: 1}
    for want in pattern.labels():
        reached: dict[TrieNode, int] = {}
        get = reached.get
        for node, ways in frontier.items():
            if want is None:
                for child in node.children.values():
                    reached[child] = get(child, 0) + ways
                if follow_cycles:
                    for edge in node.cycles.values():
                        reached[edge.target] = get(edge.target, 0) + ways
                continue
            nxt = node.children.get(want)
            if nxt is None and follow_cycles:
                edge = node.cycles.get(want)
                nxt = edge.target if edge is not None else None
            if nxt is not None:
                reached[nxt] = get(nxt, 0) + ways
        frontier = reached
    return sum(ways for node, ways in frontier.items() if not strict or node.terminal_count)


def q2_suggest(
    trie: Trie, prefix: Sequence[str], ahead: int, top: int
) -> list[tuple[tuple[str, ...], float]]:
    """Most likely length-``ahead`` continuations of ``prefix``.

    Enumerates every continuation reachable from the prefix cursor and
    scores it by the product of step probabilities; the maximization is
    exact over all bounded continuations, not a greedy chain of argmax
    steps.  Returns at most ``top`` results, likelihood descending with
    lexicographic tie-break; an absent prefix yields no suggestions.
    """
    if not prefix:
        raise ValueError("suggestion prefix must be nonempty")
    if ahead < 1:
        raise ValueError(f"lookahead must be >= 1, got {ahead}")
    if top < 1:
        raise ValueError(f"result limit must be >= 1, got {top}")
    cursor, _ = locate(trie, prefix)
    if cursor is None:
        return []
    results = [
        (path, likelihood)
        for _, path, likelihood in _walks(cursor, [None] * ahead, trie.mode is TrieMode.DG)
    ]
    results.sort(key=lambda r: (-r[1], r[0]))
    return results[:top]


def most_probable_at_depth(trie: Trie, depth: int) -> tuple[str, int, float]:
    """The dominant identifier at a depth level.

    Returns (identifier, cumulative frequency, share of the level total);
    frequency ties go to the lexicographically smaller identifier.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    table = trie.depth_stats.at(depth)
    if not table:
        raise EmptyDepth(f"no node at depth {depth}")
    rid, freq = min(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return rid, freq, freq / trie.depth_stats.total(depth)
