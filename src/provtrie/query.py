"""Query engine over the trie: wildcard path search, next-step suggestion,
per-depth frequent-pattern lookup.

All queries are read-only and root-anchored: a pattern matches indexed
label sequences from their beginning (mid-run matching is obtained by
building the index from n-gram windows instead).  A wildcard stands for
exactly one arbitrary identifier.  Traversal follows both child edges
and cycle-edges, so in DG mode matches may loop through cyclic structure
(a DAG-mode trie holds no cycle-edge: ``insert`` never records one and
``check_invariants`` rejects one); label lookup stays unambiguous because
the two edge kinds can never carry the same label from one node.

A match is scored by the product of per-step conditional probabilities,
each step contributing (times this step was taken) / (times the current
node was visited).

Every query that lists matches runs ``_traversals``, one generator that
takes one step per pattern position, scores each step and keeps its
pending partial traversals in a container it is given.  ``q2_suggest``
and ``q1`` with a limit give it a heap: it is then a uniform-cost search
(Dijkstra 1959; A* with h = 0, Hart, Nilsson & Raphael 1968) that yields
traversals in result order, and they stop it after k.  In a trie that
passes ``check_invariants`` a step probability is at most 1, so a
likelihood multiplied from the start outwards never rises along a path,
in floating point too, and a path sorts before its extensions: the first
k traversals are exactly the first k of the sorted enumeration, to the
bit and in the same tie order.  ``q1`` without a limit gives it a stack,
which enumerates depth-first without the heap's cost, and sorts the
result.  ``count_paths`` is the one frontier DP, which never
materializes a path.
Nothing recurses, so the interpreter's recursion limit bounds no pattern
or run length.

Every query runs on a ``Trie`` or a ``FrozenTrie``, unchanged: it reads
``children[node]`` and ``cycles[node]`` only as label -> index mappings,
through ``get``, ``items``, ``values`` and truthiness, which the dict
trie's maps and the frozen trie's range views both answer.
"""
from __future__ import annotations

import sys
from heapq import heappop, heappush
from itertools import islice
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence, Union

if TYPE_CHECKING:  # a read command loads the reader, never the builder
    from .document import FrozenTrie
    from .trie import Trie

AnyTrie = Union["Trie", "FrozenTrie"]


class EmptyDepth(Exception):
    """No node exists at the requested depth."""


class QueryPattern:
    """Anchored prefix, a number of single-step wildcards, then a terminal;
    immutable, equal and hashed by these three fields."""

    __slots__ = ("prefix", "wildcards", "terminal")  # slots: the fastest attribute reads

    def __init__(self, prefix: tuple[str, ...], wildcards: int, terminal: str) -> None:
        if not prefix:
            raise ValueError("pattern prefix must be nonempty")
        if wildcards < 0:
            raise ValueError(f"wildcard count must be >= 0, got {wildcards}")
        if not terminal:
            raise ValueError("terminal must be a nonempty identifier")
        for name, value in zip(self.__slots__, (prefix, wildcards, terminal)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple[tuple[str, ...], int, str]:
        return self.prefix, self.wildcards, self.terminal

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(prefix={self.prefix!r}, wildcards={self.wildcards!r}, terminal={self.terminal!r})"

    def __reduce__(self) -> tuple[type, tuple[tuple[str, ...], int, str]]:  # copy and pickle rebuild through __init__
        return type(self), self._fields()

    def labels(self) -> list[str | None]:
        """Pattern positions in order; None marks a wildcard."""
        return list(self.prefix) + [None] * self.wildcards + [self.terminal]


class PathMatch(NamedTuple):
    """One concrete matched sequence with its statistics."""

    path: tuple[str, ...]
    freq: int
    likelihood: float


def _step(trie: AnyTrie, node: int, label: str) -> tuple[int, int] | None:
    """The step out of ``node`` labelled ``label``, child or cycle-edge, as
    (next node, times taken), or None when there is none; its probability
    is taken / freq[node]."""
    child = trie.children[node].get(label)
    if child is not None:
        return child, trie.entry[child]
    edge = trie.cycles[node].get(label)
    if edge is not None:
        return trie.cycle_to[edge], trie.cycle_count[edge]
    return None


def _traversals(
    trie: AnyTrie, start: int, labels: Sequence[str | None], push=heappush, pop=heappop
) -> Iterator[tuple[int, tuple[str, ...], float]]:
    """Every traversal from ``start`` taking one step per position of the
    nonempty ``labels`` (None: any label), lazily, as (end node, step
    labels, likelihood).  ``pending`` holds partial traversals keyed
    (-likelihood, step labels, node); likelihood multiplies the step
    probabilities from the start outwards.

    With the default heap the order is likelihood descending, ties broken
    by step labels: an extension never sorts before its prefix, so a
    complete traversal is popped only after every one that sorts before
    it.  Lookup is label-deterministic, so one label tuple names one
    traversal and the key never compares nodes.  With ``list.append`` and
    ``list.pop`` the order is depth-first and unspecified."""
    last = len(labels)
    freqs, entry, children, cycles = trie.freq, trie.entry, trie.children, trie.cycles
    pending: list[tuple[float, tuple[str, ...], int]] = [(-1.0, (), start)]
    while pending:
        neg, path, node = pop(pending)
        i = len(path)
        if i == last:
            yield node, path, -neg
            continue
        # (-l) * p is -(l * p) to the bit: -neg is the likelihood multiplied from the start
        freq, want = freqs[node], labels[i]
        if want is not None:
            step = _step(trie, node, want)
            if step is not None:
                nxt, taken = step
                push(pending, (neg * (taken / freq), path + (want,), nxt))
            continue
        for label, child in children[node].items():
            push(pending, (neg * (entry[child] / freq), path + (label,), child))
        out = cycles[node]
        if out:  # most nodes have no cycle-edge, and in DAG mode none has
            cycle_to, cycle_count = trie.cycle_to, trie.cycle_count
            for label, edge in out.items():
                push(pending, (neg * (cycle_count[edge] / freq), path + (label,), cycle_to[edge]))


def locate(trie: AnyTrie, labels: Sequence[str]) -> tuple[int | None, int]:
    """Position the cursor at a fully anchored label path, on either trie:
    (node index, nodes visited), the node None when the path is absent.
    One lookup per symbol, so the visit count is at most len(labels)."""
    node = 0
    for visited, label in enumerate(labels):
        step = _step(trie, node, label)
        if step is None:
            return None, visited
        node = step[0]
    return node, len(labels)


def _check_q1(trie: AnyTrie, strict: bool) -> None:
    if strict and trie.n != 0:
        raise ValueError("strict terminal matching applies to whole-sequence indexes only (n=0)")


def check_limit(limit: int) -> None:
    """Raise ``ValueError`` unless ``q1`` can take this match limit."""
    if limit < 0:
        raise ValueError(f"match limit must be >= 0, got {limit}")


def q1(trie: AnyTrie, pattern: QueryPattern, strict: bool = False, limit: int = 0) -> list[PathMatch]:
    """All distinct root-anchored label sequences matching the pattern.

    The result set is exact and complete; only the pattern is
    approximate.  Matches are ordered by likelihood descending, ties
    broken by path.  An unknown first anchor is a no-match result (empty
    list), not an error.  With ``strict`` (whole-sequence indexes only)
    the final node must additionally have ended an inserted sequence.
    A ``limit`` above 0 returns the first ``limit`` matches of that list,
    found by a best-first search that stops there; 0 returns them all.
    """
    check_limit(limit)
    _check_q1(trie, strict)
    freq, terminal = trie.freq, trie.terminal
    if limit:
        ranked = _traversals(trie, 0, pattern.labels())
        if strict:
            ranked = (walk for walk in ranked if terminal[walk[0]])
        return [PathMatch(path, freq[node], likelihood) for node, path, likelihood in islice(ranked, limit)]
    # a stack in place of the heap: depth-first, without the heap's cost, then one sort
    matches = [
        PathMatch(path, freq[node], likelihood)
        for node, path, likelihood in _traversals(trie, 0, pattern.labels(), list.append, list.pop)
        if not strict or terminal[node]
    ]
    matches.sort(key=lambda m: (-m.likelihood, m.path))
    return matches


def count_text(count: int) -> str:
    """``str(count)`` for a count of any size.  The interpreter's limit on
    the digits of an int-to-str conversion guards the parsing of untrusted
    text; a count is computed, so the limit is lifted for this one
    conversion.  An interpreter without the limit converts directly."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        return str(count)
    previous = limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(count)
    finally:
        sys.set_int_max_str_digits(previous)


def count_paths(trie: AnyTrie, pattern: QueryPattern, strict: bool = False) -> int:
    """Number of q1 matches, computed without materializing them.

    A frontier DP: for each pattern position it maps every reachable node
    to the number of traversals arriving there.  Lookup from any node is
    label-deterministic, so distinct label sequences correspond
    one-to-one to distinct traversals and the counts compose.
    """
    _check_q1(trie, strict)
    children, cycles, cycle_to = trie.children, trie.cycles, trie.cycle_to
    frontier: dict[int, int] = {0: 1}
    for want in pattern.labels():
        reached: dict[int, int] = {}
        get = reached.get
        for node, ways in frontier.items():
            if want is None:
                for child in children[node].values():
                    reached[child] = get(child, 0) + ways
                out = cycles[node]
                if out:
                    for edge in out.values():
                        target = cycle_to[edge]
                        reached[target] = get(target, 0) + ways
                continue
            nxt = children[node].get(want)
            if nxt is None:
                edge = cycles[node].get(want)
                nxt = cycle_to[edge] if edge is not None else None
            if nxt is not None:
                reached[nxt] = get(nxt, 0) + ways
        frontier = reached
    terminal = trie.terminal
    return sum(ways for node, ways in frontier.items() if not strict or terminal[node])


def check_suggestion(prefix: Sequence[str], ahead: int, top: int) -> None:
    """Raise ``ValueError`` unless ``q2_suggest`` can take these arguments."""
    if not prefix:
        raise ValueError("suggestion prefix must be nonempty")
    if ahead < 1:
        raise ValueError(f"lookahead must be >= 1, got {ahead}")
    if top < 1:
        raise ValueError(f"result limit must be >= 1, got {top}")


def q2_suggest(
    trie: AnyTrie, prefix: Sequence[str], ahead: int, top: int
) -> list[tuple[tuple[str, ...], float]]:
    """Most likely length-``ahead`` continuations of ``prefix``.

    Scores each continuation reachable from the prefix cursor by the
    product of step probabilities; the maximization is exact over all
    bounded continuations, not a greedy chain of argmax steps.  Returns at
    most ``top`` results, likelihood descending with lexicographic
    tie-break, from a best-first search that stops after ``top``; an
    absent prefix yields no suggestions.
    """
    check_suggestion(prefix, ahead, top)
    cursor, _ = locate(trie, prefix)
    if cursor is None:
        return []
    ranked = _traversals(trie, cursor, [None] * ahead)
    return [(path, likelihood) for _, path, likelihood in islice(ranked, top)]


def most_probable_at_depth(trie: AnyTrie, depth: int) -> tuple[str, int, float]:
    """The dominant identifier at a depth level.

    Returns (identifier, cumulative frequency, share of the level total);
    frequency ties go to the lexicographically smaller identifier.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    table = trie.depth_stats.get(depth)
    if not table:
        raise EmptyDepth(f"no node at depth {depth}")
    rid, freq = min(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return rid, freq, freq / sum(table.values())
