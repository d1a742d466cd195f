"""Ground truth by brute force: walk enumeration and closed-form counts.

Everything here is deliberately slow and direct.  The walk enumerator
expands every walk over the raw adjacency structure on an explicit stack,
with no memo; the topological-order enumerator tries every frontier
choice; and the clique count is the closed form evaluated in exact
integer arithmetic.  These are the
independent references the trie index is checked against; none of them
share code with it.
"""
from __future__ import annotations

from math import comb
from typing import Iterator

from .graph import MissingNode, ProvGraph

#: Node-count guard for exhaustive linear-extension enumeration
#: (worst case is factorial in the node count).
MAX_TOPO_NODES = 10


class TooLarge(Exception):
    """Graph exceeds the exhaustive-enumeration size guard."""


def check_ends(g: ProvGraph, start: str, end: str) -> None:
    """Raise ``MissingNode`` unless both ends of a walk are in ``g``: the
    one check of the walk enumerators and of the bench's graph counters."""
    if start not in g:
        raise MissingNode(f"walk start {start!r} is not in the graph")
    if end not in g:
        raise MissingNode(f"walk end {end!r} is not in the graph")


def _check_walk(g: ProvGraph, start: str, end: str, m: int) -> None:
    """The walk enumerators' argument check: both ends in ``g``, ``m >= 1``."""
    check_ends(g, start, end)
    if m < 1:
        raise ValueError(f"walk length must be >= 1, got {m}")


def enumerate_walks(g: ProvGraph, start: str, end: str, m: int) -> tuple[tuple[str, ...], ...]:
    """Exhaustively enumerate all walks of exactly ``m`` edges start -> end.

    Each walk is a tuple of its ``m + 1`` identifiers; vertices may
    repeat.  Output order is lexicographic: an explicit stack of partial
    walks expands successors in sorted order, so a walk of any length
    needs no recursion.
    """
    _check_walk(g, start, end, m)
    walks: list[tuple[str, ...]] = []
    stack = [(start,)]
    while stack:
        walk = stack.pop()
        if len(walk) == m:
            if g.has_edge(walk[-1], end):
                walks.append(walk + (end,))
        else:
            stack.extend(walk + (w,) for w in reversed(g.successors(walk[-1])))
    return tuple(walks)


def count_walks(g: ProvGraph, start: str, end: str, m: int) -> int:
    """Number of walks of exactly ``m`` edges start -> end.

    Same brute-force expansion as ``enumerate_walks``, but the stack holds
    (vertex, edges left) pairs and nothing is materialized, which keeps
    large counts timeable without large allocations.
    """
    _check_walk(g, start, end, m)
    total = 0
    stack = [(start, m)]
    while stack:
        v, left = stack.pop()
        if left == 1:
            total += g.has_edge(v, end)
        else:
            stack.extend((w, left - 1) for w in g.successors(v))
    return total


def clique_walk_count(n: int, m: int) -> int:
    """Walks of ``m`` edges between two distinct vertices of a complete graph.

    Evaluates ((n-1)^m - (-1)^m) / n exactly; Python integers are
    arbitrary precision, so the count is exact at any size.  The division
    is always exact because (n-1) is congruent to -1 mod n; the remainder
    assertion only guards against implementation mistakes.
    """
    if n < 2:
        raise ValueError(f"clique size must be >= 2, got {n}")
    if m < 1:
        raise ValueError(f"walk length must be >= 1, got {m}")
    numerator = (n - 1) ** m - (-1) ** m
    quotient, remainder = divmod(numerator, n)
    if remainder:
        raise ArithmeticError(f"clique count not divisible: n={n} m={m}")
    return quotient


def all_pairs_clique_count(n: int, m: int) -> int:
    """Walk count summed over all unordered distinct vertex pairs: C(n,2) per-pair walks."""
    return comb(n, 2) * clique_walk_count(n, m)


def iter_topological_orders(g: ProvGraph) -> Iterator[tuple[str, ...]]:
    """Yield every linear extension of ``g``, in lexicographic order.

    Frontier recursion: at each step branch on every currently available
    node (sorted).  Guarded by ``MAX_TOPO_NODES`` since the number of
    extensions grows factorially.
    """
    if g.node_count > MAX_TOPO_NODES:
        raise TooLarge(f"refusing to enumerate orders of {g.node_count} > {MAX_TOPO_NODES} nodes")
    indeg = {rid: g.in_degree(rid) for rid in g.node_ids}
    avail = sorted(rid for rid, d in indeg.items() if d == 0)
    chosen: list[str] = []
    total = g.node_count

    def go(avail: list[str]) -> Iterator[tuple[str, ...]]:
        if len(chosen) == total:
            yield tuple(chosen)
            return
        for rid in list(avail):
            chosen.append(rid)
            nxt = [a for a in avail if a != rid]
            for succ in g.successors(rid):
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    nxt.append(succ)
            nxt.sort()
            yield from go(nxt)
            for succ in g.successors(rid):
                indeg[succ] += 1
            chosen.pop()

    yield from go(avail)
