"""Deterministic linearization of acyclic graphs, plus n-gram windowing.

``sequence`` maps a graph to the lexicographically smallest of its
topological orders.  The output depends only on the node and edge sets,
never on insertion order, so two structurally equal graphs always
linearize identically and can be compared as strings of identifiers.
The mapping is not injective: distinct graphs may share a sequence, and
nothing here attempts to invert it.

``ngrams`` slices a sequence into contiguous fixed-length windows so that
an index built from the windows can answer queries that start mid-run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import ProvGraph


@dataclass(frozen=True)
class CanonicalSequence:
    """A linearized graph: every node exactly once, edges respected."""

    items: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class SubsequenceWindow:
    """Contiguous stride-1 windows of length ``n`` over a sequence."""

    n: int
    windows: tuple[tuple[str, ...], ...]


def sequence(g: ProvGraph) -> CanonicalSequence:
    """Lexicographically smallest topological order of ``g``.

    Disconnected components interleave under the same global rule.  An
    empty graph yields the empty sequence; a cyclic edge relation raises
    ``CyclicInput``.  The graph computes the order once and keeps it, so
    after a DAG builder's ``validate_dag`` this runs no second pass.
    """
    return CanonicalSequence(g._topological_order())


def ngrams(seq: CanonicalSequence | Sequence[str], n: int) -> SubsequenceWindow:
    """All contiguous length-``n`` windows of ``seq``.

    A sequence of length s >= n yields exactly s - n + 1 windows; a
    shorter sequence is returned whole as a single window so that small
    inputs stay indexable.  An empty sequence yields no windows.
    """
    if n < 1:
        raise ValueError(f"window length must be >= 1, got {n}")
    items = tuple(seq.items) if isinstance(seq, CanonicalSequence) else tuple(seq)
    if not items:
        return SubsequenceWindow(n, ())
    if len(items) < n:
        return SubsequenceWindow(n, (items,))
    windows = tuple(items[i : i + n] for i in range(len(items) - n + 1))
    return SubsequenceWindow(n, windows)

