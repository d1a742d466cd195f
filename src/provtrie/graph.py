"""Directed provenance graphs: resources and dependency edges.

A graph holds resources identified by URI strings and directed edges
between them, and nothing else.  A resource's role (input, output, or
process) is not stored: ``infer_roles`` derives it from the degrees.
Graphs come in two kinds: DAG (acyclic, self-loops rejected) and DG
(arbitrary directed graph, cycles allowed).

Resource identifiers are compared with plain string ordering; that
ordering is the single tie-breaking rule used by every deterministic
traversal in this package.  Identifiers are never normalized (no case
folding, no percent-decoding), so two spellings of the same URI are two
different resources.  A graph stores one adjacency and owns the one
topological sort that ``validate_dag`` and ``canonical.sequence`` read.
"""
from __future__ import annotations

from enum import Enum
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator

from .kinds import GraphError, GraphKind  # defined apart for the read path; provtrie.graph still exports both


class MissingNode(GraphError):
    """An operation referenced a resource that is not in the graph."""


class SelfLoopInDag(GraphError):
    """A self-loop edge was added to a DAG-kind graph."""


class InvalidSize(GraphError):
    """A generator was asked for a graph below its minimum size."""


class CyclicInput(GraphError):
    """An acyclic graph was required but the edge relation has a cycle."""


class Role(Enum):
    INPUT = "input"
    OUTPUT = "output"
    PROCESS = "process"


class ProvGraph:
    """Directed graph of resources.

    Stored per node: successor set and in-degree count.  The
    topological order is computed on first request and kept in one slot
    that a new node or edge clears.  Construction is single-threaded; a
    built graph is read-only and safe to share across threads, since its
    lazily filled slot only ever receives equal values.  Insertion is
    idempotent: replaying the construction calls yields an equal graph.
    """

    __slots__ = ("kind", "_succ", "_indeg", "_edge_count", "_order")

    def __init__(self, kind: GraphKind = GraphKind.DAG) -> None:
        self.kind = kind
        self._succ: dict[str, set[str]] = {}
        self._indeg: dict[str, int] = {}
        self._edge_count = 0
        self._order: tuple[str, ...] | None = None

    # ---- construction ----------------------------------------------------

    def add_node(self, rid: str) -> None:
        """Add resource ``rid``; re-adding it is a no-op."""
        if not isinstance(rid, str) or not rid:
            raise ValueError("resource identifier must be a nonempty string")
        if rid in self._succ:
            return
        self._succ[rid] = set()
        self._indeg[rid] = 0
        self._order = None

    def add_edge(self, src: str, dst: str) -> None:
        """Add the directed edge src -> dst (set semantics, idempotent)."""
        if src not in self._succ:
            raise MissingNode(f"edge endpoint {src!r} is not in the graph")
        if dst not in self._succ:
            raise MissingNode(f"edge endpoint {dst!r} is not in the graph")
        self.add_edges(((src, dst),))

    def add_edges(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Add each pair's missing endpoints and then its edge, as
        ``add_node(src)``, ``add_node(dst)`` and ``add_edge(src, dst)`` would,
        with the same checks in the same order, in one loop."""
        succ, indeg = self._succ, self._indeg
        dag = self.kind is GraphKind.DAG
        for src, dst in pairs:
            if not isinstance(src, str) or not src:  # before a lookup: an unhashable id is a ValueError too
                raise ValueError("resource identifier must be a nonempty string")
            if src not in succ:
                succ[src] = set()
                indeg[src] = 0
                self._order = None
            if not isinstance(dst, str) or not dst:
                raise ValueError("resource identifier must be a nonempty string")
            if dst not in succ:
                succ[dst] = set()
                indeg[dst] = 0
                self._order = None
            if src == dst and dag:
                raise SelfLoopInDag(f"self-loop on {src!r} not allowed in a DAG")
            out = succ[src]
            if dst not in out:
                out.add(dst)
                indeg[dst] += 1
                self._edge_count += 1
                self._order = None

    # ---- inspection --------------------------------------------------------

    def infer_roles(self) -> dict[str, Role]:
        """Every resource's role, derived from its degrees: sources
        (in-degree 0, isolated nodes included) are inputs, sinks outputs,
        everything else a process.  The graph is not changed."""
        indeg = self._indeg
        source, inner, sink = Role.INPUT, Role.PROCESS, Role.OUTPUT  # one enum lookup each, not one a node
        return {rid: source if not indeg[rid] else inner if succ else sink for rid, succ in self._succ.items()}

    def __contains__(self, rid: str) -> bool:
        return rid in self._succ

    @property
    def node_ids(self) -> tuple[str, ...]:
        """All resource identifiers, sorted."""
        return tuple(sorted(self._succ))

    @property
    def node_count(self) -> int:
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def successors(self, rid: str) -> tuple[str, ...]:
        """Successors of ``rid``, sorted."""
        if rid not in self._succ:
            raise MissingNode(f"{rid!r} is not in the graph")
        return tuple(sorted(self._succ[rid]))

    def has_edge(self, src: str, dst: str) -> bool:
        return src in self._succ and dst in self._succ[src]

    def in_degree(self, rid: str) -> int:
        if rid not in self._indeg:
            raise MissingNode(f"{rid!r} is not in the graph")
        return self._indeg[rid]

    def edges(self) -> Iterator[tuple[str, str]]:
        """All edges as (src, dst) pairs, in sorted pair order."""
        for src in sorted(self._succ):
            for dst in sorted(self._succ[src]):
                yield (src, dst)

    # ---- validation --------------------------------------------------------

    def validate_dag(self) -> bool:
        """True iff the edge relation admits a topological order, any ``kind``."""
        try:
            self._topological_order()
        except CyclicInput:
            return False
        return True

    def _topological_order(self) -> tuple[str, ...]:
        """Lexicographically smallest topological order (Kahn, CACM 1962):
        always emit the smallest identifier whose predecessors are emitted.
        The heap alone orders it, so nodes and successors are read unsorted.
        A cyclic edge relation raises ``CyclicInput``."""
        if self._order is None:
            indeg, succ = self._indeg.copy(), self._succ
            frontier = [rid for rid, d in indeg.items() if not d]
            heapify(frontier)
            out: list[str] = []
            while frontier:
                rid = heappop(frontier)
                out.append(rid)
                for nxt in succ[rid]:
                    indeg[nxt] -= 1
                    if not indeg[nxt]:
                        heappush(frontier, nxt)
            if len(out) != len(indeg):
                raise CyclicInput("graph has a cycle; cannot linearize")
            self._order = tuple(out)
        return self._order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProvGraph):
            return NotImplemented
        return self.kind is other.kind and self._succ == other._succ

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProvGraph kind={self.kind.value} nodes={self.node_count} edges={self.edge_count}>"


def gen_clique(n: int) -> ProvGraph:
    """Complete graph on ``n`` resources, as symmetric directed edges.

    Nodes are labeled ``:r0`` .. ``:r(n-1)``.  The undirected clique is
    encoded as both directed edges of every distinct pair, so the graph
    has n*(n-1) edges and the DG trie / walk enumerator see every
    traversal direction.
    """
    if n < 2:
        raise InvalidSize(f"clique needs at least 2 nodes, got {n}")
    g = ProvGraph(GraphKind.DG)
    ids = [f":r{i}" for i in range(n)]
    g.add_edges((u, v) for u in ids for v in ids if u != v)
    return g
