"""Shared test utilities: independent oracles and random structure generators.

The oracles here intentionally re-derive results from first principles
(raw field arithmetic, recursive scans) instead of calling the package's
own validation helpers, so that a bug cannot hide on both sides of a
comparison.
"""
from __future__ import annotations

import heapq
import random
import re
from dataclasses import dataclass, field
from itertools import count, islice, repeat
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence

from provtrie.graph import GraphKind, ProvGraph
from provtrie.ingest import NTriplesSyntaxError, ParsedTriples
from provtrie.query import PathMatch, QueryPattern
from provtrie.trie import (
    FORMAT_VERSION,
    CorruptDocument,
    EmptySequence,
    FormatVersionMismatch,
    Trie,
    TrieMode,
    TrieModeError,
    TrieNode,
)


def has_cycle_dfs(g: ProvGraph) -> bool:
    """Classic three-color DFS back-edge finder."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {rid: WHITE for rid in g.node_ids}

    def visit(u: str) -> bool:
        color[u] = GREY
        for v in g.successors(u):
            if color[v] == GREY:
                return True
            if color[v] == WHITE and visit(v):
                return True
        color[u] = BLACK
        return False

    return any(visit(u) for u in g.node_ids if color[u] == WHITE)


def reference_sequence(g: ProvGraph) -> tuple[str, ...] | None:
    """Lexicographically smallest topological order from the public
    ``edges()``/``successors()`` alone, or None when the graph is cyclic."""
    indeg = dict.fromkeys(g.node_ids, 0)
    for _, dst in g.edges():
        indeg[dst] += 1
    frontier = [rid for rid, d in indeg.items() if d == 0]
    heapq.heapify(frontier)
    out = []
    while frontier:
        rid = heapq.heappop(frontier)
        out.append(rid)
        for nxt in g.successors(rid):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(frontier, nxt)
    return tuple(out) if len(out) == len(indeg) else None


def random_dag(rng: random.Random, max_nodes: int = 10, p: float | None = None) -> ProvGraph:
    """Random DAG: edges drawn from the upper triangle of a shuffled order."""
    n = rng.randint(1, max_nodes)
    if p is None:
        p = rng.uniform(0.0, 0.6)
    names = [f"urn:n{i:02d}" for i in range(n)]
    rng.shuffle(names)
    g = ProvGraph(GraphKind.DAG)
    for name in names:
        g.add_node(name)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(names[i], names[j])
    return g


def random_dg(rng: random.Random, max_nodes: int = 8, p: float | None = None) -> ProvGraph:
    """Random directed graph, cycles and self-loops allowed."""
    n = rng.randint(2, max_nodes)
    if p is None:
        p = rng.uniform(0.1, min(0.5, 3.0 / n))
    names = [f"urn:n{i:02d}" for i in range(n)]
    g = ProvGraph(GraphKind.DG)
    for name in names:
        g.add_node(name)
    for u in names:
        for v in names:
            if rng.random() < (p * 0.3 if u == v else p):
                g.add_edge(u, v)
    return g


def insert_all(mode: TrieMode, corpus: Iterable[Sequence[str]], n: int = 0) -> Trie:
    trie = Trie(mode, n=n)
    add = trie.insert if mode is TrieMode.DAG else trie.insert_dg
    for seq in corpus:
        add(seq)
    return trie


def insert_based_index_graph_dg(trie: Trie, g: ProvGraph) -> None:
    """The original DG builder: one ``insert_dg`` per closing insertion.

    Kept verbatim (as a function of the trie) as the exactness reference
    for ``Trie.index_graph_dg``, which builds the same trie in one pass.
    """
    if trie.mode is not TrieMode.DG:
        raise TrieModeError("index_graph_dg requires a DG-mode trie")
    insert = trie.insert_dg

    def visit(path: list[str], on_path: set[str]) -> None:
        succs = g.successors(path[-1])
        if not succs:
            insert(path)
            return
        for w in succs:
            if w in on_path:
                insert(path + [w])
        for w in succs:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                visit(path, on_path)
                on_path.remove(w)
                path.pop()

    for start in g.node_ids:
        visit([start], {start})


def parent_column(trie: Trie) -> list[int]:
    """Each node's parent (the root's: -1), read off the child maps: the
    column ``Trie`` kept before its checker moved onto its document."""
    parent = [-1] * len(trie.id)
    for up, kids in enumerate(trie.children):
        for child in kids.values():
            parent[child] = up
    return parent


def reference_per_depth(trie: Trie) -> dict[int, dict[str, int]]:
    """The per-depth table recounted from the node columns; parents are
    numbered first, so one pass derives every depth.

    ``Trie._per_depth`` kept verbatim (as a function of the trie, the
    parents from ``parent_column``) as the reference for the recount that
    the column checker's level pass returns.
    """
    parent = parent_column(trie)
    depths = [0] * len(parent)
    table: dict[int, dict[str, int]] = {}
    for node, up, rid, freq in islice(zip(count(), parent, trie.id, trie.freq), 1, None):
        depths[node] = depth = depths[up] + 1
        level = table.setdefault(depth, {})
        level[rid] = level.get(rid, 0) + freq  # type: ignore[index]
    return table


def format2_document(trie: Trie) -> dict[str, Any]:
    """The trie as a format 2 document, whose ``parent`` and ``cycle_from``
    columns hold a parent per node and a source per cycle-edge.

    ``Trie.to_document`` as it was before degree columns replaced those two,
    kept verbatim (as a function of the trie, the parents from
    ``parent_column``) as the fixture for refusing format 2 and as the
    reference for the loader's expansion of the degree columns.
    """
    self = trie
    parent = parent_column(trie)
    children, cycles = self.children, self.cycles
    order = [0]  # nodes in canonical order: level by level, children in label order
    edges: list[int] = []  # cycle-edges in canonical order, and their sources
    sources: list[int] = []
    for node in order:
        kids, out = children[node], cycles[node]
        if kids:
            order += map(kids.__getitem__, sorted(kids))
        if out:
            edges += map(out.__getitem__, sorted(out))
            sources += repeat(node, len(out))
    renumber = [0] * len(order)
    for k, node in enumerate(order):
        renumber[node] = k
    nodes = order[1:]
    return {
        "format_version": 2,
        "mode": self.mode.value,
        "n": self.n,
        "sequence_count": self.sequence_count,
        "parent": list(map(renumber.__getitem__, map(parent.__getitem__, nodes))),
        "id": list(map(self.id.__getitem__, nodes)),
        "freq": list(map(self.freq.__getitem__, nodes)),
        "terminal_count": list(map(self.terminal.__getitem__, nodes)),
        "cycle_from": list(map(renumber.__getitem__, sources)),
        "cycle_to": list(map(renumber.__getitem__, map(self.cycle_to.__getitem__, edges))),
        "cycle_count": list(map(self.cycle_count.__getitem__, edges)),
    }


def expand_degrees(counts: Sequence[int]) -> list[int]:
    """Node k once for each of its ``counts[k]`` children or cycle-edges: a
    degree column turned into a parent per node after the root, or a source
    per cycle-edge."""
    return [k for k, times in enumerate(counts) for _ in range(times)]


# ---- node accessors ------------------------------------------------------------
#
# Read-only helpers over the node API (``children``, ``cycles``, ``freq``,
# ``entry_count`` ...), which ``Trie`` views and ``ObjectTrie`` nodes share.


def iter_nodes(trie: Any) -> Iterator[Any]:
    """All nodes in pre-order, children in label order; root first."""
    stack = [trie.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children[label] for label in sorted(node.children, reverse=True))


def node_count(trie: Any) -> int:
    """Number of non-root nodes."""
    return sum(1 for _ in iter_nodes(trie)) - 1


def find(trie: Any, labels: Sequence[str]) -> Any:
    """Follow child edges only (no cycle-edges) from the root."""
    node = trie.root
    for label in labels:
        node = node.children.get(label)
        if node is None:
            return None
    return node


def prob(node: TrieNode) -> float:
    """Conditional probability of stepping into the viewed node from its
    parent, the node whose child map lists it."""
    up = parent_column(node.trie)[node.index]
    return 1.0 if up < 0 else node.entry_count / node.trie.freq[up]


def cycle_edges(node: Any) -> tuple[Any, ...]:
    """Targets of a node's cycle-edges, in label order."""
    return tuple(node.cycles[label].target for label in sorted(node.cycles))


# ---- the object-graph trie -------------------------------------------------------
#
# The package's trie before it became index-addressed, kept verbatim apart
# from the names (``ObjectTrie``, ``ObjectNode``) as the reference for the
# column trie: its builders, its document writer and loader, and its
# one-walk checker.  The writer and loader moved to format 3 with their own
# per-node loops, a queue and a running parent, so that the column
# loader's expansion of the degree columns has an independent reference.
# ``tests/test_trie.py`` requires byte-identical documents and equal
# checker verdicts from both.


@dataclass(slots=True)
class CycleEdge:
    """Back edge to an ancestor carrying the repeated identifier."""

    target: "ObjectNode"
    count: int


_entry_count = attrgetter("entry_count")
_count = attrgetter("count")


class ObjectNode:
    """One trie node; the edge label from its parent is ``id`` (root: None)."""

    __slots__ = ("id", "depth", "parent", "freq", "entry_count", "terminal_count", "children", "cycles")

    def __init__(self, rid: str | None, depth: int, parent: "ObjectNode | None") -> None:
        self.id = rid
        self.depth = depth
        self.parent = parent
        self.freq = 0
        self.entry_count = 0
        self.terminal_count = 0
        self.children: dict[str, ObjectNode] = {}
        self.cycles: dict[str, CycleEdge] = {}

    @property
    def prob(self) -> float:
        """Conditional probability of stepping into this node from its parent."""
        if self.parent is None:
            return 1.0
        return self.entry_count / self.parent.freq

    @property
    def cycle_edges(self) -> tuple["ObjectNode", ...]:
        """Targets of this node's cycle-edges, in label order."""
        return tuple(self.cycles[label].target for label in sorted(self.cycles))

    def children_sorted(self) -> list["ObjectNode"]:
        return [self.children[label] for label in sorted(self.children)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ObjectNode {self.id!r} depth={self.depth} freq={self.freq}>"


@dataclass
class DepthStats:
    """Cumulative identifier frequencies per depth level."""

    per_depth: dict[int, dict[str, int]] = field(default_factory=dict)

    def bump(self, depth: int, rid: str, amount: int = 1) -> None:
        level = self.per_depth.setdefault(depth, {})
        level[rid] = level.get(rid, 0) + amount

    def at(self, depth: int) -> dict[str, int]:
        return dict(self.per_depth.get(depth, {}))

    def total(self, depth: int) -> int:
        return sum(self.per_depth.get(depth, {}).values())

    def depths(self) -> tuple[int, ...]:
        return tuple(sorted(self.per_depth))


class ObjectTrie:
    """The object-graph trie: one ``ObjectNode`` per node, one ``CycleEdge`` per cycle-edge."""

    def __init__(self, mode: TrieMode = TrieMode.DAG, n: int = 0) -> None:
        if n < 0:
            raise ValueError(f"window length must be >= 0, got {n}")
        self.mode = mode
        self.n = n
        self.root = ObjectNode(None, 0, None)
        self.depth_stats = DepthStats()
        self.sequence_count = 0

    # ---- insertion ---------------------------------------------------------

    def insert(self, seq: Sequence[str]) -> None:
        """Insert one sequence (DAG mode).

        Walks down from the root consuming symbols, creating children as
        needed; bumps ``freq`` along the way and ``terminal_count`` at the
        final node.  Statistics are final after the call: no rebuild pass
        exists or is needed.
        """
        if self.mode is not TrieMode.DAG:
            raise TrieModeError("insert requires a DAG-mode trie; use insert_dg")
        symbols = list(seq)
        if not symbols:
            raise EmptySequence("cannot insert an empty sequence")
        bump = self.depth_stats.bump
        node = self.root
        node.freq += 1
        for sym in symbols:
            child = node.children.get(sym)
            if child is None:
                child = ObjectNode(sym, node.depth + 1, node)
                node.children[sym] = child
            child.freq += 1
            child.entry_count += 1
            bump(child.depth, sym)
            node = child
        node.terminal_count += 1
        self.sequence_count += 1

    def insert_dg(self, seq: Sequence[str]) -> None:
        """Insert one sequence (DG mode), folding repeats into cycle-edges.

        When the next symbol already labels a node on the current
        root-to-cursor path, the cursor takes (and idempotently records) a
        cycle-edge back to that ancestor instead of creating a duplicate
        node; the ancestor's ``freq`` absorbs the arrival and the path
        truncates to it.  Sequences without repeats behave exactly as in
        DAG mode.
        """
        if self.mode is not TrieMode.DG:
            raise TrieModeError("insert_dg requires a DG-mode trie; use insert")
        symbols = list(seq)
        if not symbols:
            raise EmptySequence("cannot insert an empty sequence")
        bump = self.depth_stats.bump
        self.root.freq += 1
        path: list[ObjectNode] = [self.root]
        positions: dict[str, int] = {}
        for sym in symbols:
            cursor = path[-1]
            pos = positions.get(sym)
            if pos is None:
                child = cursor.children.get(sym)
                if child is None:
                    child = ObjectNode(sym, cursor.depth + 1, cursor)
                    cursor.children[sym] = child
                child.freq += 1
                child.entry_count += 1
                bump(child.depth, sym)
                positions[sym] = len(path)
                path.append(child)
            else:
                ancestor = path[pos]
                edge = cursor.cycles.get(sym)
                if edge is None:
                    cursor.cycles[sym] = CycleEdge(ancestor, 1)
                else:
                    edge.count += 1
                ancestor.freq += 1
                bump(ancestor.depth, sym)
                for dropped in path[pos + 1 :]:
                    del positions[dropped.id]  # type: ignore[index]
                del path[pos + 1 :]
        path[-1].terminal_count += 1
        self.sequence_count += 1

    def index_graph_dg(self, g: ProvGraph) -> None:
        """Index every bounded walk of a directed graph (DG mode).

        From each node (in identifier order) a depth-first enumeration of
        simple paths runs over sorted successors.  At every point along a
        path, each successor that leads back onto the path contributes one
        closing insertion (the path plus that single revisit); a path
        whose end has no successors at all is inserted as-is.  The
        resulting trie accepts exactly the graph's walks: children cover
        steps to unvisited resources, cycle-edges cover revisits, so a
        query can follow arbitrarily long walks through bounded structure.

        The trie is built in one pass of that DFS, with an explicit stack
        and so without a depth limit.  The node of a simple path is created
        (or reused) when the DFS enters the path, and each closing
        successor records its cycle-edge at once.  A frame counts the
        insertions through its node and the cycle arrivals at it; when the
        frame pops these are added to the node's statistics.  The result
        equals one ``insert_dg`` per closing insertion, also into a trie
        that already holds sequences.
        """
        if self.mode is not TrieMode.DG:
            raise TrieModeError("index_graph_dg requires a DG-mode trie")
        succs_of = {v: g.successors(v) for v in g.node_ids}
        bump = self.depth_stats.bump
        # frame: [node, successors still to enter (last first), insertions, arrivals]
        stack: list[list[Any]] = []
        positions: dict[str, int] = {}  # vertex on the current path -> its frame's index

        def enter(parent: ObjectNode, vertex: str) -> None:
            node = parent.children.get(vertex)
            if node is None:
                node = ObjectNode(vertex, parent.depth + 1, parent)
                parent.children[vertex] = node
            succs = succs_of[vertex]
            frame = [node, [], 0, 0]
            positions[vertex] = len(stack)
            stack.append(frame)
            if not succs:
                node.terminal_count += 1
                frame[2] = 1
                return
            opens = frame[1]
            cycles = node.cycles
            for w in reversed(succs):
                pos = positions.get(w)
                if pos is None:
                    opens.append(w)
                    continue
                target = stack[pos]
                edge = cycles.get(w)
                if edge is None:
                    cycles[w] = CycleEdge(target[0], 1)
                else:
                    edge.count += 1
                target[3] += 1
                frame[2] += 1

        total = 0
        for start in g.node_ids:
            enter(self.root, start)
            while stack:
                node, opens, ins, arrivals = stack[-1]
                if opens:
                    enter(node, opens.pop())
                    continue
                stack.pop()
                del positions[node.id]
                node.entry_count += ins
                node.freq += ins + arrivals
                node.terminal_count += arrivals
                bump(node.depth, node.id, ins + arrivals)
                if stack:
                    stack[-1][2] += ins
                else:
                    total += ins
        self.root.freq += total
        self.sequence_count += total

    # ---- inspection ----------------------------------------------------------

    def iter_nodes(self) -> Iterator[ObjectNode]:
        """All nodes in pre-order, children in label order; root first."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children_sorted()))

    @property
    def node_count(self) -> int:
        """Number of non-root nodes."""
        count = 0
        stack = [self.root]
        while stack:
            children = stack.pop().children
            count += len(children)
            stack.extend(children.values())
        return count

    def find(self, labels: Sequence[str]) -> ObjectNode | None:
        """Follow child edges only (no cycle-edges) from the root."""
        node = self.root
        for label in labels:
            node = node.children.get(label)  # type: ignore[assignment]
            if node is None:
                return None
        return node

    # ---- invariants ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify structure and statistics; raise ``CorruptDocument`` on failure.

        Checks, at every node: ``freq`` >= 1 below the root and
        ``terminal_count`` >= 0, parent/depth wiring, the conservation law,
        sibling probability sums, cycle-edge targets (same identifier, on
        the root path), arrivals (``freq - entry_count`` below the root)
        equal to the counts of the cycle-edges into the node, and that the
        per-depth table equals a recount.  In DG mode the identifiers along
        every root path must be unique.

        One explicit-stack pre-order walk, children unsorted, visits each
        node once and sums its child entries and cycle-edge counts once.
        The walk keeps the current root path (by depth) and, in DG mode, a
        map from identifier to the node on that path, so a cycle-edge's
        target is an ancestor iff the map holds it under the edge's label:
        one lookup, not a walk up the parent chain.
        """
        dag = self.mode is TrieMode.DAG
        recount: dict[int, dict[str, int]] = {}
        path: list[ObjectNode] = []  # path[d]: the node at walk depth d on the current root path
        on_path: dict[str, ObjectNode] = {}  # DG: identifier -> the node on the current root path
        arrived: dict[ObjectNode, int] = {}  # cycle-edge target -> the counts of the edges into it
        inner: list[ObjectNode] = []  # the nodes below the root, to match against ``arrived`` once it is complete
        stack: list[tuple[ObjectNode, int]] = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            while len(path) > d:
                dropped = path.pop()
                if not dag:
                    del on_path[dropped.id]  # type: ignore[arg-type]
            freq = node.freq
            if node.terminal_count < 0:
                raise CorruptDocument(f"node statistic out of range at {node!r}")
            if d:
                parent = path[-1]
                rid: str = node.id  # type: ignore[assignment]
                if freq < 1:
                    raise CorruptDocument(f"node statistic out of range at {node!r}")
                if node.parent is not parent or parent.children.get(rid) is not node:
                    raise CorruptDocument(f"broken parent link at {node!r}")
                if node.depth != parent.depth + 1:
                    raise CorruptDocument(f"bad depth at {node!r}")
                if not (0 <= node.entry_count <= freq):
                    raise CorruptDocument(f"entry count out of range at {node!r}")
                if not dag:
                    if rid in on_path:
                        raise CorruptDocument(f"identifier repeats on the root path at {node!r}")
                    on_path[rid] = node
                inner.append(node)
                level = recount.get(node.depth)
                if level is None:
                    level = recount[node.depth] = {}
                level[rid] = level.get(rid, 0) + freq
            path.append(node)
            children = node.children
            cycles = node.cycles
            descend_total = sum(map(_entry_count, children.values()))
            cycle_out_total = 0
            if cycles:
                if dag:
                    raise CorruptDocument(f"cycle-edges on DAG-mode node {node!r}")
                cycle_out_total = sum(map(_count, cycles.values()))
            if freq != node.terminal_count + descend_total + cycle_out_total:
                raise CorruptDocument(f"conservation violated at {node!r}")
            # given conservation, (freq - terminal - cycled) / freq is exactly this share
            if freq and descend_total / freq > 1.0 + 1e-12:
                raise CorruptDocument(f"sibling probabilities inconsistent at {node!r}")
            for label, edge in cycles.items():
                if label in children:
                    raise CorruptDocument(f"cycle-edge label shadows a child at {node!r}")
                if edge.target.id != label:
                    raise CorruptDocument(f"cycle-edge label mismatch at {node!r}")
                if edge.count < 1:
                    raise CorruptDocument(f"cycle-edge without traversals at {node!r}")
                if on_path.get(label) is not edge.target:
                    raise CorruptDocument(f"cycle-edge target not an ancestor at {node!r}")
                arrived[edge.target] = arrived.get(edge.target, 0) + edge.count
            stack.extend(zip(children.values(), repeat(d + 1)))
        for node in inner:  # DAG mode has no cycle-edges, so there every entry count is the freq
            if node.freq - node.entry_count != arrived.get(node, 0):
                raise CorruptDocument(f"cycle arrivals do not match the cycle-edges into {node!r}")
        if self.root.freq != self.sequence_count:
            raise CorruptDocument("root frequency does not match the sequence count")
        if {d: t for d, t in self.depth_stats.per_depth.items() if t} != recount:
            raise CorruptDocument("per-depth statistics do not match a recount")

    # ---- persistence ---------------------------------------------------------------

    def to_document(self) -> dict[str, Any]:
        """Columnar document tree; see ``save``.

        The header (``format_version``, ``mode``, ``n``, ``sequence_count``)
        is followed by parallel arrays, nodes breadth-first with children in
        label order.  ``child_count`` and ``cycle_out`` hold one entry per
        node, root included; ``id``, ``freq`` and ``terminal_count`` one per
        non-root node; ``cycle_to`` and ``cycle_count`` one per cycle-edge,
        by source node in that order and then by label.  Node indices count
        the root as 0.  The document is a canonical form: equal documents iff
        structurally equal tries.  Only what cannot be derived is stored:
        parents, depths, entry counts, the root's statistics, the per-depth
        table and ``prob`` are recomputed on load.
        """
        child_count: list[int] = []
        ids: list[str] = []
        freq: list[int] = []
        terminal_count: list[int] = []
        cycle_out: list[int] = []
        cycle_to: list[int] = []
        cycle_count: list[int] = []
        index: dict[int, int] = {}
        queue = [self.root]
        for node in queue:  # grows as it goes: level by level
            index[id(node)] = len(index)
            kids = node.children_sorted()
            child_count.append(len(kids))
            cycle_out.append(len(node.cycles))
            if node is not self.root:
                ids.append(node.id)  # type: ignore[arg-type]
                freq.append(node.freq)
                terminal_count.append(node.terminal_count)
            for label in sorted(node.cycles):
                edge = node.cycles[label]
                cycle_to.append(index[id(edge.target)])  # an ancestor, so already numbered
                cycle_count.append(edge.count)
            queue.extend(kids)
        return {
            "format_version": FORMAT_VERSION,
            "mode": self.mode.value,
            "n": self.n,
            "sequence_count": self.sequence_count,
            "child_count": child_count,
            "id": ids,
            "freq": freq,
            "terminal_count": terminal_count,
            "cycle_out": cycle_out,
            "cycle_to": cycle_to,
            "cycle_count": cycle_count,
        }

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "ObjectTrie":
        """Rebuild a trie from a document, validating every invariant.

        Whole columns are checked first, each in one pass in C: lengths,
        element types (exact ints, nonempty strings) and value ranges
        (``freq`` at least 1, ``terminal_count`` and the degree counts
        non-negative, every cycle-edge target a node other than the root,
        the counts summing to the node and cycle-edge totals).  Then one
        pass over the nodes hands each the next parent that has a child
        count left, derives its depth from the parent's, sets
        ``entry_count`` to ``freq`` and rebuilds the per-depth table; one
        pass over the nodes' cycle-edge counts takes each node's edges in
        turn and subtracts each edge's count from its target's
        ``entry_count``.  These passes check only what needs the structure:
        parents before children, and each node's children and cycle-edges
        in strictly increasing label order (so no duplicate child or
        cycle-edge).  Then ``check_invariants`` runs.
        """
        try:
            version = doc["format_version"]
        except (TypeError, KeyError):
            raise CorruptDocument("missing format_version header") from None
        if type(version) is not int or version != FORMAT_VERSION:
            raise FormatVersionMismatch(f"format_version {version!r}, supported: {FORMAT_VERSION}")
        try:
            mode = TrieMode(doc["mode"])
            n = doc["n"]
            sequence_count = doc["sequence_count"]
            node_columns = [doc["id"], doc["freq"], doc["terminal_count"]]
            degree_columns = [doc["child_count"], doc["cycle_out"]]
            cycle_columns = [doc["cycle_to"], doc["cycle_count"]]
        except (KeyError, ValueError, TypeError) as exc:
            raise CorruptDocument(f"malformed header: {exc}") from None
        if type(n) is not int or type(sequence_count) is not int or n < 0 or sequence_count < 0:
            raise CorruptDocument("header counts must be non-negative integers")
        if any(type(column) is not list for column in node_columns + degree_columns + cycle_columns):
            raise CorruptDocument("node and cycle-edge columns must be arrays")
        ids, freqs, terminal_counts = node_columns
        child_count, cycle_out = degree_columns
        targets, counts = cycle_columns
        if len({len(column) for column in node_columns}) != 1:
            raise CorruptDocument("node columns of unequal length")
        if len({len(column) for column in cycle_columns}) != 1:
            raise CorruptDocument("cycle-edge columns of unequal length")
        if {len(child_count), len(cycle_out)} != {len(ids) + 1}:
            raise CorruptDocument("degree columns of the wrong length")
        if any(set(map(type, column)) - {int} for column in (freqs, terminal_counts, *degree_columns, *cycle_columns)):
            raise CorruptDocument("non-integer statistic, count or node index")
        if set(map(type, ids)) - {str} or "" in ids:
            raise CorruptDocument("identifiers must be nonempty strings")
        if freqs and (min(freqs) < 1 or min(terminal_counts) < 0):
            raise CorruptDocument("node statistic out of range")
        if min(child_count) < 0 or min(cycle_out) < 0:
            raise CorruptDocument("negative child or cycle-edge count")
        if sum(child_count) != len(ids) or sum(cycle_out) != len(targets):
            raise CorruptDocument("degree counts do not sum to the node and cycle-edge totals")
        if targets:
            if min(targets) < 0:
                raise CorruptDocument("negative node index in a cycle-edge")
            if max(targets) > len(ids):
                raise CorruptDocument("cycle-edge node index past the end")
            if 0 in targets:
                raise CorruptDocument("cycle-edge into the root")

        trie = cls(mode, n)
        trie.sequence_count = sequence_count
        trie.root.freq = sequence_count
        bump = trie.depth_stats.bump
        nodes = [trie.root]
        parent_idx, left = 0, child_count[0]  # the node whose children come next, and how many are left
        for rid, freq, terminal_count in zip(ids, freqs, terminal_counts):
            while not left:
                parent_idx += 1
                if parent_idx == len(nodes):
                    raise CorruptDocument(f"parent not before node {len(nodes)}")
                left = child_count[parent_idx]
            left -= 1
            parent = nodes[parent_idx]
            if rid in parent.children:
                raise CorruptDocument(f"duplicate child {rid!r} under node {parent_idx}")
            if parent.children and rid < next(reversed(parent.children)):
                raise CorruptDocument(f"siblings out of label order: {rid!r} under node {parent_idx}")
            node = ObjectNode(rid, parent.depth + 1, parent)
            parent.children[rid] = node
            node.freq = node.entry_count = freq
            node.terminal_count = terminal_count
            bump(node.depth, rid, freq)
            nodes.append(node)
        edges = zip(targets, counts)
        for src_idx, out in enumerate(cycle_out):
            cycles = nodes[src_idx].cycles
            for dst_idx, count in islice(edges, out):
                dst = nodes[dst_idx]
                if dst.id in cycles:
                    raise CorruptDocument(f"duplicate cycle-edge from node {src_idx}")
                if cycles and dst.id < next(reversed(cycles)):
                    raise CorruptDocument(f"cycle-edges out of label order at node {src_idx}")
                cycles[dst.id] = CycleEdge(dst, count)  # type: ignore[index]
                dst.entry_count -= count
        trie.check_invariants()
        return trie


def walk_up_check_invariants(trie: ObjectTrie) -> None:
    """The original ``Trie.check_invariants``: a sorted pre-order walk that
    tests each cycle-edge target by walking the parent chain up from its
    source.

    Kept verbatim (as a function of the trie, with the removed
    ``TrieNode.cycle_out_total`` written out) as the reference for the
    one-walk checker.  It does not test that identifiers along a DG root
    path are unique; the one-walk checker does.
    """
    self = trie
    recount: dict[int, dict[str, int]] = {}
    for node in self.iter_nodes():
        if node is not self.root:
            if node.parent is None or node.parent.children.get(node.id) is not node:  # type: ignore[arg-type]
                raise CorruptDocument(f"broken parent link at {node!r}")
            if node.depth != node.parent.depth + 1:
                raise CorruptDocument(f"bad depth at {node!r}")
            if not (0 <= node.entry_count <= node.freq):
                raise CorruptDocument(f"entry count out of range at {node!r}")
            if self.mode is TrieMode.DAG and node.entry_count != node.freq:
                raise CorruptDocument(f"cycle arrivals on DAG-mode node {node!r}")
            level = recount.setdefault(node.depth, {})
            level[node.id] = level.get(node.id, 0) + node.freq  # type: ignore[index]
        if self.mode is TrieMode.DAG and node.cycles:
            raise CorruptDocument(f"cycle-edges on DAG-mode node {node!r}")
        cycle_out_total = sum(edge.count for edge in node.cycles.values())
        descend_total = sum(c.entry_count for c in node.children.values())
        if node.freq != node.terminal_count + descend_total + cycle_out_total:
            raise CorruptDocument(f"conservation violated at {node!r}")
        if node.freq:
            sibling_sum = sum(c.entry_count for c in node.children.values()) / node.freq
            expected = (node.freq - node.terminal_count - cycle_out_total) / node.freq
            if abs(sibling_sum - expected) > 1e-12 or sibling_sum > 1.0 + 1e-12:
                raise CorruptDocument(f"sibling probabilities inconsistent at {node!r}")
        for label, edge in node.cycles.items():
            if label in node.children:
                raise CorruptDocument(f"cycle-edge label shadows a child at {node!r}")
            if edge.target.id != label:
                raise CorruptDocument(f"cycle-edge label mismatch at {node!r}")
            if edge.count < 1:
                raise CorruptDocument(f"cycle-edge without traversals at {node!r}")
            anc = node
            while anc is not None and anc is not edge.target:
                anc = anc.parent
            if anc is None:
                raise CorruptDocument(f"cycle-edge target not an ancestor at {node!r}")
    if self.root.freq != self.sequence_count:
        raise CorruptDocument("root frequency does not match the sequence count")
    if {d: t for d, t in self.depth_stats.per_depth.items() if t} != recount:
        raise CorruptDocument("per-depth statistics do not match a recount")


def prefix_match_oracle(
    windows: Iterable[Sequence[str]],
    prefix: Sequence[str],
    wildcards: int,
    terminal: str,
) -> set[tuple[str, ...]]:
    """Brute-force wildcard matching over an indexed window list.

    A root-anchored label sequence of length L exists in a DAG trie iff
    some inserted window starts with it; matching is plain positional
    string comparison on those prefixes.
    """
    k = len(prefix)
    total = k + wildcards + 1
    out: set[tuple[str, ...]] = set()
    for window in windows:
        if len(window) < total:
            continue
        head = tuple(window[:total])
        if list(head[:k]) == list(prefix) and head[-1] == terminal:
            out.add(head)
    return out


def walk_conservation_report(trie: Trie) -> list[str]:
    """Independently recheck the per-node bookkeeping; returns violations.

    Recomputes, from raw fields only: freq == terminal + descents into
    children + cycle traversals out, and the sibling probability sum rule
    (== 1 exactly when nothing terminated or cycled away, < 1 otherwise),
    at 1e-12 float tolerance.
    """
    problems: list[str] = []
    stack: list[TrieNode] = [trie.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children.values())
        descents = sum(child.entry_count for child in node.children.values())
        cycles_out = sum(edge.count for edge in node.cycles.values())
        if node.freq != node.terminal_count + descents + cycles_out:
            problems.append(f"conservation broken at {node!r}")
        if node.freq > 0:
            sibling_sum = sum(child.entry_count / node.freq for child in node.children.values())
            if sibling_sum > 1.0 + 1e-12:
                problems.append(f"sibling probabilities exceed 1 at {node!r}")
            if node.terminal_count == 0 and cycles_out == 0:
                if abs(sibling_sum - 1.0) > 1e-12 and node.children:
                    problems.append(f"sibling probabilities do not sum to 1 at {node!r}")
            elif node.children and sibling_sum >= 1.0 - 1e-12 and (node.terminal_count or cycles_out):
                problems.append(f"sibling probabilities not strictly below 1 at {node!r}")
    return problems


def all_node_freqs(trie: Trie) -> dict[tuple[str, ...], tuple[int, int, int]]:
    """Map each node's root path to (freq, entry_count, terminal_count)."""
    out: dict[tuple[str, ...], tuple[int, int, int]] = {}

    def go(node: TrieNode, path: tuple[str, ...]) -> None:
        out[path] = (node.freq, node.entry_count, node.terminal_count)
        for child in node.children.values():
            go(child, path + (child.id,))

    go(trie.root, ())
    return out


# ---- the two-pattern N-Triples parser --------------------------------------------
#
# ``parse_ntriples`` as it was before one pattern matched every statement
# line, kept verbatim apart from the names as the reference for the
# parser's differential fuzz test in ``tests/test_ingest.py``.

_IRI = r"<([^<>\s]*)>"
_BLANK = r"(_:[^\s<>]+)"
_LITERAL = r'"(?:[^"\\]|\\.)*"(?:@[A-Za-z][A-Za-z0-9\-]*|\^\^<[^<>\s]*>)?'
_RESOURCE_LINE = re.compile(rf"^\s*(?:{_IRI}|{_BLANK})\s+{_IRI}\s+(?:{_IRI}|{_BLANK})\s*\.\s*$")
_LITERAL_LINE = re.compile(rf"^\s*(?:{_IRI}|{_BLANK})\s+{_IRI}\s+{_LITERAL}\s*\.\s*$")


def two_pattern_parse_ntriples(source: str | Iterable[str]) -> ParsedTriples:
    """Parse the supported N-Triples subset from a string or line iterable.

    Every input line is classified as a triple, comment, blank line, or
    skipped literal statement; anything else raises
    ``NTriplesSyntaxError`` with the line number.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    triples: list[tuple[str, str, str]] = []
    skipped = 0
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _RESOURCE_LINE.match(line)
        if match:
            subj = match.group(1) if match.group(1) is not None else match.group(2)
            obj = match.group(4) if match.group(4) is not None else match.group(5)
            triples.append((subj, match.group(3), obj))
            continue
        if _LITERAL_LINE.match(line):
            skipped += 1
            continue
        if not stripped.endswith("."):
            raise NTriplesSyntaxError(lineno, "missing terminal '.'")
        if line.count("<") != line.count(">"):
            raise NTriplesSyntaxError(lineno, "unbalanced angle brackets")
        raise NTriplesSyntaxError(lineno, f"malformed statement: {stripped[:80]!r}")
    return ParsedTriples(tuple(triples), skipped)


# ---- recursive reference queries ---------------------------------------------
#
# The original recursive walks of the query engine, kept verbatim (apart
# from their names) as the exactness reference for the iterative core:
# results must agree to the bit, order included.


def _step(node: TrieNode, label: str, follow_cycles: bool) -> tuple[TrieNode, float] | None:
    child = node.children.get(label)
    if child is not None:
        return child, child.entry_count / node.freq
    if follow_cycles:
        edge = node.cycles.get(label)
        if edge is not None:
            return edge.target, edge.count / node.freq
    return None


def _transitions(node: TrieNode, follow_cycles: bool) -> Iterator[tuple[str, TrieNode, float]]:
    """All outgoing steps of a node in label order, with step probabilities."""
    if follow_cycles and node.cycles:
        labels = sorted(set(node.children) | set(node.cycles))
    else:
        labels = sorted(node.children)
    for label in labels:
        child = node.children.get(label)
        if child is not None:
            yield label, child, child.entry_count / node.freq
        else:
            edge = node.cycles[label]
            yield label, edge.target, edge.count / node.freq


def _locate(trie: Trie, labels: Sequence[str]) -> tuple[TrieNode | None, int]:
    follow_cycles = trie.mode is TrieMode.DG
    node = trie.root
    visited = 0
    for label in labels:
        step = _step(node, label, follow_cycles)
        if step is None:
            return None, visited
        node = step[0]
        visited += 1
    return node, visited


def _check_strict(trie: Trie, strict: bool) -> None:
    if strict and trie.n != 0:
        raise ValueError("strict terminal matching applies to whole-sequence indexes only (n=0)")


def recursive_q1(trie: Trie, pattern: QueryPattern, strict: bool = False) -> list[PathMatch]:
    if pattern.terminal is None:
        raise ValueError("q1 patterns require a terminal identifier")
    _check_strict(trie, strict)
    labels = pattern.labels()
    follow_cycles = trie.mode is TrieMode.DG
    matches: list[PathMatch] = []
    path: list[str] = []

    def walk(node: TrieNode, i: int, likelihood: float) -> None:
        if i == len(labels):
            if strict and node.terminal_count == 0:
                return
            matches.append(PathMatch(tuple(path), node.freq, likelihood))
            return
        want = labels[i]
        if want is None:
            for label, nxt, p in _transitions(node, follow_cycles):
                path.append(label)
                walk(nxt, i + 1, likelihood * p)
                path.pop()
        else:
            step = _step(node, want, follow_cycles)
            if step is not None:
                path.append(want)
                walk(step[0], i + 1, likelihood * step[1])
                path.pop()

    walk(trie.root, 0, 1.0)
    matches.sort(key=lambda m: (-m.likelihood, m.path))
    return matches


def recursive_count_paths(trie: Trie, pattern: QueryPattern, strict: bool = False) -> int:
    if pattern.terminal is None:
        raise ValueError("q1 patterns require a terminal identifier")
    _check_strict(trie, strict)
    labels = pattern.labels()
    total = len(labels)
    follow_cycles = trie.mode is TrieMode.DG
    memo: dict[tuple[int, int], int] = {}

    def count(node: TrieNode, i: int) -> int:
        if i == total:
            if strict and node.terminal_count == 0:
                return 0
            return 1
        key = (id(node), i)
        cached = memo.get(key)
        if cached is not None:
            return cached
        want = labels[i]
        if want is None:
            result = 0
            for child in node.children.values():
                result += count(child, i + 1)
            if follow_cycles:
                for edge in node.cycles.values():
                    result += count(edge.target, i + 1)
        else:
            step = _step(node, want, follow_cycles)
            result = count(step[0], i + 1) if step is not None else 0
        memo[key] = result
        return result

    return count(trie.root, 0)


def recursive_q2_suggest(
    trie: Trie, prefix: Sequence[str], ahead: int, top: int
) -> list[tuple[tuple[str, ...], float]]:
    if not prefix:
        raise ValueError("suggestion prefix must be nonempty")
    if ahead < 1:
        raise ValueError(f"lookahead must be >= 1, got {ahead}")
    if top < 1:
        raise ValueError(f"result limit must be >= 1, got {top}")
    cursor, _ = _locate(trie, prefix)
    if cursor is None:
        return []
    follow_cycles = trie.mode is TrieMode.DG
    results: list[tuple[tuple[str, ...], float]] = []
    labels: list[str] = []

    def walk(node: TrieNode, left: int, likelihood: float) -> None:
        if left == 0:
            results.append((tuple(labels), likelihood))
            return
        for label, nxt, p in _transitions(node, follow_cycles):
            labels.append(label)
            walk(nxt, left - 1, likelihood * p)
            labels.pop()

    walk(cursor, ahead, 1.0)
    results.sort(key=lambda r: (-r[1], r[0]))
    return results[:top]
