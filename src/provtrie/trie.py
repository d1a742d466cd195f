"""The statistically enriched generalized prefix trie.

Sequences of resource identifiers are indexed by sharing prefixes in a
tree; every node carries occurrence statistics that are updated online
during insertion, so frequent-pattern and next-step queries need no
separate counting pass.

Two modes exist.  DAG mode is a plain prefix tree: each distinct prefix
is one node.  DG mode folds repetition back into the tree: when the next
symbol matches a node already on the current root-to-cursor path, a
cycle-edge from the cursor to that ancestor is recorded and the cursor
jumps back up.  Identifiers along a DG root path are therefore unique, so
a label from any node is one child or one cycle-edge, never both.

Per node: ``freq`` counts every traversal arrival (descents plus
cycle-edge arrivals), ``entry`` the descents, ``terminal`` the insertions
ending there.  Each arrival is followed by exactly one of descend / cycle
/ terminate: ``freq == terminal + sum(child entry) + sum(cycle counts
out)``.  A child's conditional probability is ``entry / parent freq``.
``depth_stats`` maps depth -> identifier -> cumulative frequency.

Layout: a node is an ``int``, the root is 0; parents are numbered before
their children (online: in creation order; loaded: in document order,
which ``to_document`` writes breadth-first, so that siblings sit side by
side).  Node data lives in parallel lists: ``id`` (root: None), ``freq``,
``entry``, ``terminal``, ``children`` (label -> child) and ``cycles``
(label -> edge); edge data in ``cycle_to`` and ``cycle_count``;
``sequence_count`` is the root's ``freq``.  No column holds a parent: a
node's parent is the node whose child map lists it.  The cyclic garbage
collector tracks none of these ints, strings and dicts, and no attribute
of a trie refers to the trie, so a dropped trie is freed at once.
``Trie.root`` is a read-only ``TrieNode`` view with ``id``, ``freq``,
``entry_count``, ``terminal_count``, ``children`` (label -> view) and
``cycles`` (label -> ``CycleStep``); views are made per access, so compare
them by ``index``.

Two forms share that numbering.  ``Trie`` is the builder: insertable, with
a dict per node.  ``FrozenTrie`` is the reader: the checked columns of a
document and the prefix sums of its degree columns, with no dict (a
static beside a dynamic tree, as in Navarro & Sadakane, ACM TALG 2014);
its ``children[k]`` and ``cycles[k]`` are label -> index views over node
k's ranges, which the queries read as they read the dicts.
``FrozenTrie.from_document`` holds every rule a document must pass; a
frozen trie sums its per-depth table, derived data, on the first read of
``depth_stats``, which ``query`` and ``suggest`` never make.
``Trie.from_document`` is that check plus a thaw into dicts, and
``Trie.check_invariants`` runs it on the builder's own document.

The checkers test ancestry as a pre-order interval: with
pre-order positions ``pos`` and subtree sizes, ``t`` is ``s`` or an
ancestor of ``s`` exactly when ``pos[t] <= pos[s] < pos[t] + size[t]``
(Dietz 1982; the region encoding of Zhang et al., SIGMOD 2001).

``save``/``load``/``load_frozen`` store each fact once, as parallel
columns in canonical breadth-first order, with per-node child and
cycle-edge counts in place of parent and source indices (LOUDS; see
``Trie.to_document``).

Concurrency: single writer, many readers.  Insertion needs exclusive
access; a trie that is not being mutated can be queried from any number
of threads.
"""
from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from functools import cached_property, partial
from itertools import accumulate, chain, compress, count, filterfalse, islice, repeat
from operator import add, ge, le, ne, sub
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .graph import GraphKind, ProvGraph

FORMAT_VERSION = 3


class TrieError(Exception):
    """Base class for trie construction and persistence failures."""


class EmptySequence(TrieError):
    """An empty sequence cannot be inserted."""


class TrieModeError(TrieError):
    """Operation invoked on a trie of the wrong mode."""


class FormatVersionMismatch(TrieError):
    """Persisted document written by an incompatible format version."""


class CorruptDocument(TrieError):
    """A structural or statistical invariant does not hold."""


TrieMode = GraphKind  # a trie's mode is the kind of graph it indexes: one enum, two names


def _column(name: str, doc: str) -> property:
    return property(lambda view: getattr(view.trie, name)[view.index], doc=doc)


class TrieNode:
    """Read-only view of node ``index`` of ``trie``, made per access from
    ``Trie.root`` down: two views of one node are equal in ``index``, not
    the same object.  The trie holds no view."""

    __slots__ = ("trie", "index")

    def __init__(self, trie: "Trie", index: int) -> None:
        self.trie = trie
        self.index = index

    id = _column("id", "Edge label from the parent (root: None).")
    freq = _column("freq", "Traversal arrivals: descents plus cycle-edge arrivals.")
    entry_count = _column("entry", "Descents from the parent.")
    terminal_count = _column("terminal", "Insertions that ended here.")

    @property
    def children(self) -> Mapping[str, "TrieNode"]:
        return _Labels(self.trie.children[self.index], partial(TrieNode, self.trie))

    @property
    def cycles(self) -> Mapping[str, "CycleStep"]:
        trie = self.trie
        return _Labels(
            trie.cycles[self.index], lambda e: CycleStep(TrieNode(trie, trie.cycle_to[e]), trie.cycle_count[e])
        )


class _Labels(Mapping):
    """Label -> view, read live from one node's child or cycle-edge map."""

    __slots__ = ("_indices", "_view")

    def __init__(self, indices: dict[str, int], view: Callable[[int], Any]) -> None:
        self._indices = indices
        self._view = view

    def __getitem__(self, label: str) -> Any:
        return self._view(self._indices[label])

    def __iter__(self) -> Iterator[str]:
        return iter(self._indices)

    def __len__(self) -> int:
        return len(self._indices)


class CycleStep(NamedTuple):
    """A cycle-edge as seen from its source: the ancestor it returns to, times taken."""

    target: TrieNode
    count: int


def _first(flags: Iterable[Any], start: int = 0) -> int | None:
    """Position of the first true flag, counting from ``start``; None if there is none."""
    return next(compress(count(start), flags), None)


def _parents(child_count: Iterable[int]) -> list[int]:
    """Each node's parent (the root's: -1) from the child counts of nodes
    numbered level by level: node k's children are the next child_count[k]."""
    return [-1, *chain.from_iterable(map(repeat, count(), child_count))]


def _repeats_on_a_root_path(ids: list[Any], order: list[int], pos: list[int], end: list[int]) -> int | None:
    """The first node, in pre-order, whose identifier an ancestor carries:
    subtrees nest, so it suffices to compare each node with the previous one
    in pre-order that has its identifier.  None if no root path repeats one."""
    last: dict[str, int] = {}  # identifier -> the latest node in pre-order carrying it
    for node in islice(order, 1, None):
        rid = ids[node]
        before = last.get(rid)
        if before is not None and pos[node] < end[before]:
            return node
        last[rid] = node
    return None


def _preorder(parent: list[int]) -> tuple[list[int], list[int], list[int]]:
    """Nodes in a pre-order (children in index order), each node's position
    in it, and one past the last position of its subtree: parents precede
    their children, so one pass up gives subtree sizes, one down positions."""
    total = len(parent)
    size = [1] * total
    for node in range(total - 1, 0, -1):
        size[parent[node]] += size[node]
    pos, free = [0] * total, [1] * total  # free: where a node's next child goes
    for node, up in zip(count(1), islice(parent, 1, None)):
        pos[node] = at = free[up]
        free[up] = at + size[node]
        free[node] = at + 1
    order = [0] * total
    for node, at in enumerate(pos):
        order[at] = node
    return order, pos, list(map(add, pos, size))


class Trie:
    """Prefix-trie index over identifier sequences, with online statistics."""

    def __init__(self, mode: TrieMode = TrieMode.DAG, n: int = 0) -> None:
        if n < 0:
            raise ValueError(f"window length must be >= 0, got {n}")
        self.mode = mode
        self.n = n
        self.id = [None]
        self.freq, self.entry, self.terminal = [0], [0], [0]
        self.children: list[dict[str, int]] = [{}]
        self.cycles: list[dict[str, int]] = [{}]
        self.cycle_to, self.cycle_count = [], []  # per cycle-edge: its target, times taken
        self.depth_stats: dict[int, dict[str, int]] = {}

    @property
    def root(self) -> TrieNode:
        """A read-only view of the root, new on every access."""
        return TrieNode(self, 0)

    @property
    def sequence_count(self) -> int:
        """Sequences inserted: every insertion arrives at the root once."""
        return self.freq[0]

    # ---- insertion ---------------------------------------------------------

    def _add_node(self, parent: int, rid: str) -> int:
        node = len(self.id)
        self.id.append(rid)
        self.freq.append(0)
        self.entry.append(0)
        self.terminal.append(0)
        self.children.append({})
        self.cycles.append({})
        self.children[parent][rid] = node
        return node

    def _take_cycle(self, source: int, label: str, target: int) -> None:
        """Count one traversal of a cycle-edge, recording the edge the first time."""
        edges = self.cycles[source]
        edge = edges.get(label)
        if edge is None:
            edges[label] = len(self.cycle_to)
            self.cycle_to.append(target)
            self.cycle_count.append(1)
        else:
            self.cycle_count[edge] += 1

    def insert(self, seq: Sequence[str]) -> None:
        """Insert one sequence (DAG mode).

        Walks down from the root consuming symbols, creating children as
        needed; bumps ``freq`` along the way and ``terminal`` at the final
        node.  Statistics are final after the call: no rebuild pass exists
        or is needed.
        """
        if self.mode is not TrieMode.DAG:
            raise TrieModeError("insert requires a DAG-mode trie; use insert_dg")
        self._insert(seq, fold=False)

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
        self._insert(seq, fold=True)

    def _insert(self, seq: Sequence[str], fold: bool) -> None:
        if isinstance(seq, str):  # list() would split it into one-character identifiers
            raise TypeError("insert takes a sequence of identifiers, not one string")
        symbols = list(seq)
        if not symbols:
            raise EmptySequence("cannot insert an empty sequence")
        if set(map(type, symbols)) - {str} or "" in symbols:  # the loader's rule, before any change
            raise ValueError("resource identifier must be a nonempty string")
        children, freq, entry, stats = self.children, self.freq, self.entry, self.depth_stats
        freq[0] += 1
        path = [0]  # the root path down to the cursor
        positions: dict[str, int] = {}  # when folding: identifier -> its place on the path
        for sym in symbols:
            pos = positions.get(sym) if fold else None
            if pos is None:
                child = children[path[-1]].get(sym)
                if child is None:
                    child = self._add_node(path[-1], sym)
                freq[child] += 1
                entry[child] += 1
                level = stats.setdefault(len(path), {})
                level[sym] = level.get(sym, 0) + 1
                if fold:
                    positions[sym] = len(path)
                path.append(child)
            else:
                self._take_cycle(path[-1], sym, path[pos])
                freq[path[pos]] += 1
                level = stats.setdefault(pos, {})
                level[sym] = level.get(sym, 0) + 1
                for dropped in path[pos + 1 :]:
                    del positions[self.id[dropped]]  # type: ignore[index]
                del path[pos + 1 :]
        self.terminal[path[-1]] += 1

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

        One explicit-stack pass of that DFS builds the trie: a path's node
        is created or reused on entry, a closing successor records its
        cycle-edge at once, and a frame's insertions and cycle arrivals join
        its node's statistics when it pops; as one ``insert_dg`` per closing
        insertion would, also into a trie that already holds sequences.
        """
        if self.mode is not TrieMode.DG:
            raise TrieModeError("index_graph_dg requires a DG-mode trie")
        succs_of = {v: g.successors(v) for v in g.node_ids}
        children, ids, freq, entry, terminal = self.children, self.id, self.freq, self.entry, self.terminal
        stats, take_cycle = self.depth_stats, self._take_cycle
        # frame: [node, successors still to enter (last first), insertions, arrivals]
        stack: list[list[Any]] = []
        positions: dict[str, int] = {}  # vertex on the current path -> its frame's index

        def enter(parent: int, vertex: str) -> None:
            node = children[parent].get(vertex)
            if node is None:
                node = self._add_node(parent, vertex)
            succs = succs_of[vertex]
            frame = [node, [], 0, 0]
            positions[vertex] = len(stack)
            stack.append(frame)
            if not succs:
                terminal[node] += 1
                frame[2] = 1
                return
            opens = frame[1]
            for w in reversed(succs):
                pos = positions.get(w)
                if pos is None:
                    opens.append(w)
                    continue
                target = stack[pos]
                take_cycle(node, w, target[0])
                target[3] += 1
                frame[2] += 1

        total = 0
        for start in g.node_ids:
            enter(0, start)
            while stack:
                node, opens, ins, arrivals = stack[-1]
                if opens:
                    enter(node, opens.pop())
                    continue
                stack.pop()
                del positions[ids[node]]  # type: ignore[arg-type]
                entry[node] += ins
                freq[node] += ins + arrivals
                terminal[node] += arrivals
                level = stats.setdefault(len(stack) + 1, {})  # the popped frame's depth
                level[ids[node]] = level.get(ids[node], 0) + ins + arrivals  # type: ignore[index]
                if stack:
                    stack[-1][2] += ins
                else:
                    total += ins
        freq[0] += total

    # ---- invariants ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify structure and statistics; raise ``CorruptDocument`` on failure.

        First the wiring that ``to_document`` trusts and no document can
        show: every non-root node sits in exactly one child map, under a node
        numbered before it and keyed by its own identifier; every cycle-edge
        in exactly one cycle map, keyed by the identifier of its target, a
        node of the trie.  Then every rule a document must pass:
        ``FrozenTrie.from_document`` on ``to_document()``.  Then the rule only
        a builder can break, as a document stores no ``entry``: a non-root
        node's arrivals (``freq - entry``) equal the counts of the
        cycle-edges into it.  Last, ``depth_stats`` against the frozen
        trie's recount.
        """
        ids, cycle_to = self.id, self.cycle_to
        nodes, edges = len(ids), len(cycle_to)
        placed = [0] * nodes  # child-map entries per node
        for up, kids in enumerate(self.children):
            for rid, node in kids.items():
                if not up < node < nodes or ids[node] != rid:
                    raise CorruptDocument(f"broken child link under node {up}: {rid!r}")
                placed[node] += 1
        at = _first(map((1).__ne__, islice(placed, 1, None)), 1)
        if at is not None:
            raise CorruptDocument(f"node {at} in {placed[at]} child maps, not one")
        placed = [0] * edges  # cycle-map entries per cycle-edge
        for source, out in enumerate(self.cycles):
            for label, edge in out.items():
                if not 0 <= edge < edges:
                    raise CorruptDocument(f"cycle-edge index {edge!r} outside the trie at node {source}")
                target = cycle_to[edge]
                if not 0 <= target < nodes or ids[target] != label:
                    raise CorruptDocument(f"broken cycle-edge at node {source}: {label!r}")
                placed[edge] += 1
        at = _first(map((1).__ne__, placed))
        if at is not None:
            raise CorruptDocument(f"cycle-edge {at} in {placed[at]} cycle maps, not one")
        frozen = FrozenTrie.from_document(self.to_document())
        arrived = [0] * nodes
        for target, taken in zip(cycle_to, self.cycle_count):
            arrived[target] += taken
        arrived[0] = self.freq[0] - self.entry[0]  # the root's freq counts insertions, not arrivals
        at = _first(map(ne, map(sub, self.freq, self.entry), arrived))
        if at is not None:
            raise CorruptDocument(f"cycle arrivals do not match the cycle-edges into node {at}")
        if {d: t for d, t in self.depth_stats.items() if t} != frozen.depth_stats:
            raise CorruptDocument("per-depth statistics do not match a recount")

    # ---- persistence ---------------------------------------------------------------

    def to_document(self) -> dict[str, Any]:
        """Columnar document tree: a header (``format_version``, ``mode``,
        ``n``, ``sequence_count``) and parallel arrays over the nodes
        breadth-first, children in label order, the root as node 0:
        ``child_count`` and ``cycle_out`` per node, ``id``, ``freq`` and
        ``terminal_count`` per non-root node, ``cycle_to`` and ``cycle_count``
        per cycle-edge, by source, then by label.  Node k's children are the
        next ``child_count[k]`` nodes, its cycle-edges the next ``cycle_out[k]``
        edges: the level-order degree sequence of LOUDS (Jacobson 1989).
        Equal documents iff structurally equal tries."""
        children, cycles = self.children, self.cycles
        order = [0]  # nodes in canonical order: level by level, children in label order
        edges: list[int] = []  # cycle-edges in canonical order
        for node in order:
            kids, out = children[node], cycles[node]
            if kids:
                order += map(kids.__getitem__, sorted(kids))
            if out:
                edges += map(out.__getitem__, sorted(out))
        renumber = [0] * len(order)
        for k, node in enumerate(order):
            renumber[node] = k
        nodes = order[1:]
        return {
            "format_version": FORMAT_VERSION,
            "mode": self.mode.value,
            "n": self.n,
            "sequence_count": self.sequence_count,
            "child_count": list(map(len, map(children.__getitem__, order))),
            "id": list(map(self.id.__getitem__, nodes)),
            "freq": list(map(self.freq.__getitem__, nodes)),
            "terminal_count": list(map(self.terminal.__getitem__, nodes)),
            "cycle_out": list(map(len, map(cycles.__getitem__, order))),
            "cycle_to": list(map(renumber.__getitem__, map(self.cycle_to.__getitem__, edges))),
            "cycle_count": list(map(self.cycle_count.__getitem__, edges)),
        }

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "Trie":
        """Rebuild an insertable trie from a document: ``FrozenTrie.from_document``
        checks it, then a thaw builds the dicts.  Node k of the document is
        node k of the trie.  The thaw adopts the frozen trie's node columns,
        ``entry`` and per-depth table (summed by that read), copies its
        cycle-edge columns (the document's own), expands the child counts
        into parents, and fills the child and cycle-edge maps in one pass
        each; it checks nothing again."""
        frozen = FrozenTrie.from_document(doc)
        trie = cls(frozen.mode, frozen.n)
        first, efirst = frozen.first, frozen.efirst
        parent = _parents(map(sub, islice(first, 1, None), first))
        trie.id = labels = frozen.id
        trie.freq, trie.entry, trie.terminal = frozen.freq, frozen.entry, frozen.terminal
        trie.cycle_to = cycle_to = frozen.cycle_to.copy()
        trie.cycle_count = frozen.cycle_count.copy()
        trie.depth_stats = frozen.depth_stats
        trie.children = children = [{} for _ in parent]
        for node, up, rid in islice(zip(count(), parent, labels), 1, None):
            children[up][rid] = node  # type: ignore[index]
        trie.cycles = cycles = [{} for _ in parent]
        if cycle_to:
            out = list(map(sub, islice(efirst, 1, None), efirst))
            # each source repeated for its edges, skipping nodes without any
            sources = chain.from_iterable(map(repeat, compress(count(), out), filter(None, out)))
            for edge, target, source in zip(count(), cycle_to, sources):
                cycles[source][labels[target]] = edge  # type: ignore[index]
        return trie


class _Children:
    """Label -> child of one node of a ``FrozenTrie``: the children are the
    nodes ``lo:hi``, their labels ``id[lo:hi]`` strictly increasing.  Reads
    as the dict trie's child map does for a query: ``get``, ``items``,
    ``values`` and truthiness."""

    __slots__ = ("_id", "_lo", "_hi")

    def __init__(self, ids: list[Any], lo: int, hi: int) -> None:
        self._id, self._lo, self._hi = ids, lo, hi

    def __bool__(self) -> bool:
        return self._lo < self._hi

    def values(self) -> range:
        return range(self._lo, self._hi)

    def items(self) -> Iterator[tuple[str, int]]:
        return zip(self._id[self._lo : self._hi], range(self._lo, self._hi))

    def get(self, label: str, default: Any = None) -> Any:
        ids, hi = self._id, self._hi
        at = bisect_left(ids, label, self._lo, hi)
        return at if at < hi and ids[at] == label else default


class _CycleEdges(_Children):
    """Label -> cycle-edge of one node of a ``FrozenTrie``: the edges ``lo:hi``,
    edge e labelled ``id[cycle_to[e]]``, labels strictly increasing."""

    __slots__ = ("_to",)

    def __init__(self, ids: list[Any], to: list[int], lo: int, hi: int) -> None:
        self._id, self._to, self._lo, self._hi = ids, to, lo, hi

    def items(self) -> Iterator[tuple[str, int]]:
        return zip(map(self._id.__getitem__, self._to[self._lo : self._hi]), range(self._lo, self._hi))

    def get(self, label: str, default: Any = None) -> Any:
        ids, to, hi = self._id, self._to, self._hi
        at = bisect_left(to, label, self._lo, hi, key=ids.__getitem__)
        return at if at < hi and ids[to[at]] == label else default


class _Ranges:
    """``ranges[k]``: ``view(first[k], first[k + 1])``, node k's range of a column."""

    __slots__ = ("_view", "_first")

    def __init__(self, view: Callable[[int, int], _Children], first: list[int]) -> None:
        self._view, self._first = view, first

    def __getitem__(self, node: int) -> _Children:
        return self._view(self._first[node], self._first[node + 1])


class FrozenTrie:
    """Read-only trie over the columns of a checked format 3 document;
    build one with ``from_document`` or ``load_frozen``.

    Node k is node k of the document, the root 0; ``id`` (root: None),
    ``freq``, ``entry`` and ``terminal`` hold one entry per node.  Node k's
    children are the nodes ``first[k]:first[k + 1]`` and its cycle-edges the
    edges ``efirst[k]:efirst[k + 1]``: prefix sums of the degree columns,
    LOUDS offsets (Jacobson 1989).  ``children[k]`` and ``cycles[k]`` are
    label -> index views over those ranges, a labelled step a ``bisect``,
    so the queries in ``query`` run on it as on a ``Trie``.
    """

    def __init__(
        self,
        mode: TrieMode,
        n: int,
        id: list[Any],
        freq: list[int],
        entry: list[int],
        terminal: list[int],
        first: list[int],
        efirst: list[int],
        cycle_to: list[int],
        cycle_count: list[int],
    ) -> None:
        self.mode, self.n = mode, n
        self.id, self.freq, self.entry, self.terminal = id, freq, entry, terminal
        self.first, self.efirst, self.cycle_to, self.cycle_count = first, efirst, cycle_to, cycle_count
        self.children = _Ranges(partial(_Children, id), first)
        self.cycles = _Ranges(partial(_CycleEdges, id, cycle_to), efirst)

    @cached_property
    def depth_stats(self) -> dict[int, dict[str, int]]:
        """Depth -> identifier -> cumulative ``freq``, summed level by level
        on first access (the queries that list or count paths never read
        it): if level d is the nodes ``lo:hi``, level d + 1 is
        ``first[lo]:first[hi]``."""
        labels, freq, first = self.id, self.freq, self.first
        depth_stats: dict[int, dict[str, int]] = {}
        lo, hi = 1, first[1]
        while lo < hi:  # the nodes lo:hi are level len(depth_stats) + 1
            level = depth_stats[len(depth_stats) + 1] = {}
            for rid, arrivals in zip(labels[lo:hi], freq[lo:hi]):
                level[rid] = level.get(rid, 0) + arrivals
            lo, hi = hi, first[hi]
        return depth_stats

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "FrozenTrie":
        """Check a document and keep its columns: a malformed one raises
        ``CorruptDocument`` (another format ``FormatVersionMismatch``), and
        one that loads thaws into a trie that ``Trie.check_invariants`` passes.

        Shape first, as the loader always checked it: header and column
        types, ``n`` >= 0, column lengths, exact ints, nonempty string
        identifiers, degree counts >= 0 summing to the node and cycle-edge
        counts, parents before children.  Then the rules, over whole
        columns: non-root ``freq`` >= 1 and ``terminal`` >= 0; siblings in
        strictly increasing label order; cycle-edge targets below the root
        and counts >= 1; no cycle-edge in DAG mode.  In DG mode one Python
        pass over the cycle-edges tests each target as an ancestor-or-self
        of its source on ``_preorder``'s intervals, requires each source's
        labels strictly increasing, subtracts the arrivals from ``entry``
        and sums each source's outflow.  Then ``entry`` >= 0, conservation
        (descents as differences of a prefix sum of ``entry`` at the child
        offsets) and, in DG mode, no identifier repeated on a root path.
        The per-depth table is derived data, not a rule: ``depth_stats``
        sums it on first access.

        The format implies the rules a builder's dicts could still break: an
        edge's label is its target's identifier by definition, ``entry`` is
        derived from the arrivals, label order leaves no duplicate child or
        cycle-edge, and a cycle-edge labelled like a child of its source
        would repeat that label on the child's root path, since the edge
        returns to an ancestor-or-self of the source.  The builder's wiring
        and its own ``entry`` are ``Trie.check_invariants``'s to check.
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
            child_count, cycle_out = degree_columns = [doc["child_count"], doc["cycle_out"]]
            cycle_columns = [doc["cycle_to"], doc["cycle_count"]]
        except (KeyError, ValueError, TypeError) as exc:
            raise CorruptDocument(f"malformed header: {exc}") from None
        if type(n) is not int or type(sequence_count) is not int or n < 0:
            raise CorruptDocument("header counts must be integers, and n non-negative")
        if any(type(column) is not list for column in node_columns + degree_columns + cycle_columns):
            raise CorruptDocument("node and cycle-edge columns must be arrays")
        ids, freqs, terminal_counts = node_columns
        targets, counts = cycle_columns
        if len({len(column) for column in node_columns}) != 1:
            raise CorruptDocument("node columns of unequal length")
        if len({len(column) for column in cycle_columns}) != 1:
            raise CorruptDocument("cycle-edge columns of unequal length")
        if len(child_count) != len(ids) + 1 or len(cycle_out) != len(ids) + 1:
            raise CorruptDocument("degree columns need one count per node, the root included")
        if any(set(map(type, column)) - {int} for column in (freqs, terminal_counts, *degree_columns, *cycle_columns)):
            raise CorruptDocument("non-integer statistic, count or node index")
        if set(map(type, ids)) - {str} or "" in ids:
            raise CorruptDocument("identifiers must be nonempty strings")
        if min(child_count) < 0 or min(cycle_out) < 0:
            raise CorruptDocument("negative child or cycle-edge count")
        if sum(child_count) != len(ids) or sum(cycle_out) != len(targets):
            raise CorruptDocument("child or cycle-edge counts do not sum to the node or cycle-edge count")
        first = list(accumulate(child_count, initial=1))  # node k's children: first[k]:first[k + 1]
        at = _first(map(le, islice(first, 1, len(child_count)), count(1)), 1)  # node k's parent is below k
        if at is not None:
            raise CorruptDocument(f"parent not before node {at}")

        # a caller that hands the document over (load_frozen does) gets the columns it no longer needs freed
        del doc, node_columns, degree_columns, cycle_columns
        labels, freq, terminal = [None, *ids], [sequence_count, *freqs], [0, *terminal_counts]
        entry = [0, *freqs]
        del ids, freqs, terminal_counts
        nodes, dag = len(labels), mode is TrieMode.DAG
        if min(islice(freq, 1, None), default=1) < 1 or min(terminal) < 0:
            raise CorruptDocument("node statistic out of range")
        # a node j with j - 1 as its sibling starts no child range; the others must sort after j - 1
        unsorted = compress(count(2), map(ge, islice(labels, 1, None), islice(labels, 2, None)))
        at = next(filterfalse(set(first).__contains__, unsorted), None)
        if at is not None:
            up = bisect_right(first, at) - 1
            if labels[at] == labels[at - 1]:
                raise CorruptDocument(f"duplicate child at node {at - 1}: {labels[at]!r} under node {up}")
            raise CorruptDocument(f"siblings out of label order at node {at}: {labels[at]!r} under node {up}")
        if targets:
            if dag:
                raise CorruptDocument(f"cycle-edges on DAG-mode node {_first(cycle_out)}")
            if min(targets) < 1:
                raise CorruptDocument(f"cycle-edge {targets.index(min(targets))} into the root or a negative node index")
            if min(counts) < 1:
                raise CorruptDocument(f"cycle-edge {counts.index(min(counts))} without traversals")
        cycled: Iterable[int] = repeat(0)  # DAG mode: no outflow
        if not dag:
            order, pos, end = _preorder(_parents(child_count))
            cycled = [0] * nodes
            edges = zip(targets, counts)
            try:  # a target past the last node raises IndexError
                for source, out in zip(compress(count(), cycle_out), filter(None, cycle_out)):
                    here, before, outflow = pos[source], "", 0  # every label sorts after ""
                    for target, taken in islice(edges, out):
                        if not pos[target] <= here < end[target]:
                            raise CorruptDocument(f"cycle-edge target not an ancestor at node {source}")
                        label = labels[target]
                        if label <= before:
                            what = "duplicate cycle-edge" if label == before else "cycle-edges out of label order"
                            raise CorruptDocument(f"{what} at node {source}: {label!r}")
                        before = label
                        entry[target] -= taken
                        outflow += taken
                    cycled[source] = outflow
            except IndexError:
                raise CorruptDocument("cycle-edge target outside the trie") from None
        efirst = list(accumulate(cycle_out, initial=0))  # node k's cycle-edges: efirst[k]:efirst[k + 1]
        del child_count, cycle_out
        if min(entry) < 0:
            raise CorruptDocument(f"entry count out of range at node {entry.index(min(entry))}")
        below = list(map(list(accumulate(entry, initial=0)).__getitem__, first))  # entries before each child range
        descended = map(sub, islice(below, 1, None), below)
        at = _first(map(ne, freq, map(add, map(add, terminal, descended), cycled)))
        if at is not None:
            raise CorruptDocument(f"conservation violated at node {at}")
        del below, cycled
        if not dag:
            at = _repeats_on_a_root_path(labels, order, pos, end)
            if at is not None:
                raise CorruptDocument(f"identifier repeats on the root path at node {at}")
            del order, pos, end
        return cls(mode, n, labels, freq, entry, terminal, first, efirst, targets, counts)


def save(trie: Trie, sink: str | os.PathLike[str] | IO[str]) -> int:
    """Write ``trie`` to a path or text stream as a single JSON document.

    The text is ``json.dumps(trie.to_document(), separators=(",", ":"))``.
    A path is written atomically: the document goes to a new temporary file
    in the target's directory (mode ``0o666`` less the umask, applied by the
    kernel as for ``open``) that replaces the target only once it is
    complete, so a failed save leaves an existing file as it was.  Returns
    the number of non-root nodes written.
    """
    if hasattr(sink, "write"):
        doc = trie.to_document()
        sink.write(json.dumps(doc, separators=(",", ":")))  # type: ignore[union-attr]
        return len(doc["id"])
    target = os.fspath(sink)
    tmp_name = os.path.join(os.path.dirname(target), f".provtrie-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                nodes = save(trie, fh)
            os.replace(tmp_name, target)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError as exc:  # name the file the caller asked for, not the temporary one
        if exc.filename != tmp_name:
            raise
        raise OSError(exc.errno, exc.strerror, target) from None
    return nodes


def _read(source: str | os.PathLike[str] | IO[str]) -> dict[str, Any]:
    try:  # text that is not UTF-8 is no document either
        if hasattr(source, "read"):
            text = source.read()  # type: ignore[union-attr]
        else:
            with open(source, "r", encoding="utf-8") as fh:  # type: ignore[arg-type]
                text = fh.read()
        doc = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptDocument(f"not a valid document: {exc}") from None
    if not isinstance(doc, dict):
        raise CorruptDocument("document root must be an object")
    return doc


def load_frozen(source: str | os.PathLike[str] | IO[str]) -> FrozenTrie:
    """Read a read-only trie from a path or text stream written by ``save``."""
    # no local keeps the text or the document: the loader frees the columns as it goes
    return FrozenTrie.from_document(_read(source))


def load(source: str | os.PathLike[str] | IO[str]) -> Trie:
    """Read an insertable trie from a path or text stream written by ``save``."""
    # no local keeps the text or the document: the loader frees the columns as it goes
    return Trie.from_document(_read(source))
