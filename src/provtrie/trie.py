"""The statistically enriched generalized prefix trie: the builder.

Sequences of resource identifiers are indexed by sharing prefixes in a
tree; every node carries occurrence statistics that are updated online
during insertion, so frequent-pattern and next-step queries need no
separate counting pass.

Two modes exist.  DAG mode is a plain prefix tree: each distinct prefix
is one node.  DG mode folds repetition back into the tree: when the next
symbol matches a node already on the current root-to-cursor path, a
cycle-edge from the cursor to that ancestor is recorded and the cursor
jumps back up.  Identifiers along a DG root path are therefore unique, so
a label from any node is one child or one cycle-edge, never both.  The
mode alone decides how ``insert`` and ``index_graph`` take a trace.

A DG graph's trie has one node per simple path but is built over DFS
states: the subtree under a path depends only on the vertices it visits,
its last vertex and the traces that hold it.  ``_DFSStates`` makes one
class per state in one memoized pass, and one breadth-first unfold of its
classes has two consumers: ``index_graph``, which adds each node by
get-or-create and so merges into any trie, and ``dg_document``, which
hands ``encode`` the seven columns of the traces' document with no trie
between (``provtrie index --mode dg`` writes that one).

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
node's parent is the node whose child map lists it.  Every map iterates
in label order except at the nodes in ``_unsorted``: a new key that
sorts before its map's last key marks the map's node, one comparison per
new node or cycle-edge, and ``to_document`` sorts only the marked maps (a
load fills each map in label order and marks none).  The cyclic garbage
collector tracks none of these ints, strings and dicts, and no attribute
of a trie refers to the trie, so a dropped trie is freed at once.
``Trie.root`` is a read-only ``TrieNode`` view with ``id``, ``freq``,
``entry_count``, ``terminal_count``, ``children`` (label -> view) and
``cycles`` (label -> ``CycleStep``); views are made per access, so compare
them by ``index``.

The reader side lives in ``document``: the format, ``FrozenTrie`` (the
same numbering over a document's checked columns, with no dict) and
every rule a document must pass.  This module imports it and not the
other way round, and re-exports the reader's names.  ``Trie.to_document``
is ``document.encode``, the one encoder, over the builder's counts and
columns, and ``write_document`` the one file writer, atomic for a path,
that ``save`` calls; ``Trie.from_document`` is ``FrozenTrie.from_document``
plus a thaw into lists and dicts; ``Trie.check_invariants`` checks the
builder's wiring and runs the column checker on its own columns, packed
into arrays as a load packs them, with no encoding between.

Concurrency: single writer, many readers.  Insertion needs exclusive
access; a trie that is not being mutated can be queried from any number
of threads.
"""
from __future__ import annotations

import json
import os
from collections.abc import Mapping
from functools import partial
from itertools import chain, compress, count, islice, repeat
from operator import add, ne, sub
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .canonical import ngrams, sequence
from .document import (  # the reader's names, re-exported: provtrie.trie.FrozenTrie and the rest still import
    CorruptDocument,
    FormatVersionMismatch,
    FrozenTrie,
    TrieError,
    TrieMode,
    _first,
    _packed,
    _parents,
    _read,
    encode,
    load_frozen,
)
from .graph import ProvGraph


class EmptySequence(TrieError):
    """An empty sequence cannot be inserted."""


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


class Trie:
    """Prefix-trie index over identifier sequences, with online statistics."""

    def __init__(self, mode: TrieMode = TrieMode.DAG, n: int = 0) -> None:
        if n < 0:
            raise ValueError(f"window length must be >= 0, got {n}")
        if n and mode is TrieMode.DG:
            raise ValueError(f"a DG trie indexes whole traces: window length must be 0, got {n}")
        self.mode = mode
        self.n = n
        self.id = [None]
        self.freq, self.entry, self.terminal = [0], [0], [0]
        self.children: list[dict[str, int]] = [{}]
        self.cycles: list[dict[str, int]] = [{}]
        self.cycle_to, self.cycle_count = [], []  # per cycle-edge: its target, times taken
        self.depth_stats: dict[int, dict[str, int]] = {}
        self._unsorted: set[int] = set()  # nodes whose child or cycle-edge map may be out of label order

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
        kids = self.children[parent]
        if kids and rid < next(reversed(kids)):  # the map's last key is its largest until marked
            self._unsorted.add(parent)
        node = kids[rid] = len(self.id)
        self.id.append(rid)
        self.freq.append(0)
        self.entry.append(0)
        self.terminal.append(0)
        self.children.append({})
        self.cycles.append({})
        return node

    def _take_cycle(self, source: int, label: str, target: int) -> None:
        """Count one traversal of a cycle-edge, recording the edge the first time."""
        edges = self.cycles[source]
        edge = edges.get(label)
        if edge is None:
            if edges and label < next(reversed(edges)):
                self._unsorted.add(source)
            edges[label] = len(self.cycle_to)
            self.cycle_to.append(target)
            self.cycle_count.append(1)
        else:
            self.cycle_count[edge] += 1

    def insert(self, seq: Sequence[str]) -> None:
        """Insert one sequence, folding repeats into cycle-edges in DG mode.

        Walks down from the root consuming symbols, creating children as
        needed; bumps ``freq`` along the way and ``terminal`` at the final
        node.  In DG mode, when the next symbol already labels a node on
        the current root-to-cursor path, the cursor takes (and idempotently
        records) a cycle-edge back to that ancestor instead of creating a
        duplicate node; the ancestor's ``freq`` absorbs the arrival and the
        path truncates to it, so a sequence without repeats goes in as in
        DAG mode.  Statistics are final after the call: no rebuild pass
        exists or is needed.
        """
        if isinstance(seq, str):  # list() would split it into one-character identifiers
            raise TypeError("insert takes a sequence of identifiers, not one string")
        symbols = list(seq)
        if not symbols:
            raise EmptySequence("cannot insert an empty sequence")
        if set(map(type, symbols)) - {str} or "" in symbols:  # the loader's rule, before any change
            raise ValueError("resource identifier must be a nonempty string")
        fold = self.mode is TrieMode.DG
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

    def index_graph(self, g: ProvGraph) -> None:
        """Index one trace as the trie's mode does: DAG mode inserts the
        windows of the graph's canonical sequence, of length ``n`` (the
        whole sequence when ``n`` is 0); DG mode indexes every bounded walk.
        An empty graph indexes nothing.

        The DG trie of a graph holds one node per simple path, from every
        vertex, over sorted successors.  At every point along a path, each
        successor that leads back onto the path contributes one closing
        insertion (the path plus that single revisit); a path whose end has
        no successors at all is inserted as-is.  The trie accepts exactly
        the graph's walks: children cover steps to unvisited resources,
        cycle-edges cover revisits, so a query can follow arbitrarily long
        walks through bounded structure.

        ``_DFSStates`` builds it as a table of classes, one per DFS state;
        its breadth-first unfold adds each node by get-or-create, so the
        result equals one ``insert`` per closing insertion, also into a trie
        that already holds sequences.  Into an empty trie every map fills in
        label order; a build into a non-empty trie may mark some.
        """
        if self.mode is TrieMode.DAG:
            items = sequence(g).items
            if items:
                for window in ngrams(items, self.n or len(items)).windows:
                    self.insert(window)
            return
        states = _DFSStates([g])
        labels, children, cycles, ids, freq, entry, terminal = (
            states.labels, self.children, self.cycles, self.id, self.freq, self.entry, self.terminal
        )
        cycle_to, cycle_count, unsorted = self.cycle_to, self.cycle_count, self._unsorted
        where = [0]  # the unfold's node numbers -> this trie's nodes
        ups: Iterable[int] = repeat(0)  # the parents of a depth's nodes, as this trie's nodes
        for depth, (classes, level, targets) in enumerate(states.unfold(), 1):
            stats = self.depth_stats.setdefault(depth, {})
            vertex, arrivals, descents, ends, outs, takens = (
                classes.vertex, classes.freq, classes.entry, classes.terminal, classes.out, classes.taken
            )
            lo, at = len(where), 0  # at: the first target of the node's cycle-edges
            for c, up in zip(level, ups):
                rid, out, taken = labels[vertex[c]], outs[c], takens[c]
                kids = children[up]
                node = kids.get(rid)
                if node is None:  # _add_node, inlined; a new node's edges come in label order
                    if kids and rid < next(reversed(kids)):
                        unsorted.add(up)
                    node = kids[rid] = len(ids)
                    ids.append(rid)
                    freq.append(arrivals[c])
                    entry.append(descents[c])
                    terminal.append(ends[c])
                    children.append({})
                    where.append(node)  # before its edges: a self-loop returns to the node
                    if out:
                        cycles.append(dict(zip(map(labels.__getitem__, out), count(len(cycle_to)))))
                        cycle_to += map(where.__getitem__, targets[at : at + len(out)])
                        cycle_count += taken
                    else:
                        cycles.append({})
                else:
                    freq[node] += arrivals[c]
                    entry[node] += descents[c]
                    terminal[node] += ends[c]
                    where.append(node)
                    edges = cycles[node]
                    for label, times, target in zip(map(labels.__getitem__, out), taken, targets[at : at + len(out)]):
                        edge = edges.get(label)
                        if edge is None:  # _take_cycle, inlined, for ``times`` traversals
                            if edges and label < next(reversed(edges)):
                                unsorted.add(node)
                            edges[label] = len(cycle_to)
                            cycle_to.append(where[target])
                            cycle_count.append(times)
                        else:
                            cycle_count[edge] += times
                at += len(out)
                stats[rid] = stats.get(rid, 0) + arrivals[c]
            ups = chain.from_iterable(map(repeat, where[lo:], map(len, map(classes.kids.__getitem__, level))))
        self.freq[0] += states.sequence_count

    # the names the benchmark harness (perfbench/pipeline.py) still calls
    insert_dg = insert
    index_graph_dg = index_graph

    # ---- invariants ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify structure and statistics; raise ``CorruptDocument`` on failure.

        First the wiring that ``to_document`` trusts and no document can
        show: every non-root node sits in exactly one child map, under a node
        numbered before it and keyed by its own identifier; every cycle-edge
        in exactly one cycle map, keyed by the identifier of its target, a
        node of the trie.  Then the domain of the document's columns, which
        only a builder's lists can leave: every count >= 0 and below 2**64.
        Then every rule a document must pass: the column checker on the
        columns ``to_document`` would write, as the same unsigned arrays a
        load hands it, with no encoding between.  Then the
        rule only a builder can break, as a document stores no ``entry``: a
        non-root node's arrivals (``freq - entry``) equal the counts of the
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
        labels, columns = self._columns()
        try:  # the arrays a load hands the checker, which hold no negative count
            columns = list(map(_packed, columns))
        except OverflowError:
            raise CorruptDocument("node statistic out of range: a count below 0 or past 8 bytes") from None
        frozen = FrozenTrie._from_columns(self.mode, self.n, self.sequence_count, labels, *columns)
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

    def _columns(self) -> tuple[list[str], Iterator[Iterator[int]]]:
        """The document's label table and its seven columns, in
        ``document.COLUMNS`` order, each an iterator made when the one
        before it has been taken: nodes breadth-first, children in label
        order, the root as node 0; cycle-edges by source, then by label.

        Every map already iterates in label order but a marked node's
        (``_unsorted``), which is read through a sorted copy of its values;
        no map is sorted in place and no other is copied."""
        children, cycles, unsorted = self.children, self.cycles, self._unsorted
        kids_of = {node: list(map(children[node].__getitem__, sorted(children[node]))) for node in unsorted}
        order = [0]  # nodes in canonical order: level by level, children in label order
        level = order
        while level:
            kids = map(kids_of.get, level, map(dict.values, map(children.__getitem__, level)))
            level = list(chain.from_iterable(kids))
            order += level
        edges: list[int] = []  # cycle-edges in canonical order
        if self.cycle_to:
            out_of = {node: list(map(cycles[node].__getitem__, sorted(cycles[node]))) for node in unsorted}
            edges = list(chain.from_iterable(map(out_of.get, order, map(dict.values, map(cycles.__getitem__, order)))))
        labels = sorted(set(islice(self.id, 1, None)))
        index = dict(zip(labels, count()))

        def columns() -> Iterator[Iterator[int]]:
            yield map(len, map(children.__getitem__, order))
            yield map(len, map(cycles.__getitem__, order))
            yield map(index.__getitem__, map(self.id.__getitem__, islice(order, 1, None)))
            yield map(self.freq.__getitem__, islice(order, 1, None))
            yield map(self.terminal.__getitem__, islice(order, 1, None))
            renumber = [0] * len(order)
            for k, node in enumerate(order):
                renumber[node] = k
            yield map(renumber.__getitem__, map(self.cycle_to.__getitem__, edges))
            yield map(self.cycle_count.__getitem__, edges)

        return labels, columns()

    def to_document(self) -> dict[str, Any]:
        """The trie as a format 4 document: ``document.encode`` over the
        builder's node and cycle-edge counts and ``_columns``.  Equal
        documents iff structurally equal tries."""
        return encode(self.mode, self.n, self.sequence_count, len(self.id) - 1, len(self.cycle_to), *self._columns())

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "Trie":
        """Rebuild an insertable trie from a document: ``FrozenTrie.from_document``
        checks it, then a thaw builds the dicts.  Node k of the document is
        node k of the trie.  The thaw adopts the frozen trie's ``id`` list
        and per-depth table (summed by that read), turns its numeric arrays
        into lists (an array as narrow as its largest count could not take
        the next ``insert``'s), expands the child counts into parents, and
        fills the child and cycle-edge maps in one pass each; it checks
        nothing again."""
        frozen = FrozenTrie.from_document(doc)
        trie = cls(frozen.mode, frozen.n)
        first, efirst = frozen.first, frozen.efirst
        parent = _parents(map(sub, islice(first, 1, None), first))
        trie.id = labels = frozen.id
        trie.freq, trie.entry, trie.terminal = frozen.freq.tolist(), frozen.entry.tolist(), frozen.terminal.tolist()
        trie.cycle_to = cycle_to = frozen.cycle_to.tolist()
        trie.cycle_count = frozen.cycle_count.tolist()
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


class _Depth(NamedTuple):
    """The classes of one depth of a DG trie, as index-aligned lists: each
    class's vertex, ``entry``, ``freq`` and ``terminal``, its children (as
    indices into the next depth's classes) and its cycle-edges (vertices and
    counts), both in label order, and ``above``: the cycle arrivals from the
    node's subtree at each vertex above it, empty (or None) for none."""

    vertex: list[int]
    entry: list[int]
    freq: list[int]
    terminal: list[int]
    kids: list[list[int]]
    out: list[list[int]]
    taken: list[list[int]]
    above: list[dict[int, int] | None]


_NO_PATH: dict[int, int] = {}  # the root path of a node whose subtree has no cycle-edge onto it


def _arrivals(above: list[dict[int, int] | None], out: list[int], taken: list[int], kids: list[int]) -> dict[int, int]:
    """The cycle arrivals from a node's subtree at each vertex on its root
    path: its own cycle-edges' counts plus its children's ``above``."""
    arrivals = dict(zip(out, taken))
    for below in map(above.__getitem__, kids):
        if below:
            for u, n in below.items():
                arrivals[u] = arrivals.get(u, 0) + n
    return arrivals


class _DFSStates:
    """The DG trie of some traces as a table of classes, one per DFS state.

    The node of a simple path heads a subtree that depends only on the
    path's state: the vertices it visits (an int with one bit per vertex),
    its last vertex, and the traces whose graphs hold the path (an int with
    one bit per trace).  Its children are the unvisited successors and its
    cycle-edges the visited ones, both summed over those traces: these are
    the states of Held and Karp's DP (J. SIAM 1962), and K8's 109,600 nodes
    fall into 1,024 of them.  A state's depth is the size of its visited
    set, so the pass goes depth by depth with a memo per depth, with no
    stack: forward, each state's successors give its children and
    cycle-edges; backward, from the deepest depth up, each class sums its
    insertions and cycle arrivals over its subtree.  ``depths[d - 1]`` holds
    depth d's classes; depth 1's are the vertices, numbered in label order,
    and ``labels`` is the document's label table.
    """

    __slots__ = ("labels", "depths", "sequence_count")

    def __init__(self, graphs: Sequence[ProvGraph]) -> None:
        self.labels = labels = sorted(set().union(*(g.node_ids for g in graphs)))
        index = dict(zip(labels, count()))
        holds, ends = [0] * len(labels), [0] * len(labels)  # per vertex: traces that hold it, those where it ends
        arcs: list[dict[int, int]] = [{} for _ in labels]  # per vertex: successor -> traces with that edge
        for trace, g in enumerate(graphs):
            bit = 1 << trace
            for v in g.node_ids:
                i = index[v]
                holds[i] |= bit
                succs = g.successors(v)
                if not succs:
                    ends[i] |= bit
                out = arcs[i]
                for w in map(index.__getitem__, succs):
                    out[w] = out.get(w, 0) | bit
        steps = [[(w, 1 << w, traces) for w, traces in sorted(out.items())] for out in arcs]
        forward = []  # per depth: its classes' vertices, ends, children and cycle-edges
        level = [(1 << v, v, live) for v, live in enumerate(holds)]  # depth 1: each vertex alone
        while level:
            memo: dict[tuple[int, int, int], int] = {}  # state -> its index in the next depth
            deeper: list[tuple[int, int, int]] = []
            kids, outs, takens = [], [], []
            for seen, v, live in level:
                below, out, taken = [], [], []
                for w, bit, traces in steps[v]:
                    both = live & traces
                    if both:
                        if seen & bit:
                            out.append(w)
                            taken.append(both.bit_count())
                        else:
                            state = (seen | bit, w, both)
                            k = memo.get(state)
                            if k is None:
                                k = memo[state] = len(deeper)
                                deeper.append(state)
                            below.append(k)
                kids.append(below)
                outs.append(out)
                takens.append(taken)
            vertex = [v for _, v, _ in level]
            ended = [(live & ends[v]).bit_count() for _, v, live in level]  # traces whose path ends here
            forward.append((vertex, ended, kids, outs, takens))
            level = deeper  # the visited sets of this depth are freed
        self.depths: list[_Depth] = []
        entry: list[int] = []
        above: list[dict[int, int] | None] = []
        while forward:
            vertex, ended, kids, outs, takens = forward.pop()
            entry = [e + sum(t) + sum(map(entry.__getitem__, k)) for e, t, k in zip(ended, takens, kids)]
            if any(outs) or any(above):
                above = list(map(partial(_arrivals, above), outs, takens, kids))
                here = list(map(dict.pop, above, vertex, repeat(0)))  # arrivals at the node itself
                freq, terminal = list(map(add, entry, here)), list(map(add, ended, here))
            else:  # no cycle-edge below this depth
                above, freq, terminal = [None] * len(vertex), entry, ended
            self.depths.append(_Depth(vertex, entry, freq, terminal, kids, outs, takens, above))
        self.depths.reverse()
        self.sequence_count = sum(entry)  # every insertion descends into one of depth 1's nodes

    def unfold(self) -> Iterator[tuple[_Depth, Sequence[int], list[int]]]:
        """The trie breadth-first, from depth 1 down: per depth, its classes,
        the class of each of its nodes in document order (children in label
        order), and the targets of those nodes' cycle-edges, by source and
        then label, as node numbers (the root 0, then one per node in this
        order).  A node maps the vertices on its root path that its subtree's
        cycle-edges return to onto their nodes, in a map it shares with its
        children unless a cycle-edge returns to the node itself."""
        level: Sequence[int] = range(len(self.labels))
        paths: Iterable[dict[int, int]] = repeat(_NO_PATH)
        first = 1  # the number of the depth's first node
        for classes in self.depths:
            vertex, entry, freq, kids, outs, above = (
                classes.vertex, classes.entry, classes.freq, classes.kids, classes.out, classes.above
            )
            targets: list[int] = []
            kept: list[dict[int, int]] = []  # each node's map, for its children
            for number, c, path in zip(count(first), level, paths):
                if freq[c] != entry[c]:  # a cycle-edge of the subtree returns here
                    path = path.copy()
                    path[vertex[c]] = number
                elif not above[c]:
                    path = _NO_PATH
                if outs[c]:
                    targets += map(path.__getitem__, outs[c])
                kept.append(path)
            yield classes, level, targets
            first += len(level)
            paths = chain.from_iterable(map(repeat, kept, map(len, map(kids.__getitem__, level))))
            level = list(chain.from_iterable(map(kids.__getitem__, level)))


def dg_document(graphs: Sequence[ProvGraph]) -> dict[str, Any]:
    """The DG trie of ``graphs`` as a format 4 document: the one that
    ``to_document`` writes after ``index_graph`` of each graph into an empty
    DG trie.  One ``_DFSStates`` pass takes every graph at once, and its
    unfold gives ``encode`` the seven columns with no trie between."""
    states = _DFSStates(graphs)
    levels: list[tuple[_Depth, Sequence[int]]] = []  # per depth: its classes, and its nodes' classes
    cycle_to: list[int] = []
    for classes, level, targets in states.unfold():
        levels.append((classes, level))
        cycle_to += targets

    def column(field: str) -> Iterator[Any]:  # a field of each non-root node's class, in document order
        return chain.from_iterable(map(getattr(classes, field).__getitem__, level) for classes, level in levels)

    def columns() -> Iterator[Iterable[int]]:
        yield chain((len(states.labels),), map(len, column("kids")))
        yield chain((0,), map(len, column("out")))
        yield column("vertex")
        yield column("freq")
        yield column("terminal")
        yield cycle_to
        yield chain.from_iterable(column("taken"))

    nodes = sum(len(level) for _, level in levels)
    return encode(TrieMode.DG, 0, states.sequence_count, nodes, len(cycle_to), states.labels, columns())


def save(trie: Trie, sink: str | os.PathLike[str] | IO[str]) -> int:
    """Write ``trie`` to a path or text stream as one format 4 document,
    ``write_document(trie.to_document(), sink)``: ``to_document``
    compresses each column as it makes it, so no moment holds every column,
    as lists or as arrays.  Returns the number of non-root nodes written."""
    return write_document(trie.to_document(), sink)


def write_document(doc: dict[str, Any], sink: str | os.PathLike[str] | IO[str]) -> int:
    """Write a trie document to a path or text stream, the one writer of
    ``save`` and ``provtrie index``.

    The text is ``json.dumps(doc, separators=(",", ":"))``.  Byte-identical
    documents presume one zlib build, since another may compress the same
    body to other bytes.
    A path is written atomically: the document goes to a new temporary file
    in the target's directory (mode ``0o666`` less the umask, applied by the
    kernel as for ``open``) that replaces the target only once it is
    complete, so a failed write leaves an existing file as it was.  Returns
    the document's count of non-root nodes.
    """
    if hasattr(sink, "write"):
        sink.write(json.dumps(doc, separators=(",", ":")))  # type: ignore[union-attr]
        return doc["nodes"]
    target = os.fspath(sink)
    tmp_name = os.path.join(os.path.dirname(target), f".provtrie-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                nodes = write_document(doc, fh)
            os.replace(tmp_name, target)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError as exc:  # name the file the caller asked for, not the temporary one
        if exc.filename != tmp_name:
            raise
        raise OSError(exc.errno, exc.strerror, target) from None
    return nodes


def load(source: str | os.PathLike[str] | IO[str]) -> Trie:
    """Read an insertable trie from a path or text stream written by ``save``."""
    # no local keeps the text or the document: the loader frees the columns as it goes
    return Trie.from_document(_read(source))
