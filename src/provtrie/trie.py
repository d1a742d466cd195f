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
its last vertex and the traces that hold it.  ``_DFSStates`` makes a
class table, one class per state, in one memoized pass, and ``minimize``,
the one minimizer (a bottom-up hash-cons), makes it minimal.
``dg_document`` hands that table to ``encode``, with no node made between
(``provtrie index --mode dg`` writes that document); ``index_graph``
checks it and thaws it as ``load`` does, into the trie itself if that
holds only the root, or else into a new trie that ``_union`` adds node by
node, through ``_add_node`` and ``_take_cycle`` as ``insert`` does.
``dag_document`` is DAG mode's writer (``provtrie index --mode dag``):
it counts the runs' windows, as ``_windows`` defines them for both it and
``index_graph``, and reads the breadth-first table off the sorted
distinct windows, one range of them per node, with no node made.
``insert`` stays the online builder, and with ``to_document`` the
reference both writers are tested against.

Per node: ``freq`` counts every traversal arrival (descents plus
cycle-edge arrivals), ``entry`` the descents, ``terminal`` the insertions
ending there.  Each arrival is followed by exactly one of descend / cycle
/ terminate: ``freq == terminal + sum(child entry) + sum(cycle counts
out)``.  A child's conditional probability is ``entry / parent freq``.
``depth_stats`` maps depth -> identifier -> cumulative frequency.

Layout: a node is an ``int``, the root is 0; parents are numbered before
their children (online: in creation order; loaded: in document order,
which ``to_document`` writes breadth-first, so that siblings sit side by
side).  Node data lives in parallel lists: ``id`` (root: None;
``_add_node`` interns each label, so equal labels inserted from many
strings keep one), ``freq``, ``entry``, ``terminal``, ``children`` (label
-> child) and ``cycles`` (label -> edge); edge data in ``cycle_to`` and
``cycle_count``;
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

The reader side lives in ``document``: the format, the class table's
checker, ``FrozenTrie`` (a read-only trie that makes only the nodes its
queries reach) and every rule a document must pass.  This module imports
it and not the other way round, and re-exports the reader's names.
``Trie.to_document`` is ``document.encode``, the one encoder, over the
builder's class table (a DG trie's minimized, a DAG trie's one class per
node), and ``write_document`` the one file writer, atomic for a path,
that ``save`` calls; ``Trie.from_document`` runs the reader's checks,
then ``_thaw``: ``_unfold``, the one unfold of a table into every node,
which no read command runs, and a thaw into lists and dicts;
``Trie.check_invariants`` checks the builder's wiring and runs the class
checker on its own table, packed into arrays as a load packs them, with
no encoding between.

Concurrency: single writer, many readers.  Insertion needs exclusive
access; a trie that is not being mutated can be queried from any number
of threads.
"""
from __future__ import annotations

import json
import os
import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from functools import partial
from itertools import accumulate, chain, compress, count, islice, pairwise, repeat
from operator import add, itemgetter, lt, ne, sub
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .canonical import ngrams, sequence
from .document import (  # the reader's names, re-exported: provtrie.trie.FrozenTrie and the rest still import
    CorruptDocument,
    FormatVersionMismatch,
    FrozenTrie,
    TrieError,
    Table,
    TrieMode,
    _arrivals,
    _check,
    _checked,
    _first,
    _names,
    _packed,
    _per_depth,
    _ranges,
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
        _check_window(n)
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
        rid = sys.intern(rid)  # one string per label, however many equal strings the inputs held
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

    def _take_cycle(self, source: int, label: str, target: int, times: int) -> None:
        """Count ``times`` traversals of a cycle-edge, recording the edge the first time."""
        edges = self.cycles[source]
        edge = edges.get(label)
        if edge is None:
            if edges and label < next(reversed(edges)):
                self._unsorted.add(source)
            edges[label] = len(self.cycle_to)
            self.cycle_to.append(target)
            self.cycle_count.append(times)
        else:
            self.cycle_count[edge] += times

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
                self._take_cycle(path[-1], sym, path[pos], 1)
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

        ``_DFSStates`` builds it as a table of classes, one per DFS state,
        ``minimize`` makes the table ``dg_document`` encodes, and the class
        checker derives its ``entry``.  Into a trie that holds only the root,
        ``_thaw`` makes the nodes as ``load`` does, every map in label order.
        Into any other trie it thaws into a new one and ``_union`` adds that
        node by node, which may mark some maps and renumbers no node.
        Either way the result equals one ``insert`` per closing insertion.
        """
        if self.mode is TrieMode.DAG:
            for window in _windows(g, self.n):
                self.insert(window)
            return
        states = _DFSStates([g])
        columns, _, _ = minimize(states.rows(), states.starts[-1])
        table, _, _ = _check(self.mode, states.sequence_count, states.labels, *map(_packed, columns))
        if len(self.id) == 1:  # only the root: the graph's trie is this one
            self._thaw(states.labels, table)
            return
        other = Trie(self.mode)
        other._thaw(states.labels, table)
        self._union(other)

    def _union(self, other: "Trie") -> None:
        """Add every sequence of ``other``, a trie of the same mode: each of
        its nodes in index order (parents first) is found or made here by
        ``_add_node`` and adds its counts, each of its cycle-edges is taken
        as often as it was there, by ``_take_cycle``, and the per-depth
        tables are summed.  It only appends: no node here is renumbered."""
        where = [0] * len(other.id)  # other's nodes -> this trie's
        children, freq, entry, terminal = self.children, self.freq, self.entry, self.terminal
        for node, kids in enumerate(other.children):
            here = where[node]
            freq[here] += other.freq[node]
            entry[here] += other.entry[node]
            terminal[here] += other.terminal[node]
            mine = children[here]
            for rid, kid in kids.items():
                found = mine.get(rid)
                where[kid] = self._add_node(here, rid) if found is None else found
        for source, out in zip(where, other.cycles):
            for label, edge in out.items():
                self._take_cycle(source, label, where[other.cycle_to[edge]], other.cycle_count[edge])
        for depth, level in other.depth_stats.items():
            stats = self.depth_stats.setdefault(depth, {})
            for rid, arrivals in level.items():
                stats[rid] = stats.get(rid, 0) + arrivals

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
        node of the trie below the root.  Then the domain of the document's
        columns, which only a builder's lists can leave: every count >= 0 and
        below 2**64.  Then every rule a document must pass: the class checker
        on the table ``to_document`` would write, as the same unsigned arrays
        a load hands it, with no encoding between.  Then the rules only a
        builder can break, as a document names a cycle-edge's target by its
        label and stores no ``entry``: each cycle-edge returns to the
        ancestor-or-self that carries its label (one walk down the trie), and
        a non-root node's arrivals (``freq - entry``) equal the counts of the
        cycle-edges into it.  Last, ``depth_stats`` against a recount over the
        classes, each weighed by the places it occurs at each depth.
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
                if not target:
                    raise CorruptDocument(f"cycle-edge into the root at node {source}")
                placed[edge] += 1
        at = _first(map((1).__ne__, placed))
        if at is not None:
            raise CorruptDocument(f"cycle-edge {at} in {placed[at]} cycle maps, not one")
        labels, columns, _, _ = self._table()
        try:  # the arrays a load hands the checker, which hold no negative count
            columns = list(map(_packed, columns))
        except OverflowError:
            raise CorruptDocument("node statistic out of range: a count below 0 or past 8 bytes") from None
        table, _, _ = _check(self.mode, self.sequence_count, labels, *columns)
        arrived = [0] * nodes
        for target, taken in zip(cycle_to, self.cycle_count):
            arrived[target] += taken
        arrived[0] = self.freq[0] - self.entry[0]  # the root's freq counts insertions, not arrivals
        at = _first(map(ne, map(sub, self.freq, self.entry), arrived))
        if at is not None:
            raise CorruptDocument(f"cycle arrivals do not match the cycle-edges into node {at}")
        last: dict[str, int] = {}  # label -> the last node entered that carries it: on a root path, its node there
        walk = [iter(self.children[0].values())]
        while walk:
            for node in walk[-1]:
                last[ids[node]] = node  # type: ignore[index]
                out = self.cycles[node]
                if out and list(map(last.__getitem__, out)) != list(map(cycle_to.__getitem__, out.values())):
                    raise CorruptDocument(f"cycle-edge at node {node} not into the ancestor that carries its label")
                if self.children[node]:
                    walk.append(iter(self.children[node].values()))
                    break
            else:
                walk.pop()
        if {d: t for d, t in self.depth_stats.items() if t} != _per_depth(table, _names(labels, table)):
            raise CorruptDocument("per-depth statistics do not match a recount")

    # ---- persistence ---------------------------------------------------------------

    def _table(self) -> tuple[list[str], Iterable[Iterable[int]], int, int]:
        """The document's label table, the eight columns of its class table,
        and the node and cycle-edge counts.

        A DG trie's table is ``minimize`` over its nodes, children before
        parents (parents are numbered first).  A DAG trie keeps one class per
        node, numbered breadth-first, so that its table is its tree and a
        load unfolds nothing: its columns are iterators, each made when the
        one before it has been taken.  Every map already iterates in label
        order but a marked node's (``_unsorted``), which is read through a
        sorted copy; no map is sorted in place and no other is copied."""
        ids, freq, terminal, counts = self.id, self.freq, self.terminal, self.cycle_count
        children, cycles, unsorted = self.children, self.cycles, self._unsorted
        labels = sorted(set(islice(ids, 1, None)))
        index = dict(zip(labels, count())).__getitem__
        kids_of = {node: dict(sorted(children[node].items())) for node in unsorted}
        out_of = {node: dict(sorted(cycles[node].items())) for node in unsorted}
        if self.mode is TrieMode.DG:
            rows = (
                (node, ids[node], freq[node], terminal[node], kids.values(), out, map(counts.__getitem__, out.values()))
                for node, kids, out in zip(
                    range(len(ids) - 1, -1, -1),
                    map(kids_of.get, count(len(ids) - 1, -1), reversed(children)),
                    map(out_of.get, count(len(ids) - 1, -1), reversed(cycles)),
                )
            )
            return labels, *minimize(rows, len(ids), index)
        order = [0]  # nodes breadth-first, children in label order: node k is class k
        level = order
        while level:
            kids = map(kids_of.get, level, map(children.__getitem__, level))
            level = list(chain.from_iterable(map(dict.values, kids)))
            order += level
        edges = list(chain.from_iterable(map(dict.values, map(out_of.get, order, map(cycles.__getitem__, order)))))

        def columns() -> Iterator[Iterable[int]]:
            yield map(len, map(children.__getitem__, order))
            yield map(len, map(cycles.__getitem__, order))
            yield map(index, map(ids.__getitem__, islice(order, 1, None)))
            yield map(freq.__getitem__, islice(order, 1, None))
            yield map(terminal.__getitem__, islice(order, 1, None))
            yield repeat(0, len(order) - 1)  # every child reference numbers the next class
            yield map(index, map(ids.__getitem__, map(self.cycle_to.__getitem__, edges)))
            yield map(counts.__getitem__, edges)

        return labels, columns(), len(order) - 1, len(edges)

    def to_document(self) -> dict[str, Any]:
        """The trie as a format 5 document: ``document.encode`` over
        ``_table``.  Equal documents iff structurally equal tries."""
        labels, columns, nodes, edges = self._table()
        return encode(self.mode, self.n, self.sequence_count, nodes, edges, labels, columns)

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "Trie":
        """Rebuild an insertable trie from a document: ``document._checked``
        decodes and checks it, as ``FrozenTrie.from_document`` does, and
        ``_thaw`` makes every node."""
        mode, n, labels, table = _checked(doc)
        trie = cls(mode, n)
        trie._thaw(labels, table)
        return trie

    def _thaw(self, labels: list[str], table: Table) -> None:
        """Make this trie, which holds only the root, the trie of a checked
        class table, as ``load`` and a DG ``index_graph`` do: ``_unfold``
        makes every node, numbered breadth-first; the thaw takes each node's
        values from its class into lists, expands the child counts into
        parents, fills the child and cycle-edge maps in one pass each, in
        label order, and sums the per-depth table over the classes.  It
        checks nothing again."""
        order, first, efirst, cycle_to = _unfold(table)
        names = _names(labels, table)
        if type(order) is range:  # a tree: node k is class k, and the table's lists are the node columns
            self.id, self.freq, self.entry, self.terminal = names, table.freq, table.entry, table.terminal
            self.cycle_count = list(table.cycle_count)
        else:
            self.id, self.freq, self.entry, self.terminal = (
                list(map(column.__getitem__, order)) for column in (names, table.freq, table.entry, table.terminal)
            )
            counts = _ranges(table.cycle_count, table.efirst)
            self.cycle_count = list(chain.from_iterable(map(counts.__getitem__, order)))
        self.cycle_to = cycle_to
        self.depth_stats = _per_depth(table, names)
        parent = _parents(map(sub, islice(first, 1, None), first))
        labels = self.id
        self.children = children = [{} for _ in parent]
        for node, up, rid in islice(zip(count(), parent, labels), 1, None):
            children[up][rid] = node  # type: ignore[index]
        self.cycles = cycles = [{} for _ in parent]
        if cycle_to:
            out = list(map(sub, islice(efirst, 1, None), efirst))
            # each source repeated for its edges, skipping nodes without any
            sources = chain.from_iterable(map(repeat, compress(count(), out), filter(None, out)))
            for edge, target, source in zip(count(), cycle_to, sources):
                cycles[source][labels[target]] = edge  # type: ignore[index]


def minimize(
    rows: Iterable[tuple[int, Any, int, int, Iterable[int], Iterable[Any], Iterable[int]]],
    size: int,
    index: Callable[[Any], int] | None = None,
) -> tuple[list[list[int]], int, int]:
    """The one minimizer: a trie's minimal class table, by a bottom-up
    hash-cons, as the eight columns of ``COLUMNS``.

    ``rows`` are the trie's nodes, children before parents and the root
    last, each ``(node, label, freq, terminal, children, cycle labels,
    cycle counts)``: ``node`` below ``size``, its children as nodes, its
    children and cycle-edges in label order.  A node's class is its label,
    ``freq``, terminal count, its children's classes and its cycle labels
    and counts, so nodes with identical subtrees share one.  ``index`` maps
    a label to its place in the label table (None: labels are those
    places).  Classes are then numbered breadth-first from the root, each
    when first referenced, which makes the table canonical.  Returns the
    columns and the unfolded node and cycle-edge counts."""
    keys: dict[tuple, int] = {}  # a class's key -> its number in bottom-up order
    made: list[tuple] = []  # bottom-up number -> key
    class_of = [0] * size  # each node's class, by its number in bottom-up order
    node = 0
    for node, label, freq, terminal, kids, cycles, taken in rows:
        key = (label, freq, terminal, tuple(map(class_of.__getitem__, kids)), tuple(cycles), tuple(taken))
        at = keys.get(key)
        if at is None:
            at = keys[key] = len(made)
            made.append(key)
        class_of[node] = at
    del keys
    root = class_of[node]
    # subtree sizes, bottom up: a class's children are made before it
    nodes, edges = [], []
    for _, _, _, kids, cycles, _ in made:
        nodes.append(1 + sum(map(nodes.__getitem__, kids)))
        edges.append(len(cycles) + sum(map(edges.__getitem__, kids)))
    number = [-1] * len(made)  # bottom-up number -> canonical number
    number[root] = 0
    order, child = [root], []  # classes in canonical order, and each child reference
    for at in order:
        for kid in made[at][3]:
            if number[kid] < 0:
                number[kid] = len(order)
                order.append(kid)
                child.append(0)
            else:
                child.append(number[kid])
    classes = list(map(made.__getitem__, order))
    labels = [key[0] for key in islice(classes, 1, None)]
    cycle_labels = list(chain.from_iterable(key[4] for key in classes))
    if index is not None:
        labels, cycle_labels = list(map(index, labels)), list(map(index, cycle_labels))
    columns = [
        [len(key[3]) for key in classes],
        [len(key[4]) for key in classes],
        labels,
        [key[1] for key in islice(classes, 1, None)],
        [key[2] for key in islice(classes, 1, None)],
        child,
        cycle_labels,
        list(chain.from_iterable(key[5] for key in classes)),
    ]
    return columns, nodes[root] - 1, edges[root]


def _parents(child_count: Iterable[int]) -> list[int]:
    """Each node's parent (the root's: -1) from the child counts of nodes
    numbered level by level: node k's children are the next child_count[k]."""
    return [-1, *chain.from_iterable(map(repeat, count(), child_count))]


def _unfold(table: Table) -> tuple[Sequence[int], list[int], list[int], list[int]]:
    """The one unfold of a class table into every node of its trie, nodes
    numbered breadth-first, children in label order, the root 0: each
    node's class, the offsets of each node's children (node k's are the
    nodes ``first[k]:first[k + 1]``) and cycle-edges, and each cycle-edge's
    target node, by source and then label.  ``Trie._thaw`` is its one
    consumer, for ``load`` and a DG ``index_graph``; a read command's
    ``FrozenTrie`` makes only the nodes its query reaches.

    The classes of a depth's nodes are their parents' children, in order, so
    the node order and both offset columns come level by level with no
    per-node step.  The targets come from one depth-first walk over the
    nodes with one map, label -> the last node entered that carries it: in
    DG mode a label is on a root path at most once, so the node a cycle-edge
    returns to is the one its label maps to when the edge's source is
    entered; a node is entered in the map only when a cycle-edge of its
    subtree returns to it.  A tree is its own unfold, node k class k."""
    label, first, kid, efirst = table.label, table.first, table.kid, table.efirst
    classes = len(label)
    degree = list(map(sub, islice(first, 1, None), first))
    out = list(map(sub, islice(efirst, 1, None), efirst))
    if type(kid) is range:  # a tree: node k is class k
        order: Sequence[int] = range(classes)
        nodes, edges = first, efirst
    else:
        kids = _ranges(kid, first)
        order, level = [0], list(kids[0])
        while level:
            order += level
            level = list(chain.from_iterable(map(kids.__getitem__, level)))
        nodes = list(accumulate(map(degree.__getitem__, order), initial=1))
        edges = list(accumulate(map(out.__getitem__, order), initial=0))
    targets = [0] * edges[-1]
    if not targets:
        return order, nodes, edges, targets
    here = list(map(ne, table.freq, table.entry))  # per class: a cycle-edge of its subtree returns to it
    cycles = _ranges(table.cycle_label, efirst)
    # per class: its cycle-edges' targets read off the map (a tuple, or for one edge its label)
    many = [itemgetter(*labels) if len(labels) > 1 else None for labels in cycles]
    one = [labels[0] if len(labels) == 1 else None for labels in cycles]
    at: dict[int, int] = {}
    walk = [iter(range(nodes[0], nodes[1]))]  # per depth on the walk, the rest of its siblings
    while walk:
        for node in walk[-1]:
            c = order[node]
            if here[c]:
                at[label[c]] = node
            if many[c] is not None:
                e = edges[node]
                targets[e : e + out[c]] = many[c](at)
            elif one[c] is not None:
                targets[edges[node]] = at[one[c]]
            if degree[c]:
                walk.append(iter(range(nodes[node], nodes[node + 1])))
                break
        else:
            walk.pop()
    return order, nodes, edges, targets


class _DFSStates:
    """The DG trie of some traces as a class table, one class per DFS state.

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
    insertions and cycle arrivals over its subtree (``document._arrivals``,
    as the class checker sums them).  ``rows`` numbers the root 0 and then
    the classes depth by depth, so children come after their parents;
    depth 1's are the vertices, in label order, a class's label is its
    vertex, and ``labels`` is the document's label table.
    """

    __slots__ = ("labels", "depths", "starts", "sequence_count")

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
        depths = []
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
            depths.append((vertex, entry, freq, terminal, kids, outs, takens))
        self.sequence_count = sum(entry)  # every insertion descends into one of depth 1's nodes
        depths.reverse()
        self.depths = depths
        self.starts = list(accumulate(map(len, map(itemgetter(0), depths)), initial=1))  # each depth's first class

    def rows(self) -> Iterator[tuple[int, int, int, int, Iterable[int], list[int], list[int]]]:
        """The classes as ``minimize`` takes them: the root 0, then depth by
        depth from 1, handed over the deepest depth first and the root last."""
        for (vertex, _, freq, terminal, kids, outs, takens), start, below in zip(
            reversed(self.depths), reversed(self.starts[:-1]), reversed(self.starts[1:])
        ):
            yield from zip(count(start), vertex, freq, terminal, map(partial(map, below.__add__), kids), outs, takens)
        yield 0, -1, self.sequence_count, 0, range(1, len(self.labels) + 1), [], []


def dg_document(graphs: Sequence[ProvGraph]) -> dict[str, Any]:
    """The DG trie of ``graphs`` as a format 5 document: the one that
    ``to_document`` writes after ``index_graph`` of each graph into an empty
    DG trie.  One ``_DFSStates`` pass takes every graph at once, and
    ``minimize`` takes its classes as they are, the deepest first, with no
    node made between."""
    states = _DFSStates(graphs)
    columns, nodes, edges = minimize(states.rows(), states.starts[-1])
    return encode(TrieMode.DG, 0, states.sequence_count, nodes, edges, states.labels, columns)


def _check_window(n: int) -> None:
    if n < 0:
        raise ValueError(f"window length must be >= 0, got {n}")


def _windows(g: ProvGraph, n: int) -> tuple[tuple[str, ...], ...]:
    """A DAG run's windows, as ``index_graph`` inserts them and
    ``dag_document`` counts them: the length-``n`` windows of the graph's
    canonical sequence, or the whole sequence when ``n`` is 0 or above its
    length, with every label interned, so that runs which share a label
    share one string.  An empty graph has none."""
    items = tuple(map(sys.intern, sequence(g).items))
    return ngrams(items, n or len(items)).windows if items else ()


def dag_document(graphs: Iterable[ProvGraph], n: int = 0) -> dict[str, Any]:
    """The DAG trie of ``graphs`` as a format 5 document: the one that
    ``to_document`` writes after ``index_graph`` of each graph into an empty
    DAG trie of window length ``n``.  A negative ``n`` is refused before the
    first graph is taken; then the graphs are taken one at a time, and only
    a count of each distinct window is kept.

    A tree's breadth-first table is read off its sorted keys, with no node
    made.  Sorted, the windows under one node sit side by side, and the one
    equal to the node's path, if any, first; so each node is a range of the
    sorted distinct windows, and the nodes of depth d, in the order the
    table numbers them, are the sorted distinct length-d prefixes.  A node's
    ``freq`` is the count of its range (a difference of prefix sums), its
    terminal count its first window's count if that window ends there.  Its
    children start at its first window, unless that one ends there, and at
    each window that shares exactly d labels with the one before it; each
    child's range ends where the next one starts, or where its parent's
    does.  One pass goes depth by depth, with no recursion.  (The
    breadth-first layout is LOUDS's, Jacobson, FOCS 1989; building from
    sorted keys, Daciuk et al., Computational Linguistics 26(1), 2000.)"""
    _check_window(n)
    runs: Counter[tuple[str, ...]] = Counter()
    for g in graphs:
        runs.update(_windows(g, n))
    windows = sorted(runs)
    times = list(map(runs.__getitem__, windows))
    del runs
    size = len(windows)
    before = list(accumulate(times, initial=0))  # windows sorting before each, counted
    length = [*map(len, windows), 0]  # the 0: no window under the root of an empty table
    cuts: dict[int, list[int]] = {}  # d -> each window that shares exactly d labels with the one before
    for i, (a, b) in enumerate(pairwise(windows), 1):
        cuts.setdefault(next(compress(count(), map(ne, a, b)), len(a)), []).append(i)
    child_count: list[int] = []
    ids: list[str] = []
    freq: list[int] = []
    terminal: list[int] = []
    starts, ends = [0], [size]  # this depth's nodes as ranges of windows: the root's
    for depth in count():
        # the next depth's nodes, by their first windows: a node's own, unless it ends here, and each cut here
        deeper = compress(starts, map(lt, repeat(depth), map(length.__getitem__, starts)))
        kids = sorted([*deeper, *cuts.pop(depth, ())])
        first = [*map(bisect_left, repeat(kids), starts), len(kids)]  # each node's first child among kids
        counts = list(map(sub, islice(first, 1, None), first))
        child_count += counts
        if not kids:
            break
        below = [*islice(kids, 1, None), size]  # where each child's range ends: the next child's start...
        for after, end in zip(compress(islice(first, 1, None), counts), compress(ends, counts)):
            below[after - 1] = end  # ...but a last child's ends where its parent's does
        starts, ends = kids, below
        ids += map(itemgetter(depth), map(windows.__getitem__, starts))
        freq += map(sub, map(before.__getitem__, ends), map(before.__getitem__, starts))
        terminal += [times[s] if length[s] == depth + 1 else 0 for s in starts]
    labels = sorted(set(ids))
    index = dict(zip(labels, count())).__getitem__
    nodes = len(ids)
    columns = (child_count, repeat(0, nodes + 1), map(index, ids), freq, terminal, repeat(0, nodes), (), ())
    return encode(TrieMode.DAG, n, before[-1], nodes, 0, labels, columns)


def save(trie: Trie, sink: str | os.PathLike[str] | IO[str]) -> int:
    """Write ``trie`` to a path or text stream as one format 5 document,
    ``write_document(trie.to_document(), sink)``: ``to_document``
    compresses each column as it takes it, and a DAG trie's columns are
    made one at a time, so no moment holds every node column, as lists or
    as arrays.  Returns the number of non-root nodes written."""
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
