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
is ``document.encode``, the one writer, over the builder's counts and
columns; ``Trie.from_document`` is ``FrozenTrie.from_document`` plus a
thaw into lists and dicts; ``Trie.check_invariants`` checks the builder's
wiring and runs the column checker on its own columns, packed into
arrays as a load packs them, with no encoding between.

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
from operator import ne, sub
from typing import IO, Any, Callable, Iterator, NamedTuple, Sequence

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
        its node's statistics when it pops; as one ``insert`` per closing
        insertion would, also into a trie that already holds sequences.
        Successors are walked in ascending order, so a node's children and
        cycle-edges are created in label order; only a build into a
        non-empty trie marks a map.
        """
        if self.mode is TrieMode.DAG:
            items = sequence(g).items
            if items:
                for window in ngrams(items, self.n or len(items)).windows:
                    self.insert(window)
            return
        succs_of = {v: g.successors(v) for v in g.node_ids}
        children, cycles, ids, freq, entry, terminal = (
            self.children, self.cycles, self.id, self.freq, self.entry, self.terminal
        )
        cycle_to, cycle_count, stats, unsorted = self.cycle_to, self.cycle_count, self.depth_stats, self._unsorted
        # frame: [node, successors still to enter (last first), insertions, arrivals]
        stack: list[list[Any]] = []
        on_path: dict[str, list[Any]] = {}  # vertex on the current path -> its frame

        def enter(parent: int, vertex: str) -> None:
            kids = children[parent]
            node = kids.get(vertex)
            if node is None:  # _add_node, inlined
                if kids and vertex < next(reversed(kids)):
                    unsorted.add(parent)
                node = kids[vertex] = len(ids)
                ids.append(vertex)
                freq.append(0)
                entry.append(0)
                terminal.append(0)
                children.append({})
                cycles.append({})
            succs = succs_of[vertex]
            frame = [node, [], 0, 0]
            on_path[vertex] = frame
            stack.append(frame)
            if not succs:
                terminal[node] += 1
                frame[2] = 1
                return
            opens, out = frame[1], cycles[node]
            had = len(out)  # a node entered before (a build into a non-empty trie) may have edges
            for w in succs:
                target = on_path.get(w)
                if target is None:
                    opens.append(w)
                    continue
                if had and w in out:
                    cycle_count[out[w]] += 1
                else:  # _take_cycle, inlined
                    out[w] = len(cycle_to)
                    cycle_to.append(target[0])
                    cycle_count.append(1)
                target[3] += 1
            if had and len(out) > had:  # ascending successors keep a fresh node's edges in label order
                unsorted.add(node)
            frame[2] = len(succs) - len(opens)
            opens.reverse()  # popped from the end: the smallest successor is entered first

        total = 0
        for start in g.node_ids:
            enter(0, start)
            while stack:
                node, opens, ins, arrivals = stack[-1]
                if opens:
                    enter(node, opens.pop())
                    continue
                stack.pop()
                del on_path[ids[node]]  # type: ignore[arg-type]
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


def save(trie: Trie, sink: str | os.PathLike[str] | IO[str]) -> int:
    """Write ``trie`` to a path or text stream as one format 4 document.

    The text is ``json.dumps(trie.to_document(), separators=(",", ":"))``:
    ``to_document`` compresses each column as it makes it, so no moment
    holds every column, as lists or as arrays.  Byte-identical documents
    presume one zlib build, since another may compress the same body to
    other bytes.
    A path is written atomically: the document goes to a new temporary file
    in the target's directory (mode ``0o666`` less the umask, applied by the
    kernel as for ``open``) that replaces the target only once it is
    complete, so a failed save leaves an existing file as it was.  Returns
    the number of non-root nodes written.
    """
    if hasattr(sink, "write"):
        doc = trie.to_document()
        sink.write(json.dumps(doc, separators=(",", ":")))  # type: ignore[union-attr]
        return doc["nodes"]
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


def load(source: str | os.PathLike[str] | IO[str]) -> Trie:
    """Read an insertable trie from a path or text stream written by ``save``."""
    # no local keeps the text or the document: the loader frees the columns as it goes
    return Trie.from_document(_read(source))
