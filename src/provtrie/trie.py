"""The statistically enriched generalized prefix trie.

Sequences of resource identifiers are indexed by sharing prefixes in a
tree; every node carries occurrence statistics that are updated online
during insertion, so frequent-pattern and next-step queries need no
separate counting pass.

Two modes exist:

* DAG mode is a plain prefix tree: each distinct prefix is one node,
  repeated identifiers within a sequence simply create deeper nodes.
* DG mode folds repetition back into the tree: when the next symbol
  matches a node already on the current root-to-cursor path, no new node
  is created; instead a cycle-edge from the cursor to that ancestor is
  recorded and the cursor jumps back up.  Along any root path of a DG
  trie identifiers are therefore unique, which makes label lookup from
  any node unambiguous (a label is either one child or one cycle-edge,
  never both).

Per node: ``freq`` counts every traversal arrival (descents from the
parent plus cycle-edge arrivals), ``entry_count`` only the descents,
``terminal_count`` the insertions ending exactly there.  Each arrival is
followed by exactly one of descend / cycle / terminate, which gives the
conservation law

    freq == terminal_count + sum(child.entry_count) + sum(cycle counts out)

checked by ``Trie.check_invariants``.  The conditional probability of a
child is ``entry_count / parent.freq`` (in DAG mode ``entry_count`` and
``freq`` coincide), so sibling probabilities sum to at most 1, with
equality exactly when nothing terminated or cycled away from the parent.

Statistics are also aggregated per depth (identifier -> cumulative
frequency) for most-probable-at-level queries.

Persistence (``save``/``load``) stores each fact once, as parallel
columns: per non-root node its parent index, identifier, ``freq`` and
``terminal_count``; per cycle-edge its source, target and count.  Depths,
entry counts, the root's statistics and the per-depth table all follow
from these and are rebuilt in the loader's single pass.

Concurrency: single writer, many readers.  Insertion needs exclusive
access; a trie that is not being mutated can be queried from any number
of threads.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from operator import attrgetter, ge
from typing import IO, Any, Iterator, Sequence

from .graph import ProvGraph

FORMAT_VERSION = 2


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


class TrieMode(Enum):
    DAG = "dag"
    DG = "dg"


@dataclass(slots=True)
class CycleEdge:
    """Back edge to an ancestor carrying the repeated identifier."""

    target: "TrieNode"
    count: int


_entry_count = attrgetter("entry_count")
_count = attrgetter("count")


class TrieNode:
    """One trie node; the edge label from its parent is ``id`` (root: None)."""

    __slots__ = ("id", "depth", "parent", "freq", "entry_count", "terminal_count", "children", "cycles")

    def __init__(self, rid: str | None, depth: int, parent: "TrieNode | None") -> None:
        self.id = rid
        self.depth = depth
        self.parent = parent
        self.freq = 0
        self.entry_count = 0
        self.terminal_count = 0
        self.children: dict[str, TrieNode] = {}
        self.cycles: dict[str, CycleEdge] = {}

    @property
    def prob(self) -> float:
        """Conditional probability of stepping into this node from its parent."""
        if self.parent is None:
            return 1.0
        return self.entry_count / self.parent.freq

    @property
    def cycle_edges(self) -> tuple["TrieNode", ...]:
        """Targets of this node's cycle-edges, in label order."""
        return tuple(self.cycles[label].target for label in sorted(self.cycles))

    def children_sorted(self) -> list["TrieNode"]:
        return [self.children[label] for label in sorted(self.children)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TrieNode {self.id!r} depth={self.depth} freq={self.freq}>"


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


class Trie:
    """Prefix-trie index over identifier sequences, with online statistics."""

    def __init__(self, mode: TrieMode = TrieMode.DAG, n: int = 0) -> None:
        if n < 0:
            raise ValueError(f"window length must be >= 0, got {n}")
        self.mode = mode
        self.n = n
        self.root = TrieNode(None, 0, None)
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
                child = TrieNode(sym, node.depth + 1, node)
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
        path: list[TrieNode] = [self.root]
        positions: dict[str, int] = {}
        for sym in symbols:
            cursor = path[-1]
            pos = positions.get(sym)
            if pos is None:
                child = cursor.children.get(sym)
                if child is None:
                    child = TrieNode(sym, cursor.depth + 1, cursor)
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

        def enter(parent: TrieNode, vertex: str) -> None:
            node = parent.children.get(vertex)
            if node is None:
                node = TrieNode(vertex, parent.depth + 1, parent)
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

    def iter_nodes(self) -> Iterator[TrieNode]:
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

    def find(self, labels: Sequence[str]) -> TrieNode | None:
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

        Checks, at every node: parent/depth wiring, the conservation law,
        sibling probability sums, cycle-edge targets (same identifier, on
        the root path), and that the per-depth table equals a recount.  In
        DG mode the identifiers along every root path must be unique.

        One explicit-stack pre-order walk, children unsorted, visits each
        node once and sums its child entries and cycle-edge counts once.
        The walk keeps the current root path (by depth) and, in DG mode, a
        map from identifier to the node on that path, so a cycle-edge's
        target is an ancestor iff the map holds it under the edge's label:
        one lookup, not a walk up the parent chain.
        """
        dag = self.mode is TrieMode.DAG
        recount: dict[int, dict[str, int]] = {}
        path: list[TrieNode] = []  # path[d]: the node at walk depth d on the current root path
        on_path: dict[str, TrieNode] = {}  # DG: identifier -> the node on the current root path
        stack: list[tuple[TrieNode, int]] = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            while len(path) > d:
                dropped = path.pop()
                if not dag:
                    del on_path[dropped.id]  # type: ignore[arg-type]
            freq = node.freq
            if d:
                parent = path[-1]
                rid: str = node.id  # type: ignore[assignment]
                if node.parent is not parent or parent.children.get(rid) is not node:
                    raise CorruptDocument(f"broken parent link at {node!r}")
                if node.depth != parent.depth + 1:
                    raise CorruptDocument(f"bad depth at {node!r}")
                if not (0 <= node.entry_count <= freq):
                    raise CorruptDocument(f"entry count out of range at {node!r}")
                if dag:
                    if node.entry_count != freq:
                        raise CorruptDocument(f"cycle arrivals on DAG-mode node {node!r}")
                else:
                    if rid in on_path:
                        raise CorruptDocument(f"identifier repeats on the root path at {node!r}")
                    on_path[rid] = node
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
            stack.extend(zip(children.values(), repeat(d + 1)))
        if self.root.freq != self.sequence_count:
            raise CorruptDocument("root frequency does not match the sequence count")
        if {d: t for d, t in self.depth_stats.per_depth.items() if t} != recount:
            raise CorruptDocument("per-depth statistics do not match a recount")

    # ---- persistence ---------------------------------------------------------------

    def to_document(self) -> dict[str, Any]:
        """Columnar document tree; see ``save``.

        The header (``format_version``, ``mode``, ``n``, ``sequence_count``)
        is followed by parallel arrays.  ``parent``, ``id``, ``freq`` and
        ``terminal_count`` hold one entry per non-root node, in pre-order
        with children in label order; ``cycle_from``, ``cycle_to`` and
        ``cycle_count`` hold one entry per cycle-edge, by source node in
        that order and then by label.  Node indices count the root as 0.
        The document is a canonical form: equal documents iff structurally
        equal tries.  Only what cannot be derived is stored: depths, entry
        counts, the root's statistics, the per-depth table and ``prob``
        are recomputed on load.
        """
        parent: list[int] = []
        ids: list[str] = []
        freq: list[int] = []
        terminal_count: list[int] = []
        cycle_from: list[int] = []
        cycle_to: list[int] = []
        cycle_count: list[int] = []
        index: dict[int, int] = {}
        for node in self.iter_nodes():
            idx = index[id(node)] = len(index)
            if idx:
                parent.append(index[id(node.parent)])
                ids.append(node.id)  # type: ignore[arg-type]
                freq.append(node.freq)
                terminal_count.append(node.terminal_count)
            for label in sorted(node.cycles):
                edge = node.cycles[label]
                cycle_from.append(idx)
                cycle_to.append(index[id(edge.target)])  # an ancestor, so already numbered
                cycle_count.append(edge.count)
        return {
            "format_version": FORMAT_VERSION,
            "mode": self.mode.value,
            "n": self.n,
            "sequence_count": self.sequence_count,
            "parent": parent,
            "id": ids,
            "freq": freq,
            "terminal_count": terminal_count,
            "cycle_from": cycle_from,
            "cycle_to": cycle_to,
            "cycle_count": cycle_count,
        }

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "Trie":
        """Rebuild a trie from a document, validating every invariant.

        Whole columns are checked first, each in one pass in C: lengths,
        element types (exact ints, nonempty strings) and value ranges
        (``freq`` at least 1, ``terminal_count`` non-negative, every parent
        an earlier node, every cycle-edge end a node, no target the root).
        Then one pass over the node arrays derives each depth from the
        parent's, sets ``entry_count`` to ``freq`` and rebuilds the
        per-depth table; one pass over the cycle-edge arrays subtracts each
        edge's count from its target's ``entry_count``.  These passes check
        only what needs the structure: no duplicate child, no duplicate
        cycle-edge.  Then ``check_invariants`` runs.
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
            node_columns = [doc["parent"], doc["id"], doc["freq"], doc["terminal_count"]]
            cycle_columns = [doc["cycle_from"], doc["cycle_to"], doc["cycle_count"]]
        except (KeyError, ValueError, TypeError) as exc:
            raise CorruptDocument(f"malformed header: {exc}") from None
        if type(n) is not int or type(sequence_count) is not int or n < 0 or sequence_count < 0:
            raise CorruptDocument("header counts must be non-negative integers")
        if any(type(column) is not list for column in node_columns + cycle_columns):
            raise CorruptDocument("node and cycle-edge columns must be arrays")
        parents, ids, freqs, terminal_counts = node_columns
        sources, targets, counts = cycle_columns
        if len({len(column) for column in node_columns}) != 1:
            raise CorruptDocument("node columns of unequal length")
        if len({len(column) for column in cycle_columns}) != 1:
            raise CorruptDocument("cycle-edge columns of unequal length")
        if any(set(map(type, column)) - {int} for column in (parents, freqs, terminal_counts, *cycle_columns)):
            raise CorruptDocument("non-integer statistic or node index")
        if set(map(type, ids)) - {str} or "" in ids:
            raise CorruptDocument("identifiers must be nonempty strings")
        if parents and (min(parents) < 0 or any(map(ge, parents, range(1, len(parents) + 1)))):
            idx = next(i for i, p in enumerate(parents, 1) if not 0 <= p < i)
            raise CorruptDocument(f"parent {parents[idx - 1]} not before node {idx}")
        if freqs and (min(freqs) < 1 or min(terminal_counts) < 0):
            raise CorruptDocument("node statistic out of range")
        if sources:
            if min(sources) < 0 or min(targets) < 0:
                raise CorruptDocument("negative node index in a cycle-edge")
            if max(sources) > len(parents) or max(targets) > len(parents):
                raise CorruptDocument("cycle-edge node index past the end")
            if 0 in targets:
                raise CorruptDocument("cycle-edge into the root")

        trie = cls(mode, n)
        trie.sequence_count = sequence_count
        trie.root.freq = sequence_count
        bump = trie.depth_stats.bump
        nodes = [trie.root]
        for parent_idx, rid, freq, terminal_count in zip(parents, ids, freqs, terminal_counts):
            parent = nodes[parent_idx]
            if rid in parent.children:
                raise CorruptDocument(f"duplicate child {rid!r} under node {parent_idx}")
            node = TrieNode(rid, parent.depth + 1, parent)
            parent.children[rid] = node
            node.freq = node.entry_count = freq
            node.terminal_count = terminal_count
            bump(node.depth, rid, freq)
            nodes.append(node)
        for src_idx, dst_idx, count in zip(sources, targets, counts):
            dst = nodes[dst_idx]
            cycles = nodes[src_idx].cycles
            if dst.id in cycles:
                raise CorruptDocument(f"duplicate cycle-edge from node {src_idx}")
            cycles[dst.id] = CycleEdge(dst, count)  # type: ignore[index]
            dst.entry_count -= count
        trie.check_invariants()
        return trie


def save(trie: Trie, sink: str | os.PathLike[str] | IO[str]) -> int:
    """Write ``trie`` to a path or text stream as a single JSON document.

    The text is ``json.dumps(trie.to_document(), separators=(",", ":"))``.
    A path is written atomically: the document goes to a temporary file in
    the target's directory (mode ``0o666 & ~umask``, as ``open`` would
    give) that replaces the target only once it is complete, so a failed
    save leaves an existing file as it was.  Returns the number of
    non-root nodes written.
    """
    if hasattr(sink, "write"):
        doc = trie.to_document()
        sink.write(json.dumps(doc, separators=(",", ":")))  # type: ignore[union-attr]
        return len(doc["parent"])
    target = os.fspath(sink)
    fd, tmp_name = tempfile.mkstemp(prefix=".provtrie-", dir=os.path.dirname(target) or ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            nodes = save(trie, fh)
        os.replace(tmp_name, target)
    except BaseException:
        os.unlink(tmp_name)
        raise
    return nodes


def load(source: str | os.PathLike[str] | IO[str]) -> Trie:
    """Read a trie from a path or text stream written by ``save``."""
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        with open(source, "r", encoding="utf-8") as fh:  # type: ignore[arg-type]
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptDocument(f"not a valid document: {exc}") from None
    if not isinstance(doc, dict):
        raise CorruptDocument("document root must be an object")
    return Trie.from_document(doc)
