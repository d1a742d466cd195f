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
from typing import IO, Any, Iterator, Sequence

from .graph import ProvGraph

FORMAT_VERSION = 1


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

    def cycle_out_total(self) -> int:
        return sum(edge.count for edge in self.cycles.values())

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
        return sum(1 for _ in self.iter_nodes()) - 1

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
        the root path), and that the per-depth table equals a recount.
        """
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
            descend_total = sum(c.entry_count for c in node.children.values())
            if node.freq != node.terminal_count + descend_total + node.cycle_out_total():
                raise CorruptDocument(f"conservation violated at {node!r}")
            if node.freq:
                sibling_sum = sum(c.entry_count for c in node.children.values()) / node.freq
                expected = (node.freq - node.terminal_count - node.cycle_out_total()) / node.freq
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

    # ---- persistence ---------------------------------------------------------------

    def to_document(self) -> dict[str, Any]:
        """Self-describing document tree; see ``save``.

        Nodes appear in pre-order with children in label order, so the
        document is a canonical form: equal documents iff structurally
        equal tries.  ``prob`` is never stored; it is recomputed from the
        frequency fields on load.
        """
        index: dict[int, int] = {}
        nodes: list[dict[str, Any]] = []
        cycle_edges: list[dict[str, int]] = []
        for node in self.iter_nodes():
            idx = len(nodes)
            index[id(node)] = idx
            nodes.append(
                {
                    "node_index": idx,
                    "parent_index": None if node.parent is None else index[id(node.parent)],
                    "id": node.id,
                    "freq": node.freq,
                    "terminal_count": node.terminal_count,
                    "depth": node.depth,
                }
            )
        for node in self.iter_nodes():
            for label in sorted(node.cycles):
                edge = node.cycles[label]
                cycle_edges.append(
                    {
                        "from_index": index[id(node)],
                        "to_index": index[id(edge.target)],
                        "count": edge.count,
                    }
                )
        stats = [
            {"depth": depth, "id": rid, "cum_freq": freq}
            for depth in self.depth_stats.depths()
            for rid, freq in sorted(self.depth_stats.per_depth[depth].items())
            if freq
        ]
        return {
            "format_version": FORMAT_VERSION,
            "mode": self.mode.value,
            "n": self.n,
            "sequence_count": self.sequence_count,
            "nodes": nodes,
            "cycle_edges": cycle_edges,
            "depth_stats": stats,
        }

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "Trie":
        """Rebuild a trie from a document, validating every invariant."""
        try:
            version = doc["format_version"]
        except (TypeError, KeyError):
            raise CorruptDocument("missing format_version header") from None
        if version != FORMAT_VERSION:
            raise FormatVersionMismatch(f"format_version {version!r}, supported: {FORMAT_VERSION}")
        try:
            mode = TrieMode(doc["mode"])
            n = doc["n"]
            sequence_count = doc["sequence_count"]
            node_records = doc["nodes"]
            cycle_records = doc["cycle_edges"]
            stat_records = doc["depth_stats"]
        except (KeyError, ValueError, TypeError) as exc:
            raise CorruptDocument(f"malformed header: {exc}") from None
        if type(n) is not int or type(sequence_count) is not int or n < 0:
            raise CorruptDocument("header counts must be non-negative integers")

        trie = cls(mode, n)
        trie.sequence_count = sequence_count
        nodes: list[TrieNode] = []
        try:
            for rec in node_records:
                idx = rec["node_index"]
                parent_idx = rec["parent_index"]
                freq = rec["freq"]
                terminal_count = rec["terminal_count"]
                depth = rec["depth"]
                if type(idx) is not int or idx != len(nodes):
                    raise CorruptDocument(f"node records out of order at index {idx!r}")
                if type(freq) is not int or type(terminal_count) is not int or type(depth) is not int:
                    raise CorruptDocument(f"non-integer statistic on node {idx}")
                if parent_idx is None:
                    if nodes:
                        raise CorruptDocument("multiple root records")
                    node = trie.root
                else:
                    if type(parent_idx) is not int or not 0 <= parent_idx < len(nodes):
                        raise CorruptDocument(f"parent {parent_idx!r} not before node {idx}")
                    parent = nodes[parent_idx]
                    rid = rec["id"]
                    if not isinstance(rid, str) or not rid:
                        raise CorruptDocument(f"bad identifier on node {idx}")
                    if rid in parent.children:
                        raise CorruptDocument(f"duplicate child {rid!r} under node {parent_idx}")
                    node = TrieNode(rid, parent.depth + 1, parent)
                    parent.children[rid] = node
                node.freq = freq
                node.terminal_count = terminal_count
                node.entry_count = 0 if parent_idx is None else freq
                if depth != node.depth:
                    raise CorruptDocument(f"depth mismatch on node {idx}")
                if freq < 0 or terminal_count < 0:
                    raise CorruptDocument(f"negative statistic on node {idx}")
                nodes.append(node)
            for rec in cycle_records:
                src_idx = rec["from_index"]
                dst_idx = rec["to_index"]
                count = rec["count"]
                if type(src_idx) is not int or type(dst_idx) is not int or type(count) is not int:
                    raise CorruptDocument("non-integer field in a cycle-edge record")
                if src_idx < 0 or dst_idx < 0:  # an index past the end raises IndexError below
                    raise CorruptDocument(f"negative node index in cycle-edge {src_idx} -> {dst_idx}")
                src = nodes[src_idx]
                dst = nodes[dst_idx]
                if dst.id is None:
                    raise CorruptDocument("cycle-edge into the root")
                if dst.id in src.cycles:
                    raise CorruptDocument(f"duplicate cycle-edge from node {src_idx}")
                src.cycles[dst.id] = CycleEdge(dst, count)
                dst.entry_count -= count
            for rec in stat_records:
                depth = rec["depth"]
                cum_freq = rec["cum_freq"]
                if type(depth) is not int or type(cum_freq) is not int:
                    raise CorruptDocument("non-integer field in a depth statistics record")
                trie.depth_stats.bump(depth, rec["id"], cum_freq)
        except CorruptDocument:
            raise
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            raise CorruptDocument(f"malformed record: {exc}") from None
        if not nodes:
            raise CorruptDocument("document has no root record")
        trie.check_invariants()
        return trie


# records per C-encoder call in ``save``.  The encoder holds a call's whole
# output at once: one call per record list raised the peak RSS of indexing
# K8 by 69 MiB, and 8,192-record chunks that of a 4,000-run corpus by 4 MiB.
_SAVE_CHUNK = 1024


def _write_document(doc: dict[str, Any], fh: IO[str]) -> None:
    """Write ``doc`` as ``json.dump(doc, fh, separators=(",", ":"))`` would.

    ``json.dump`` streams through the pure-Python encoder.  Here the C
    encoder writes every scalar and each chunk of ``_SAVE_CHUNK`` list
    records; the chunks' brackets are dropped, so the bytes are the same.
    """
    encode = json.JSONEncoder(separators=(",", ":")).encode
    write = fh.write
    write("{")
    for i, (key, value) in enumerate(doc.items()):
        write(("," if i else "") + encode(key) + ":")
        if isinstance(value, list):
            write("[")
            for start in range(0, len(value), _SAVE_CHUNK):
                if start:
                    write(",")
                write(encode(value[start : start + _SAVE_CHUNK])[1:-1])
            write("]")
        else:
            write(encode(value))
    write("}")


def save(trie: Trie, sink: str | os.PathLike[str] | IO[str]) -> None:
    """Write ``trie`` to a path or text stream as a single JSON document.

    The bytes are those of ``json.dump(trie.to_document(), fh,
    separators=(",", ":"))``, written with the C encoder in chunks.  A
    path is written atomically: the document goes to a temporary file in
    the target's directory (mode ``0o666 & ~umask``, as ``open`` would
    give) that replaces the target only once it is complete, so a failed
    save leaves an existing file as it was.
    """
    if hasattr(sink, "write"):
        _write_document(trie.to_document(), sink)  # type: ignore[arg-type]
        return
    target = os.fspath(sink)
    fd, tmp_name = tempfile.mkstemp(prefix=".provtrie-", dir=os.path.dirname(target) or ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            _write_document(trie.to_document(), fh)
        os.replace(tmp_name, target)
    except BaseException:
        os.unlink(tmp_name)
        raise


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
