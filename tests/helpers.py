"""Shared test utilities: independent oracles and random structure generators.

The oracles here intentionally re-derive results from first principles
(raw field arithmetic, recursive scans) instead of calling the package's
own validation helpers, so that a bug cannot hide on both sides of a
comparison.
"""
from __future__ import annotations

import base64
import binascii
import heapq
import operator
import random
import re
import struct
import sys
import zlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from types import SimpleNamespace
from itertools import accumulate, chain, compress, count, filterfalse, islice, repeat
from operator import add, attrgetter, ge, le, mul, ne, sub
from typing import Any, Iterable, Iterator, Sequence

from provtrie.document import FORMAT_VERSION
from provtrie.graph import CyclicInput, GraphKind, ProvGraph
from provtrie.ingest import Direction, NTriplesSyntaxError, ParsedTriples, PredicateMap
from provtrie.query import PathMatch, QueryPattern
from provtrie.trie import (
    CorruptDocument,
    EmptySequence,
    FormatVersionMismatch,
    Trie,
    TrieError,
    TrieMode,
    TrieNode,
)


class TrieModeError(TrieError):
    """An ``ObjectTrie`` operation invoked in the wrong mode."""


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
    for seq in corpus:
        trie.insert(seq)
    return trie


def insert_based_index_graph_dg(trie: Trie, g: ProvGraph) -> None:
    """The original DG builder: one ``insert`` per closing insertion.

    Kept (as a function of the trie) as the exactness reference for
    ``Trie.index_graph`` in DG mode, which builds the same trie in one pass.
    """
    if trie.mode is not TrieMode.DG:
        raise TrieModeError("the insert-based DG builder requires a DG-mode trie")
    insert = trie.insert

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


def sort_per_node_columns(trie: Trie) -> tuple[list[str], Iterator[Iterator[int]]]:
    """``Trie._columns`` as it was before the builder kept its maps in
    label order: every child map and cycle-edge map sorted as the
    breadth-first walk reaches it.  Kept verbatim (as a function of the
    trie) as the reference for the marked-node bookkeeping."""
    self = trie
    children, cycles = self.children, self.cycles
    order = [0]  # nodes in canonical order: level by level, children in label order
    edges: list[int] = []  # cycle-edges in canonical order
    for node in order:
        kids, out = children[node], cycles[node]
        if kids:
            order += map(kids.__getitem__, sorted(kids))
        if out:
            edges += map(out.__getitem__, sorted(out))
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


def sort_per_node_document(trie: Trie) -> dict[str, Any]:
    """The document of ``sort_per_node_columns``' trie, its minimal table
    written by ``encode_document``."""
    labels, columns = sort_per_node_columns(trie)
    child_count, cycle_out, ids, freq, terminal, cycle_to, cycle_count = map(list, columns)
    header = [FORMAT_VERSION, trie.mode.value, trie.n, trie.sequence_count]
    decoded = dict(zip(HEADER_KEYS, header), child_count=child_count, id=[labels[k] for k in ids], freq=freq)
    decoded.update(terminal_count=terminal, cycle_out=cycle_out, cycle_to=cycle_to, cycle_count=cycle_count)
    return encode_document(decoded, minimal=True)


def expand_degrees(counts: Sequence[int]) -> list[int]:
    """Node k once for each of its ``counts[k]`` children or cycle-edges: a
    degree column turned into a parent per node after the root, or a source
    per cycle-edge."""
    return [k for k, times in enumerate(counts) for _ in range(times)]


# ---- format 5, by hand -----------------------------------------------------------
#
# A reader and a writer of format 5 written apart from the package's (no
# ``array``, byte by byte, one dict per node for the unfold), so that tests
# edit a document's trie as node columns (format 3's, which the object
# trie reads and writes) and compare decoded columns, not text.

BODY_ORDER = ["child_count", "cycle_out", "id", "freq", "terminal_count", "cycle_to", "cycle_count"]
HEADER_KEYS = ["format_version", "mode", "n", "sequence_count"]
# the decoded form keeps format 3's key order
DECODED_KEYS = [*HEADER_KEYS, "child_count", "id", "freq", "terminal_count", "cycle_out", "cycle_to", "cycle_count"]
TABLE_ORDER = ["child_count", "cycle_out", "id", "freq", "terminal_count", "child", "cycle_label", "cycle_count"]
# the table column a decoded column is written into, one class per node
WRITTEN_AS = dict(zip(BODY_ORDER, ["child_count", "cycle_out", "id", "freq", "terminal_count", "cycle_label", "cycle_count"]))


def table_lengths(classes: int, class_edges: int, class_cycle_edges: int) -> list[int]:
    """Entries per column, in ``TABLE_ORDER``, of a class table of that many classes, references and cycle-edges."""
    return [classes, classes, classes - 1, classes - 1, classes - 1, class_edges, class_cycle_edges, class_cycle_edges]


def decode_table(doc: dict[str, Any]) -> dict[str, list[int]]:
    """A format 5 document's eight columns as lists of ints, by ``TABLE_ORDER``
    name.  Checks nothing the package checks."""
    body = zlib.decompress(base64.b64decode(doc["columns"]))
    lengths = table_lengths(doc["classes"], doc["class_edges"], doc["class_cycle_edges"])
    columns, at = {}, 0
    for name, width, length in zip(TABLE_ORDER, doc["widths"], lengths):
        columns[name] = [int.from_bytes(body[k : k + width], "little") for k in range(at, at + width * length, width)]
        at += width * length
    if at != len(body):
        raise ValueError(f"body of {len(body)} bytes, columns of {at}")
    return columns


def decode_document(doc: dict[str, Any]) -> dict[str, Any]:
    """A format 5 document as the trie it holds: the header's
    ``format_version``, ``mode``, ``n`` and ``sequence_count``, then the
    unfolded trie's seven node columns as lists of ints, ``id`` as strings.
    Child references are resolved as they are read (0: the next class), and
    the trie unfolds breadth-first with a dict per node from each label on
    its root path to that node, where a cycle-edge looks up its target.
    Checks nothing the package checks; an undecodable document raises
    whatever the decoding raises."""
    table, labels = decode_table(doc), doc["labels"]
    kids, cycles, numbered, at, edge = [], [], 1, 0, 0
    for classes, out in zip(table["child_count"], table["cycle_out"]):
        row = []
        for ref in table["child"][at : at + classes]:
            if ref == 0:
                ref, numbered = numbered, numbered + 1
            row.append(ref)
        kids.append(row)
        cycles.append(list(zip(table["cycle_label"][edge : edge + out], table["cycle_count"][edge : edge + out])))
        at, edge = at + classes, edge + out
    label = [None, *table["id"]]
    freq, terminal = [None, *table["freq"]], [None, *table["terminal_count"]]
    decoded = {key: doc[key] for key in HEADER_KEYS}
    columns: dict[str, list] = {key: [] for key in DECODED_KEYS[len(HEADER_KEYS) :]}
    queue = [(0, {})]  # (class, label -> node on the root path), in node order
    for node, (c, path) in enumerate(queue):
        columns["child_count"].append(len(kids[c]))
        columns["cycle_out"].append(len(cycles[c]))
        if node:
            columns["id"].append(labels[label[c]])
            columns["freq"].append(freq[c])
            columns["terminal_count"].append(terminal[c])
        for rid, taken in cycles[c]:
            columns["cycle_to"].append(path[rid])
            columns["cycle_count"].append(taken)
        for kid in kids[c]:
            queue.append((kid, {**path, label[kid]: len(queue)}))
    return {**decoded, **columns}


def _label_table(ids: list[Any]) -> list[Any]:
    """The distinct values of ``ids`` in order, strings first."""
    if all(type(rid) is str for rid in ids):
        return sorted(set(ids))
    labels: list[Any] = []
    for rid in sorted(ids, key=lambda rid: (0, rid) if type(rid) is str else (1, repr(rid))):
        if rid not in labels:
            labels.append(rid)
    return labels


def _minimal_table(columns: dict[str, Any], index: dict[str, int]) -> dict[str, list[int]]:
    """The minimal class table of a decoded trie: each node's subtree as a
    key (label, freq, terminal count, children's classes, cycle labels and
    counts), the last node first, then the classes numbered breadth-first
    from the root, each when first referenced."""
    ids, nodes = columns["id"], len(columns["id"]) + 1
    kids = [[] for _ in range(nodes)]
    for child, up in enumerate(expand_degrees(columns["child_count"]), 1):
        kids[up].append(child)
    out = [[] for _ in range(nodes)]
    for edge, source in enumerate(expand_degrees(columns["cycle_out"])):
        out[source].append((index[ids[columns["cycle_to"][edge] - 1]], columns["cycle_count"][edge]))
    key_of, classes, keys = [None] * nodes, {}, []
    for node in range(nodes - 1, -1, -1):
        key = (
            index[ids[node - 1]] if node else -1,
            columns["freq"][node - 1] if node else columns["sequence_count"],
            columns["terminal_count"][node - 1] if node else 0,
            tuple(key_of[kid] for kid in kids[node]),
            tuple(out[node]),
        )
        if key not in classes:
            classes[key] = len(keys)
            keys.append(key)
        key_of[node] = classes[key]
    number, order, child = {key_of[0]: 0}, [key_of[0]], []
    for c in order:
        for kid in keys[c][3]:
            if kid in number:
                child.append(number[kid])
            else:
                number[kid] = len(order)
                order.append(kid)
                child.append(0)
    rows = [keys[c] for c in order]
    return {
        "child_count": [len(row[3]) for row in rows],
        "cycle_out": [len(row[4]) for row in rows],
        "id": [row[0] for row in rows[1:]],
        "freq": [row[1] for row in rows[1:]],
        "terminal_count": [row[2] for row in rows[1:]],
        "child": child,
        "cycle_label": [rid for row in rows for rid, _ in row[4]],
        "cycle_count": [taken for row in rows for _, taken in row[4]],
    }


def encode_document(columns: dict[str, Any], minimal: bool = False) -> dict[str, Any]:
    """The decoded form as a format 5 document, written as a writer that
    checks nothing would write it: one class per node (every child
    reference 0, so class k is node k), or with ``minimal`` in DG mode the
    trie's minimal table, which the package writes; ``nodes``, ``classes``
    and ``class_edges`` follow the length of ``id``, and ``cycle_edges``
    and ``class_cycle_edges`` that of ``cycle_to``.  The label table is the
    distinct values of ``id`` in order (strings first); a cycle-edge is
    written as its target's label, and a target that is no node after the
    root as an index past the label table.  Each column is as wide as its
    largest value needs, and a value is stored modulo its width, so a
    negative one becomes one of the width's largest.  A float or a string
    in a column raises ``TypeError``."""
    ids = columns["id"]
    labels = _label_table(ids)
    index = {label: k for k, label in enumerate(labels) if type(label) is str}

    def label_of(rid: Any) -> int:
        return index[rid] if type(rid) is str else labels.index(rid)

    if minimal and columns["mode"] == "dg":
        table = _minimal_table(columns, index)
    else:
        targets = columns["cycle_to"]
        table = {
            **{name: columns[name] for name in ("child_count", "cycle_out", "freq", "terminal_count", "cycle_count")},
            "id": list(map(label_of, ids)),
            "child": [0] * len(ids),
            "cycle_label": [
                label_of(ids[to - 1]) if type(to) is int and 1 <= to <= len(ids) else len(labels) + abs(to)
                for to in targets
            ],
        }
    header = {key: columns[key] for key in HEADER_KEYS}
    return table_document(header, len(ids), len(columns["cycle_to"]), labels, table)


def table_document(header: dict[str, Any], nodes: int, cycle_edges: int, labels: list[Any], table: dict) -> dict[str, Any]:
    """A format 5 document around a class table given as its eight columns
    (``TABLE_ORDER`` names), written as a writer that checks nothing would:
    ``header`` gives ``format_version``, ``mode``, ``n`` and
    ``sequence_count``; ``classes``, ``class_edges`` and
    ``class_cycle_edges`` follow the lengths of ``id``, ``child`` and
    ``cycle_label``; each column is as wide as its largest value needs, a
    value stored modulo its width."""
    body, widths = [], []
    for name in TABLE_ORDER:
        values = list(map(operator.index, table[name]))
        width = next((width for width in (1, 2, 4, 8) if max(values, default=0) < 1 << 8 * width), 8)
        body += [(value % (1 << 8 * width)).to_bytes(width, "little") for value in values]
        widths.append(width)
    return {
        **header,
        "nodes": nodes,
        "cycle_edges": cycle_edges,
        "classes": len(table["id"]) + 1,
        "class_edges": len(table["child"]),
        "class_cycle_edges": len(table["cycle_label"]),
        "widths": widths,
        "labels": labels,
        "columns": base64.b64encode(zlib.compress(b"".join(body), 1)).decode("ascii"),
    }


# ---- format 4, the reference ---------------------------------------------------------
#
# Format 4's writer and reader as the package held them before format 5, moved
# verbatim apart from their names (``format4_``) and ``self``/``cls``: one
# column per node field, the trie unfolded in the document, and the column
# checker over nodes.  The reference for format 5's reader: a frozen trie
# read from format 5 must hold the columns this reader gives.

FORMAT4_COLUMNS = ("child_count", "cycle_out", "id", "freq", "terminal_count", "cycle_to", "cycle_count")
FORMAT4_HEADER_COUNTS = ("n", "sequence_count", "nodes", "cycle_edges")
FORMAT4_WIDTHS = (1, 2, 4, 8)
FORMAT4_LEVEL = 1
FORMAT4_TYPECODE = {array(code).itemsize: code for code in "BHILQ"}

def format4_width(top: int) -> int:
    """The narrowest unsigned width, 1, 2, 4 or 8 bytes, that holds ``top``
    (8 past that): the one width rule, for the columns of a document and for
    those of a ``FrozenTrie``."""
    return next((width for width in FORMAT4_WIDTHS if top >> 8 * width == 0), 8)


def format4_array(width: int, values: list[int]) -> array:
    """``values`` as an array of unsigned ints ``width`` bytes wide; a value
    that does not fit raises ``OverflowError``.  ``array`` converts each
    item of a 1- or 2-byte array through a format parser, about 3× as
    slowly as one of a wider array; ``bytes`` and ``struct.pack`` convert
    those widths in one C pass."""
    try:
        if width == 1:
            return array("B", bytes(values))
        if width == 2:
            return array("H", struct.pack(f"{len(values)}H", *values))
    except (ValueError, struct.error) as exc:  # below 0 or past the width
        raise OverflowError(exc) from None
    return array(FORMAT4_TYPECODE[width], values)


def format4_packed(values: Iterable[int]) -> array:
    """``values`` as an array of the width that holds their maximum.  A value
    past 8 bytes or below 0 raises ``OverflowError``."""
    values = list(values)  # references to ints the caller holds: no new int objects
    return format4_array(format4_width(max(values, default=0)), values)



def format4_encode(
    mode: TrieMode,
    n: int,
    sequence_count: int,
    nodes: int,
    cycle_edges: int,
    labels: list[str],
    columns: Iterable[Iterable[int]],
) -> dict[str, Any]:
    """The one writer of format 4: the document with this header and the
    seven columns in ``FORMAT4_COLUMNS`` order, each packed to its own width and
    compressed as it is taken, so that no moment holds every column.  A load
    checks the body against ``nodes`` and ``cycle_edges``, the writer's own
    counts.  A value past 8 bytes or below 0 raises ``OverflowError``."""
    packer = zlib.compressobj(FORMAT4_LEVEL)
    widths, parts = [], []
    for values in columns:
        column = format4_packed(values)
        if sys.byteorder == "big":
            column.byteswap()
        widths.append(column.itemsize)
        parts.append(packer.compress(column))
        del column  # the next column's list is built before this name is rebound
    parts.append(packer.flush())
    return {
        "format_version": 4,
        "mode": mode.value,
        **dict(zip(FORMAT4_HEADER_COUNTS, (n, sequence_count, nodes, cycle_edges))),
        "widths": widths,
        "labels": labels,
        "columns": base64.b64encode(b"".join(parts)).decode("ascii"),
    }



def format4_read_columns(text: Any, widths: list[int], lengths: list[int]) -> list[array]:
    """The seven columns of a document body, as arrays of their widths.  The body
    must inflate to exactly the size that ``widths`` and ``lengths``
    declare: the inflater is never asked for more than one byte past it."""
    if type(text) is not str:
        raise CorruptDocument("columns must be a base64 string")
    try:
        packed = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:  # ValueError: a character outside ASCII
        raise CorruptDocument(f"columns are not base64: {exc}") from None
    size = sum(map(mul, widths, lengths))
    inflater = zlib.decompressobj()
    try:
        body = inflater.decompress(packed, size + 1)
    except (zlib.error, OverflowError) as exc:  # OverflowError: a size no buffer can have
        raise CorruptDocument(f"columns are not a zlib stream: {exc}") from None
    del packed
    if len(body) > size:
        raise CorruptDocument(f"column body longer than the {size} bytes its header declares")
    if not inflater.eof:
        raise CorruptDocument("column stream cut short")
    if len(body) < size:
        raise CorruptDocument(f"column body shorter than the {size} bytes its header declares")
    if inflater.unused_data:
        raise CorruptDocument("data after the column stream")
    columns, at = [], 0
    with memoryview(body) as view:
        for width, length in zip(widths, lengths):
            column = array(FORMAT4_TYPECODE[width])
            column.frombytes(view[at : at + width * length])
            if sys.byteorder == "big":
                column.byteswap()
            columns.append(column)
            at += width * length
    return columns


def format4_first(flags: Iterable[Any], start: int = 0) -> int | None:
    """Position of the first true flag, counting from ``start``; None if there is none."""
    return next(compress(count(start), flags), None)


def format4_parents(child_count: Iterable[int]) -> list[int]:
    """Each node's parent (the root's: -1) from the child counts of nodes
    numbered level by level: node k's children are the next child_count[k]."""
    return [-1, *chain.from_iterable(map(repeat, count(), child_count))]


def format4_repeats_on_a_root_path(ids: list[Any], order: Iterable[int], pos: list[int], end: list[int]) -> int | None:
    """The first node, in pre-order, whose identifier an ancestor carries:
    subtrees nest, so it suffices to compare each node with the previous one
    in pre-order that has its identifier.  None if no root path repeats one."""
    last: dict[Any, int] = {}  # identifier -> the latest node in pre-order carrying it
    for node in islice(order, 1, None):
        rid = ids[node]
        before = last.get(rid)
        if before is not None and pos[node] < end[before]:
            return node
        last[rid] = node
    return None


def format4_preorder(parent: list[int]) -> tuple[array, list[int], list[int]]:
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
    del parent, free  # the caller hands its parents over: freed before the order and the ends are built
    order = array(FORMAT4_TYPECODE[format4_width(total)], [0]) * total  # read once, by the repeat rule: an array
    for node, at in enumerate(pos):
        order[at] = node
    return order, pos, list(map(add, pos, size))



def format4_columns(self: Trie) -> tuple[list[str], Iterator[Iterator[int]]]:
    """The document's label table and its seven columns, in
    ``document.FORMAT4_COLUMNS`` order, each an iterator made when the one
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


def format4_document(trie: Trie) -> dict[str, Any]:
    """``Trie.to_document`` as format 4 wrote it."""
    return format4_encode(trie.mode, trie.n, trie.sequence_count, len(trie.id) - 1, len(trie.cycle_to), *format4_columns(trie))


def format4_from_document(doc: dict[str, Any]) -> SimpleNamespace:
    """Decode a format 4 document and check it: a malformed one raises
    ``CorruptDocument`` (another format, format 3 included,
    ``FormatVersionMismatch``), and one that loads thaws into a trie
    that ``Trie.check_invariants`` passes.

    The header first: its counts exact ints >= 0, ``n`` 0 in DG mode,
    ``labels`` an array, ``widths`` seven of 1, 2, 4 or 8.  Then the
    body: base64, one zlib stream inflating to exactly the size the
    widths and counts declare, and nothing after it.  The column checker
    (``_from_columns``) runs on the decoded arrays; an unsigned column
    holds no bool, float or negative number, so no check looks for one.
    """
    try:
        version = doc["format_version"]
    except (TypeError, KeyError):
        raise CorruptDocument("missing format_version header") from None
    if type(version) is not int or version != 4:
        raise FormatVersionMismatch(f"format_version {version!r}, supported: 4")
    try:
        mode = TrieMode(doc["mode"])
        header = n, sequence_count, nodes, edges = [doc[key] for key in FORMAT4_HEADER_COUNTS]
        labels, widths, text = doc["labels"], doc["widths"], doc["columns"]
    except (KeyError, ValueError, TypeError) as exc:
        raise CorruptDocument(f"malformed header: {exc}") from None
    if any(type(value) is not int or value < 0 for value in header):
        raise CorruptDocument("header counts must be non-negative integers")
    if n and mode is TrieMode.DG:
        raise CorruptDocument(f"a DG trie has window length 0, got n {n}")
    if type(labels) is not list:
        raise CorruptDocument("labels must be an array")
    malformed = type(widths) is not list or len(widths) != len(FORMAT4_COLUMNS)
    if malformed or any(type(width) is not int or width not in FORMAT4_WIDTHS for width in widths):
        raise CorruptDocument(f"widths must be {len(FORMAT4_COLUMNS)} column widths of 1, 2, 4 or 8 bytes")
    columns = format4_read_columns(text, widths, [nodes + 1, nodes + 1, nodes, nodes, nodes, edges, edges])
    del doc, text  # a caller that hands the document over (load_frozen does) gets its text freed
    return format4_from_columns(mode, n, sequence_count, labels, *columns)

def format4_from_columns(
    mode: TrieMode,
    n: int,
    sequence_count: int,
    labels: list[Any],
    child_count: array,
    cycle_out: array,
    ids: array,
    freqs: array,
    terminal_counts: array,
    targets: array,
    counts: array,
) -> SimpleNamespace:
    """The column checker: every rule a document's columns must pass,
    on unsigned arrays of the lengths the header gives (the decoder and
    ``Trie.check_invariants`` hand it those), ``ids`` indices into
    ``labels``.  Returns a plain holder of the node columns, with the
    attribute names a frozen trie had in format 4.  Keeps the cycle-edge
    arrays it is given and
    ``terminal_counts``, with the root's 0 put in front; ``id`` becomes a
    list of the table's strings, and ``freq``, ``entry``, ``first`` and
    ``efirst`` arrays wide enough for their values.  Only the node
    columns that the cycle-edge pass reads per edge (``rid``, ``entry``
    and the pre-order intervals) are lists while it runs: reading an
    array makes an int object per read.

    Shape first: the table's labels nonempty strings in strictly
    increasing order, so that index order is label order; label indices
    inside the table; degree counts summing to the node and cycle-edge
    counts; parents before children.  Then the rules, over whole
    columns: non-root ``freq`` >= 1; siblings in strictly increasing
    label order; cycle-edge targets below the root and counts >= 1; no
    cycle-edge in DAG mode.  In DG mode one Python pass over the
    cycle-edges tests each target as an ancestor-or-self of its source on
    ``_preorder``'s intervals, requires each source's labels strictly
    increasing, subtracts the arrivals from ``entry`` and sums each
    source's outflow.  Then ``entry`` >= 0, conservation (descents as
    differences of a prefix sum of ``entry`` at the child offsets, plus
    the outflow only where a cycle-edge exists), in DG mode no
    identifier repeated on a root path, and last ``sequence_count``, the
    root's ``freq``, within 8 bytes as every column value is.  The
    per-depth table is derived data, not a rule: ``depth_stats`` sums it
    on first access.

    The format implies the rules a builder's dicts could still break: an
    edge's label is its target's identifier by definition, ``entry`` is
    derived from the arrivals, label order leaves no duplicate child or
    cycle-edge, and a cycle-edge labelled like a child of its source
    would repeat that label on the child's root path, since the edge
    returns to an ancestor-or-self of the source.  The builder's wiring
    and its own ``entry`` are ``Trie.check_invariants``'s to check.
    """
    if set(map(type, labels)) - {str} or "" in labels:
        raise CorruptDocument("identifiers must be nonempty strings")
    at = format4_first(map(ge, labels, islice(labels, 1, None)))
    if at is not None:
        raise CorruptDocument(f"label table not strictly increasing at label {at + 1}: {labels[at + 1]!r}")
    rid = [-1, *ids]  # label indices, the root's -1; a list: the cycle-edge pass reads it per edge
    if max(rid) >= len(labels):
        raise CorruptDocument(f"label index {max(rid)} outside a table of {len(labels)} labels")
    if sum(child_count) != len(ids) or sum(cycle_out) != len(targets):
        raise CorruptDocument("child or cycle-edge counts do not sum to the node or cycle-edge count")
    first = list(accumulate(child_count, initial=1))  # node k's children: first[k]:first[k + 1]
    at = format4_first(map(le, islice(first, 1, len(child_count)), count(1)), 1)  # node k's parent is below k
    if at is not None:
        raise CorruptDocument(f"parent not before node {at}")

    entry = [0, *freqs]  # a list: the cycle-edge pass decrements it per edge
    nodes, dag = len(rid), mode is TrieMode.DAG
    if min(freqs, default=1) < 1:
        raise CorruptDocument("node statistic out of range")
    # a node j with j - 1 as its sibling starts no child range; the others must sort after j - 1
    unsorted = compress(count(2), map(ge, islice(rid, 1, None), islice(rid, 2, None)))
    at = next(filterfalse(set(first).__contains__, unsorted), None)
    if at is not None:
        up = bisect_right(first, at) - 1
        if rid[at] == rid[at - 1]:
            raise CorruptDocument(f"duplicate child at node {at - 1}: {labels[rid[at]]!r} under node {up}")
        raise CorruptDocument(f"siblings out of label order at node {at}: {labels[rid[at]]!r} under node {up}")
    if targets:
        if dag:
            raise CorruptDocument(f"cycle-edges on DAG-mode node {format4_first(cycle_out)}")
        if min(targets) < 1:
            raise CorruptDocument(f"cycle-edge {targets.index(min(targets))} into the root")
        if min(counts) < 1:
            raise CorruptDocument(f"cycle-edge {counts.index(min(counts))} without traversals")
    cycled = None  # each node's outflow along its cycle-edges, where there are any
    if not dag:
        order, pos, end = format4_preorder(format4_parents(child_count))
    if targets:
        cycled = [0] * nodes
        edges = zip(targets, counts)
        try:  # a target past the last node raises IndexError
            for source, out in zip(compress(count(), cycle_out), filter(None, cycle_out)):
                here, before, outflow = pos[source], -1, 0  # every label index is above -1
                for target, taken in islice(edges, out):
                    if not pos[target] <= here < end[target]:
                        raise CorruptDocument(f"cycle-edge target not an ancestor at node {source}")
                    label = rid[target]
                    if label <= before:
                        what = "duplicate cycle-edge" if label == before else "cycle-edges out of label order"
                        raise CorruptDocument(f"{what} at node {source}: {labels[label]!r}")
                    before = label
                    entry[target] -= taken
                    outflow += taken
                cycled[source] = outflow
        except IndexError:
            raise CorruptDocument("cycle-edge target outside the trie") from None
    efirst = list(accumulate(cycle_out, initial=0))  # node k's cycle-edges: efirst[k]:efirst[k + 1]
    efirst = format4_array(format4_width(efirst[-1]), efirst)
    del child_count, cycle_out
    if min(entry) < 0:
        raise CorruptDocument(f"entry count out of range at node {entry.index(min(entry))}")
    entry = format4_array(freqs.itemsize, entry)  # entry[k] <= freq[k]; freed as a list before the prefix sum
    below = list(map(list(accumulate(entry, initial=0)).__getitem__, first))  # entries before each child range
    terminal_counts.insert(0, 0)  # the root's: now the stored terminal column
    outflow = map(add, terminal_counts, map(sub, islice(below, 1, None), below))  # terminations plus descents
    if cycled is not None:
        outflow = map(add, outflow, cycled)
    at = format4_first(map(ne, chain((sequence_count,), freqs), outflow))
    if at is not None:
        raise CorruptDocument(f"conservation violated at node {at}")
    del below, cycled
    if not dag:
        at = format4_repeats_on_a_root_path(rid, order, pos, end)
        if at is not None:
            raise CorruptDocument(f"identifier repeats on the root path at node {at}")
        del order, pos, end
    ids = [None, *map(labels.__getitem__, islice(rid, 1, None))]  # one shared string per label
    if sequence_count >> 64:  # the root's freq, a column value like any other
        raise CorruptDocument("sequence_count past 8 bytes")
    freq = array(FORMAT4_TYPECODE[max(freqs.itemsize, format4_width(sequence_count))], freqs)  # a copy when the width holds
    freq.insert(0, sequence_count)
    first = format4_array(format4_width(first[-1]), first)
    return SimpleNamespace(
        mode=mode, n=n, id=ids, freq=freq, entry=entry, terminal=terminal_counts,
        first=first, efirst=efirst, cycle_to=targets, cycle_count=counts,
    )




# ---- every node of a trie, in node order ------------------------------------------


def touch_every_node(trie: Any) -> None:
    """Read node k's child and cycle-edge maps for k = 0, 1, 2, ... until
    every node has been read.  A ``FrozenTrie`` makes a node's children on
    the first read of its map and numbers them next, so on one this makes
    every node, numbered breadth-first as a loaded ``Trie`` numbers them; on
    a ``Trie`` it only reads."""
    node = 0
    while node < len(trie.id):
        trie.children[node]
        trie.cycles[node]
        node += 1


def node_columns(trie: Any) -> dict[str, list]:
    """Every node column of ``trie``, a ``Trie`` or a ``FrozenTrie``, after
    ``touch_every_node``, as lists: ``id``, ``freq``, ``entry``,
    ``terminal``, ``cycle_to`` and ``cycle_count``, and the offsets of each
    node's children and cycle-edges, ``first`` (from 1) and ``efirst``
    (from 0), as format 4's reader held them."""
    touch_every_node(trie)
    nodes = range(len(trie.id))
    columns = {name: list(getattr(trie, name)) for name in ("id", "freq", "entry", "terminal", "cycle_to", "cycle_count")}
    columns["first"] = list(accumulate((len(trie.children[k]) for k in nodes), initial=1))
    columns["efirst"] = list(accumulate((len(trie.cycles[k]) for k in nodes), initial=0))
    return columns


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
# loader's expansion of the degree columns has an independent reference;
# under format 5 they write and read format 3's columns, which
# ``decode_document`` and ``encode_document`` turn into documents.
# ``tests/test_trie.py`` requires equal decoded columns and equal checker
# verdicts from both.


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
        """Columnar document tree, in ``decode_document``'s form.

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
        """Rebuild a trie from a document in ``decode_document``'s form,
        validating every invariant.

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
# line, kept verbatim apart from the names and the line split as the
# reference for the parser's differential fuzz test in
# ``tests/test_ingest.py``.  It splits a string at the N-Triples line ends,
# ``\n``, ``\r\n`` and ``\r``, where it once used ``str.splitlines``.

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
    lines = re.split(r"\r\n?|\n", source) if isinstance(source, str) else source
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


# ---- the statement pattern spelled with \s ---------------------------------------
#
# ``provtrie.ingest``'s statement pattern as it was built before its
# IRI/blank-node class was spelled as code-point ranges, kept verbatim apart
# from the names as the reference for the pattern's differential test.


def _statement_pattern(space: str, term: str, body: str, escaped: str) -> re.Pattern[str]:
    """A statement line spelled with the given character classes.

    ``space`` is whitespace, ``term`` a character of an IRI or blank-node
    label, ``body`` an unescaped literal character and ``escaped`` the
    character after a backslash.  Groups: subject IRI | blank, predicate,
    object IRI | blank | literal.
    """
    iri = rf"<({term}*)>"
    blank = rf"(_:{term}+)"
    # unrolled "(?:[^"\\]|\\.)*": the same strings, without one alternation per character
    literal = rf'("{body}*(?:\\{escaped}{body}*)*"(?:@[A-Za-z][A-Za-z0-9\-]*|\^\^<{term}*>)?)'
    return re.compile(rf"{space}*(?:{iri}|{blank}){space}+{iri}{space}+(?:{iri}|{blank}|{literal}){space}*\.{space}*")


SPACE_CLASS_TERM = r"[^<>\s]"
SPACE_CLASS_LINE = _statement_pattern(r"\s", SPACE_CLASS_TERM, r'[^"\\]', ".")


def per_triple_triples_to_graph(
    triples: Iterable[tuple[str, str, str]],
    pmap: PredicateMap | None = None,
    kind: GraphKind = GraphKind.DAG,
) -> ProvGraph:
    """``triples_to_graph`` as it was before ``ProvGraph.add_edges``: three
    construction calls per mapped triple.  Kept verbatim apart from the name
    as the reference for the graph build's differential test."""
    pmap = pmap if pmap is not None else PredicateMap.default()
    g = ProvGraph(kind)
    for subj, pred, obj in triples:
        direction = pmap.rules.get(pred)
        if direction is None:
            continue
        src, dst = (subj, obj) if direction is Direction.S2O else (obj, subj)
        g.add_node(src)
        g.add_node(dst)
        g.add_edge(src, dst)
    if kind is GraphKind.DAG and not g.validate_dag():
        raise CyclicInput("triples describe a cyclic graph; cannot build a DAG")
    return g


def digits(count: int) -> str:
    """The decimal digits of a count of any size, in 4-digit chunks, so
    that no conversion meets the interpreter's int-to-str digit limit."""
    chunks = []
    while count >= 10_000:
        count, low = divmod(count, 10_000)
        chunks.append(f"{low:04d}")
    return str(count) + "".join(reversed(chunks))


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
        key = (node.index, i)
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
