"""The trie document, format 5: its encoding, its reader, the class table
every trie is written as, and every rule a document must pass.

A trie repeats itself: on K8 its 109,600 nodes head only 1,025 distinct
subtrees, one per Held-Karp DFS state plus the root.  A document stores
each distinct subtree once, as a *class*: the trie's minimal class table,
the minimal automaton's sharing of identical subtrees (Daciuk, Mihov,
Watson & Watson, Computational Linguistics 26(1), 2000) applied to the
statistically enriched trie.  A class has a label, ``freq``, a terminal
count, its child classes in label order and its cycle-edges, by label and
in label order, each with its count.  In DG mode a cycle-edge returns to
the one ancestor-or-self that carries its label, so a class means the same
at every place it occurs; ``entry`` is derived, as ``freq`` less the
arrivals that the class's own subtree sends back to it.

A document is one JSON object.  Its header holds ``format_version`` (5),
``mode``, ``n``, ``sequence_count``, ``nodes`` and ``cycle_edges`` (the
unfolded trie's non-root nodes and cycle-edges), ``classes`` (the root's
included), ``class_edges`` (child references) and ``class_cycle_edges``,
``widths`` and ``labels``, the sorted, distinct, nonempty identifiers.
``columns`` is the body: the eight columns of ``COLUMNS`` in that order,
each as little-endian unsigned integers of its width (1, 2, 4 or 8 bytes,
the narrowest that holds its largest value), one zlib stream at level
``LEVEL``, in base64.  ``child_count`` and ``cycle_out`` hold one entry
per class, the root's first; ``id``, ``freq`` and ``terminal_count`` one
per class after the root, ``id`` as an index into ``labels``; ``child``
one per child reference; ``cycle_label`` (an index into ``labels``) and
``cycle_count`` one per cycle-edge of a class.  Class k's child
references are the next ``child_count[k]`` and its cycle-edges the next
``cycle_out[k]``.  Classes are numbered breadth-first from the root, 0,
each when it is first referenced: a ``child`` of 0 is the next class not
yet numbered, and k >= 1 is class k, numbered before, so a tree's child
references cost no bytes and equal tries give equal documents.  The body
must inflate to exactly the bytes its header declares, so a document
cannot make the reader inflate more; like any decompressor's input,
though, a small table may unfold into a large trie.

``_check`` is the class checker: every rule a table must pass, over the
classes and never over the nodes, with ``entry`` derived from each
subtree's arrivals per label.  ``_unfold`` is the one unfold of a table
into the trie's nodes, breadth-first; ``FrozenTrie.from_document`` and
``trie.Trie.index_graph`` both consume it.  ``encode`` is the one
encoder; the one minimizer that makes the tables it encodes,
``trie.minimize``, lives with the writers, so that a read command, which
compiles this module, never compiles it.
``FrozenTrie`` is the reader: the unfolded columns and the prefix sums of
its degree columns, with no dict (a static beside a dynamic tree, as in
Navarro & Sadakane, ACM TALG 2014); its numeric columns stay fixed-width
``array``s, each of a width ``_width`` picks as it does for a document's
columns, so no int object per value outlives the load.  Its
``children[k]`` and ``cycles[k]`` are label -> index views over node k's
ranges, which the queries read as they read the builder's dicts.  A
frozen trie sums its per-depth table, derived data, on the first read of
``depth_stats``, which ``query`` and ``suggest`` never make.  This module
never imports the builder.
"""
from __future__ import annotations

import base64
import binascii
import json
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property, partial
from itertools import accumulate, chain, compress, count, filterfalse, islice, repeat
from operator import add, ge, itemgetter, le, mul, ne, not_, sub
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

from .kinds import GraphKind

FORMAT_VERSION = 5
COLUMNS = ("child_count", "cycle_out", "id", "freq", "terminal_count", "child", "cycle_label", "cycle_count")
HEADER_COUNTS = ("n", "sequence_count", "nodes", "cycle_edges", "classes", "class_edges", "class_cycle_edges")
WIDTHS = (1, 2, 4, 8)
LEVEL = 1  # zlib's fastest level: a class table is small, and a level above it buys little more
_TYPECODE = {array(code).itemsize: code for code in "BHILQ"}  # width -> an unsigned typecode of that size


class TrieError(Exception):
    """Base class for trie construction and persistence failures."""


class FormatVersionMismatch(TrieError):
    """Persisted document written by an incompatible format version."""


class CorruptDocument(TrieError):
    """A structural or statistical invariant does not hold."""


TrieMode = GraphKind  # a trie's mode is the kind of graph it indexes: one enum, two names


def _width(top: int) -> int:
    """The narrowest unsigned width, 1, 2, 4 or 8 bytes, that holds ``top``
    (8 past that): the one width rule, for the columns of a document and for
    those of a ``FrozenTrie``."""
    return next((width for width in WIDTHS if top >> 8 * width == 0), 8)


def _array(width: int, values: list[int]) -> array:
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
    return array(_TYPECODE[width], values)


def _packed(values: Iterable[int]) -> array:
    """``values`` as an array of the width that holds their maximum.  A value
    past 8 bytes or below 0 raises ``OverflowError``."""
    values = list(values)  # references to ints the caller holds: no new int objects
    return _array(_width(max(values, default=0)), values)


class Table:
    """A class table, the root 0: per class its label (an index into the
    label table; the root's -1), ``freq`` (the root's: the sequence count),
    ``entry`` (the root's: 0) and ``terminal``; its children are the classes
    ``kid[first[k]:first[k + 1]]`` (``kid[0]`` is the root, so the offsets
    start at 1 as a tree's node offsets do, and a tree's ``kid`` is
    ``range(classes)``) and its cycle-edges the labels and counts at
    ``efirst[k]:efirst[k + 1]`` of ``cycle_label`` and ``cycle_count``, each
    in label order.  The checker derives ``entry``; the unfold reads it.  A
    plain class: a ``NamedTuple`` would double this module's import time."""

    __slots__ = ("label", "freq", "entry", "terminal", "first", "kid", "efirst", "cycle_label", "cycle_count")

    def __init__(
        self,
        label: list[int],
        freq: list[int],
        entry: list[int],
        terminal: list[int],
        first: list[int],
        kid: Sequence[int],
        efirst: list[int],
        cycle_label: Sequence[int],
        cycle_count: Sequence[int],
    ) -> None:
        self.label, self.freq, self.entry, self.terminal = label, freq, entry, terminal
        self.first, self.kid, self.efirst = first, kid, efirst
        self.cycle_label, self.cycle_count = cycle_label, cycle_count


def encode(
    mode: TrieMode,
    n: int,
    sequence_count: int,
    nodes: int,
    cycle_edges: int,
    labels: list[str],
    columns: Iterable[Iterable[int]],
) -> dict[str, Any]:
    """The one writer of format 5: the document with this header and the
    eight columns in ``COLUMNS`` order (``trie.minimize``'s), each packed to
    its own width and compressed as it is taken.  ``classes``, ``class_edges``
    and ``class_cycle_edges`` are the lengths of ``child_count``, ``child``
    and ``cycle_label``.  A load checks the table against ``nodes`` and
    ``cycle_edges``, the writer's own counts.  A value past 8 bytes or below
    0 raises ``OverflowError``."""
    packer = zlib.compressobj(LEVEL)
    widths, lengths, parts = [], [], []
    for values in columns:
        column = _packed(values)
        if sys.byteorder == "big":
            column.byteswap()
        widths.append(column.itemsize)
        lengths.append(len(column))
        parts.append(packer.compress(column))
        del column  # the next column's list is built before this name is rebound
    parts.append(packer.flush())
    return {
        "format_version": FORMAT_VERSION,
        "mode": mode.value,
        **dict(zip(HEADER_COUNTS, (n, sequence_count, nodes, cycle_edges, lengths[0], lengths[5], lengths[6]))),
        "widths": widths,
        "labels": labels,
        "columns": base64.b64encode(b"".join(parts)).decode("ascii"),
    }


def _read_columns(text: Any, widths: list[int], lengths: list[int]) -> list[array]:
    """The columns of a document body, as arrays of their widths.  The body
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
            column = array(_TYPECODE[width])
            column.frombytes(view[at : at + width * length])
            if sys.byteorder == "big":
                column.byteswap()
            columns.append(column)
            at += width * length
    return columns


def _first(flags: Iterable[Any], start: int = 0) -> int | None:
    """Position of the first true flag, counting from ``start``; None if there is none."""
    return next(compress(count(start), flags), None)


def _parents(child_count: Iterable[int]) -> list[int]:
    """Each node's parent (the root's: -1) from the child counts of nodes
    numbered level by level: node k's children are the next child_count[k]."""
    return [-1, *chain.from_iterable(map(repeat, count(), child_count))]


def _ranges(values: Sequence[int], first: list[int]) -> list[Sequence[int]]:
    """``values[first[k]:first[k + 1]]`` for each k: a flat column cut per class."""
    return list(map(values.__getitem__, map(slice, first, islice(first, 1, None))))


def _out_of_order(labels: list[int], first: list[int]) -> int | None:
    """The first position of ``labels`` whose label is not above the one
    before it in the same range (ranges start at the positions in ``first``)."""
    unsorted = compress(count(1), map(ge, labels, islice(labels, 1, None)))
    return next(filterfalse(set(first).__contains__, unsorted), None)


def _check(
    mode: TrieMode,
    sequence_count: int,
    labels: list[Any],
    child_count: array,
    cycle_out: array,
    ids: array,
    freqs: array,
    terminals: array,
    child: array,
    cycle_label: array,
    cycle_count: array,
) -> tuple[Table, int, int]:
    """The class checker: every rule a class table must pass, on unsigned
    arrays of the lengths the header gives (the decoder and
    ``Trie.check_invariants`` hand it those).  Returns the checked table,
    with ``entry`` derived, and the node and cycle-edge counts it unfolds
    to.  Only the DG rules and the acyclicity check of a table that shares
    a class loop over classes in Python; the rest, and a DAG tree's whole
    check, runs over whole columns.

    Shape first: the label table's labels nonempty strings in strictly
    increasing order; label indices inside it; degree counts summing to the
    column lengths; child references that number every class after the root
    exactly once, each class numbered by the references of classes before
    it, and refer back only to classes already numbered; the class graph
    acyclic.  Then the rules: non-root ``freq`` >= 1; children and
    cycle-edges in strictly increasing label order; cycle counts >= 1; no
    cycle-edge in DAG mode.  In DG mode, over the classes in topological
    order: a class's cycle labels on every root path of every place it
    occurs (the intersection over its parents' paths), and then, from the
    leaves up, ``entry`` as ``freq`` less the arrivals its subtree sends to
    its own label.  Then ``entry`` >= 0, conservation (``freq`` equals
    terminations plus the children's ``entry`` plus the cycle counts; the
    root's ``freq`` is ``sequence_count``), in DG mode no class's label on
    any root path above it (the union over its parents' paths),
    ``sequence_count`` within 8 bytes as every column value is, and last
    the unfolded sizes.

    The format implies the rules a builder's dicts could still break: an
    edge's label is its target's identifier by definition, label order
    leaves no duplicate child or cycle-edge, and a cycle-edge labelled like
    a child of its class would repeat that label on the child's root path.
    """
    classes = len(child_count)
    if not classes:
        raise CorruptDocument("a class table holds at least the root's class")
    if set(map(type, labels)) - {str} or "" in labels:
        raise CorruptDocument("identifiers must be nonempty strings")
    at = _first(map(ge, labels, islice(labels, 1, None)))
    if at is not None:
        raise CorruptDocument(f"label table not strictly increasing at label {at + 1}: {labels[at + 1]!r}")
    top = max(max(ids, default=-1), max(cycle_label, default=-1))
    if top >= len(labels):
        raise CorruptDocument(f"label index {top} outside a table of {len(labels)} labels")
    if sum(child_count) != len(child) or sum(cycle_out) != len(cycle_label):
        raise CorruptDocument("child or cycle-edge counts do not sum to the class-edge or class cycle-edge count")
    # kid[e] is the class of reference e, from 1; kid[0] is the root, referred to from above the table
    first = list(accumulate(child_count, initial=1))  # class k's children: kid[first[k]:first[k + 1]]
    tree = not any(child)  # every reference numbers the next class: node k is class k
    if tree:
        numbered: Sequence[int] = range(1, len(child) + 2)
        kid: Sequence[int] = range(len(child) + 1)
    else:
        numbered = list(accumulate(map(not_, child), initial=1))  # classes numbered up to each reference
        kid = [0, *(ref or number - 1 for ref, number in zip(child, islice(numbered, 1, None)))]
        at = _first(map(ge, islice(kid, 1, None), islice(numbered, 1, None)), 1)
        if at is not None:
            up = bisect_right(first, at) - 1
            past = f"past the {numbered[at]} classes numbered, under class {up}"
            raise CorruptDocument(f"child reference {kid[at]} {past}")
    if numbered[-1] != classes:
        if numbered[-1] > classes:
            raise CorruptDocument(f"child references past the table of {classes} classes")
        raise CorruptDocument(f"class {numbered[-1]} is no class's child")
    # class k is numbered by a reference of a class before it: by one of the first first[k] - 1
    starts = islice(first, 1, classes)
    before = starts if tree else map(numbered.__getitem__, map((-1).__add__, starts))
    at = _first(map(le, before, count(1)), 1)
    if at is not None:
        raise CorruptDocument(f"parent not before class {at}")
    del numbered
    kids: list[Sequence[int]] = []  # per class, its children: cut when a pass over classes needs them
    order: Sequence[int] = range(classes)  # a topological order: the numbering unless a reference points back
    if not tree and any(map(le, islice(kid, 1, None), chain.from_iterable(map(repeat, count(), child_count)))):
        kids = _ranges(kid, first)
        waiting = [0] * classes
        for k in islice(kid, 1, None):
            waiting[k] += 1
        order = [0]
        for up in order:
            for k in kids[up]:
                waiting[k] -= 1
                if not waiting[k]:
                    order.append(k)
        if len(order) < classes:
            raise CorruptDocument(f"class table has a cycle through or above class {_first(waiting)}")

    dag = mode is TrieMode.DAG
    if min(freqs, default=1) < 1:
        raise CorruptDocument("class statistic out of range")
    label = [-1, *ids]
    kid_labels = label if tree else list(map(label.__getitem__, kid))
    at = _out_of_order(kid_labels, first)
    if at is not None:
        up = bisect_right(first, at) - 1
        what = "duplicate child" if kid_labels[at] == kid_labels[at - 1] else "siblings out of label order"
        raise CorruptDocument(f"{what} under class {up}: {labels[kid_labels[at]]!r}")
    del kid_labels
    # class k's cycle-edges: efirst[k]:efirst[k + 1]
    efirst = list(accumulate(cycle_out, initial=0)) if cycle_label else [0] * (classes + 1)
    if cycle_label:
        if dag:
            raise CorruptDocument(f"cycle-edges on DAG-mode class {_first(cycle_out)}")
        if min(cycle_count) < 1:
            raise CorruptDocument(f"cycle-edge {cycle_count.index(min(cycle_count))} without traversals")
        at = _out_of_order(list(cycle_label), efirst)
        if at is not None:
            up = bisect_right(efirst, at) - 1
            same = cycle_label[at] == cycle_label[at - 1]
            what = "duplicate cycle-edge" if same else "cycle-edges out of label order"
            raise CorruptDocument(f"{what} at class {up}: {labels[cycle_label[at]]!r}")
    freq = [sequence_count, *freqs]
    terminal = [0, *terminals]
    entry = freq.copy()
    repeated = None  # the first class, in topological order, whose label repeats on a root path
    if not dag:
        kids = kids or _ranges(kid, first)
        cycles, taken = _ranges(cycle_label, efirst), _ranges(cycle_count, efirst)
        always = [-1] * classes  # per class: the labels on every root path above it, as bits
        ever = [0] * classes  # and the labels on any
        for up in order:
            rid = label[up]
            bit = 1 << rid if up else 0
            if ever[up] & bit and repeated is None:
                repeated = up
            must, may = (always[up] | bit, ever[up] | bit) if up else (0, 0)
            for rid in cycles[up]:
                if not must >> rid & 1:
                    raise CorruptDocument(f"cycle-edge label {labels[rid]!r} not on every root path of class {up}")
            for k in kids[up]:
                always[k] &= must
                ever[k] |= may
        del always, ever
        above: list[dict[int, int] | None] = [None] * classes  # per class: its subtree's arrivals above it, per label
        for up in reversed(order):  # from the leaves up
            arrivals = dict(zip(cycles[up], taken[up]))
            for below in map(above.__getitem__, kids[up]):
                if below:
                    for rid, times in below.items():
                        arrivals[rid] = arrivals.get(rid, 0) + times
            entry[up] -= arrivals.pop(label[up], 0)
            above[up] = arrivals or None
        del above, cycles, taken
        if min(entry) < 0:
            raise CorruptDocument(f"entry count out of range at class {entry.index(min(entry))}")
    below = list(accumulate(entry if tree else map(entry.__getitem__, kid), initial=0))  # entries before each reference
    descents = map(sub, map(below.__getitem__, islice(first, 1, None)), map(below.__getitem__, first))
    outflow = map(add, terminal, descents)  # terminations plus descents
    if cycle_label:
        cycled = list(accumulate(cycle_count, initial=0))
        taken = map(sub, map(cycled.__getitem__, islice(efirst, 1, None)), map(cycled.__getitem__, efirst))
        outflow = map(add, outflow, taken)
    at = _first(map(ne, freq, outflow))
    if at is not None:
        raise CorruptDocument(f"conservation violated at class {at}")
    del below
    if repeated is not None:
        raise CorruptDocument(f"identifier {labels[label[repeated]]!r} repeats on the root path of class {repeated}")
    if sequence_count >> 64:  # the root's freq, a column value like any other
        raise CorruptDocument("sequence_count past 8 bytes")
    if tree:  # one node per class
        nodes, edges = classes - 1, len(cycle_label)
    else:
        kids = kids or _ranges(kid, first)
        times = [0] * classes  # the places each class occurs
        times[0] = 1
        for up in order:
            if times[up]:
                for k in kids[up]:
                    times[k] += times[up]
        nodes, edges = sum(times) - 1, sum(map(mul, times, cycle_out))
    entry[0] = 0  # the root is never descended into
    return Table(label, freq, entry, terminal, first, kid, efirst, cycle_label, cycle_count), nodes, edges


def _unfold(table: Table) -> tuple[Sequence[int], array, array, array]:
    """The one unfold of a class table into its trie, nodes numbered
    breadth-first, children in label order, the root 0: each node's class,
    the offsets of each node's children (node k's are the nodes
    ``first[k]:first[k + 1]``) and cycle-edges, and each cycle-edge's target
    node, by source and then label, the last three as arrays.

    The classes of a depth's nodes are their parents' children, in order, so
    the node order and both offset columns come level by level with no
    per-node step.  The targets come from one depth-first walk over the
    nodes with one map, label -> the last node entered that carries it: in
    DG mode a label is on a root path at most once, so the node a cycle-edge
    returns to is the one its label maps to when the edge's source is
    entered; a node is entered in the map only when a cycle-edge of its
    subtree returns to it.  Each node's targets are packed into their array
    as they are found, so no int object per cycle-edge is made.  A tree is
    its own unfold, node k class k."""
    label, first, kid, efirst = table.label, table.first, table.kid, table.efirst
    classes = len(label)
    if type(kid) is range:  # a tree: node k is class k
        order: Sequence[int] = range(classes)
        nodes = _array(_width(first[-1]), first)
        edges = _array(_width(efirst[-1]), efirst)
    else:
        degree = list(map(sub, islice(first, 1, None), first))
        kids = _ranges(kid, first)
        order, level = [0], list(kids[0])
        while level:
            order += level
            level = list(chain.from_iterable(map(kids.__getitem__, level)))
        nodes = _packed(accumulate(map(degree.__getitem__, order), initial=1))
        out = list(map(sub, islice(efirst, 1, None), efirst))
        edges = _packed(accumulate(map(out.__getitem__, order), initial=0))
    width = _width(len(order) - 1)  # a target is a node's number
    targets = array(_TYPECODE[width], bytes(width * edges[-1]))
    if not targets:
        return order, nodes, edges, targets
    degree = list(map(sub, islice(first, 1, None), first))
    here = list(map(ne, table.freq, table.entry))  # per class: a cycle-edge of its subtree returns to it
    cycles = _ranges(table.cycle_label, efirst)
    # per class: its cycle-edges' targets read off the map (a tuple, or for one edge its label), and their packer
    many = [itemgetter(*labels) if len(labels) > 1 else None for labels in cycles]
    one = [labels[0] if len(labels) == 1 else None for labels in cycles]
    pack = [struct.Struct(f"={len(labels)}{targets.typecode}").pack_into if labels else None for labels in cycles]
    at: dict[int, int] = {}
    walk = [iter(range(nodes[0], nodes[1]))]  # per depth on the walk, the rest of its siblings
    while walk:
        for node in walk[-1]:
            c = order[node]
            if here[c]:
                at[label[c]] = node
            if many[c] is not None:
                pack[c](targets, width * edges[node], *many[c](at))
            elif one[c] is not None:
                targets[edges[node]] = at[one[c]]
            if degree[c]:
                walk.append(iter(range(nodes[node], nodes[node + 1])))
                break
        else:
            walk.pop()
    return order, nodes, edges, targets


def _gathered(
    order: Sequence[int], values: Sequence[int], first: list[int] | None = None, top: int | None = None
) -> array:
    """Each node's value of a per-class column, in node order (``order``
    holds each node's class), as an array of the width that ``top`` (by
    default the classes' largest value) needs: each class's bytes made once
    and joined per node.  With ``first``, class k holds the values
    ``values[first[k]:first[k + 1]]`` and a node takes all of them.  A
    tree's nodes are its classes."""
    column = array(_TYPECODE[_width(max(values, default=0) if top is None else top)])
    if type(order) is range:  # node k is class k
        return _array(column.itemsize, values if type(values) is list else list(values))
    if first is None:
        blobs = list(map(partial(int.to_bytes, length=column.itemsize, byteorder=sys.byteorder), values))
    else:
        blobs = [array(column.typecode, each).tobytes() for each in _ranges(values, first)]
    column.frombytes(b"".join(map(blobs.__getitem__, order)))
    return column


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

    def __init__(self, ids: list[Any], to: array, lo: int, hi: int) -> None:
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

    def __init__(self, view: Callable[[int, int], _Children], first: array) -> None:
        self._view, self._first = view, first

    def __getitem__(self, node: int) -> _Children:
        return self._view(self._first[node], self._first[node + 1])


class FrozenTrie:
    """Read-only trie over the unfolded columns of a checked format 5
    document; build one with ``from_document`` or ``load_frozen``.

    Nodes are numbered breadth-first, children in label order, the root 0,
    as the unfold numbers them; ``id`` (root: None, every
    other node one of the label table's strings), ``freq``, ``entry`` and
    ``terminal`` hold one entry per node.  ``id`` is a list, so that
    ``bisect`` compares strings; every other column is an unsigned
    ``array``, read by index like a list.  Node k's children are the nodes
    ``first[k]:first[k + 1]`` and its cycle-edges the edges
    ``efirst[k]:efirst[k + 1]``: prefix sums of the degree columns, LOUDS
    offsets (Jacobson 1989).  ``children[k]`` and ``cycles[k]`` are label
    -> index views over those ranges, a labelled step a ``bisect``, so the
    queries in ``query`` run on it as on a ``Trie``.
    """

    def __init__(
        self,
        mode: TrieMode,
        n: int,
        id: list[Any],
        freq: array,
        entry: array,
        terminal: array,
        first: array,
        efirst: array,
        cycle_to: array,
        cycle_count: array,
    ) -> None:
        self.mode, self.n = mode, n
        self.id, self.freq, self.entry, self.terminal = id, freq, entry, terminal
        self.first, self.efirst, self.cycle_to, self.cycle_count = first, efirst, cycle_to, cycle_count
        self.children = _Ranges(partial(_Children, id), first)
        self.cycles = _Ranges(partial(_CycleEdges, id, cycle_to), efirst)

    def levels(self) -> Iterator[tuple[int, int]]:
        """The nodes of each depth, from depth 1 down, as ranges ``lo, hi``:
        if depth d is the nodes ``lo:hi``, depth d + 1 is ``first[lo]:first[hi]``."""
        first = self.first
        lo, hi = 1, first[1]
        while lo < hi:
            yield lo, hi
            lo, hi = hi, first[hi]

    @cached_property
    def depth_stats(self) -> dict[int, dict[str, int]]:
        """Depth -> identifier -> cumulative ``freq``, summed level by level
        on first access (the queries that list or count paths never read
        it)."""
        labels, freq = self.id, self.freq
        depth_stats: dict[int, dict[str, int]] = {}
        for depth, (lo, hi) in enumerate(self.levels(), 1):
            level = depth_stats[depth] = {}
            for rid, arrivals in zip(labels[lo:hi], freq[lo:hi]):
                level[rid] = level.get(rid, 0) + arrivals
        return depth_stats

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "FrozenTrie":
        """Decode a format 5 document, check its class table and unfold it:
        a malformed one raises ``CorruptDocument`` (another format, format 4
        included, ``FormatVersionMismatch``), and one that loads thaws into a
        trie that ``Trie.check_invariants`` passes.

        The header first: its counts exact ints >= 0, ``n`` 0 in DG mode,
        ``labels`` an array, ``widths`` eight of 1, 2, 4 or 8.  Then the
        body: base64, one zlib stream inflating to exactly the size the
        widths and counts declare, and nothing after it.  The class checker
        (``_check``) runs on the decoded arrays; an unsigned column holds no
        bool, float or negative number, so no check looks for one.  The
        header's ``nodes`` and ``cycle_edges`` must be the sizes the table
        unfolds to, checked before anything of a node's length is made; then
        the one unfold gives the node columns.
        """
        try:
            version = doc["format_version"]
        except (TypeError, KeyError):
            raise CorruptDocument("missing format_version header") from None
        if type(version) is not int or version != FORMAT_VERSION:
            raise FormatVersionMismatch(f"format_version {version!r}, supported: {FORMAT_VERSION}")
        try:
            mode = TrieMode(doc["mode"])
            header = n, sequence_count, nodes, edges, classes, class_edges, class_cycles = [
                doc[key] for key in HEADER_COUNTS
            ]
            labels, widths, text = doc["labels"], doc["widths"], doc["columns"]
        except (KeyError, ValueError, TypeError) as exc:
            raise CorruptDocument(f"malformed header: {exc}") from None
        if any(type(value) is not int or value < 0 for value in header):
            raise CorruptDocument("header counts must be non-negative integers")
        if n and mode is TrieMode.DG:
            raise CorruptDocument(f"a DG trie has window length 0, got n {n}")
        if type(labels) is not list:
            raise CorruptDocument("labels must be an array")
        malformed = type(widths) is not list or len(widths) != len(COLUMNS)
        if malformed or any(type(width) is not int or width not in WIDTHS for width in widths):
            raise CorruptDocument(f"widths must be {len(COLUMNS)} column widths of 1, 2, 4 or 8 bytes")
        lengths = [classes, classes, classes - 1, classes - 1, classes - 1, class_edges, class_cycles, class_cycles]
        columns = _read_columns(text, widths, [max(length, 0) for length in lengths])
        del doc, text  # a caller that hands the document over (load_frozen does) gets its text freed
        table, unfolded, cycle_edges = _check(mode, sequence_count, labels, *columns)
        del columns
        if (unfolded, cycle_edges) != (nodes, edges):
            raise CorruptDocument(
                f"header declares {nodes} nodes and {edges} cycle-edges, "
                f"the table unfolds to {unfolded} and {cycle_edges}"
            )
        return cls._unfolded(mode, n, labels, table)

    @classmethod
    def _unfolded(cls, mode: TrieMode, n: int, labels: list[str], table: Table) -> "FrozenTrie":
        """The frozen trie of a checked table: ``_unfold`` gives each node's
        class, and every node column is its class's value, in node order."""
        order, first, efirst, cycle_to = _unfold(table)
        ids = [None, *map(labels.__getitem__, islice(table.label, 1, None))]  # one shared string per label
        if type(order) is not range:  # node k is class k in a tree
            ids = list(map(ids.__getitem__, order))
        top = max(table.freq)  # entry and the terminal count never pass freq
        columns = (table.freq, table.entry, table.terminal)
        freq, entry, terminal = (_gathered(order, column, top=top) for column in columns)
        cycle_count = _gathered(order, table.cycle_count, table.efirst)
        return cls(mode, n, ids, freq, entry, terminal, first, efirst, cycle_to, cycle_count)


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
    # no local keeps the text or the document: the loader frees them as it goes
    return FrozenTrie.from_document(_read(source))
