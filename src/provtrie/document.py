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
subtree's arrivals per label; ``_checked`` runs it, after the header and
body checks, for both loaders.  ``encode`` is the one encoder; the one
minimizer that makes the tables it encodes, ``trie.minimize``, and the
one unfold of a table into every node, ``trie._unfold``, live with the
builder, so that a read command, which compiles this module, never
compiles them.  ``FrozenTrie`` is the reader: the checked table and the
nodes a query has reached, each node's child and cycle-edge maps made
from its class on first read, as an automaton is read by following the
transitions a query takes.  ``_levels`` is the one pass over the classes
per depth, each weighted by the places it occurs there, which sums the
per-depth table of either trie and ``provtrie inspect``'s histograms
with no node made.  This module never imports the builder.
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
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, chain, compress, count, filterfalse, islice, repeat
from operator import add, ge, le, mul, ne, not_, sub
from typing import IO, Any, Iterable, Iterator, Sequence

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


def _packed(values: Iterable[int]) -> array:
    """``values`` as an array of unsigned ints of the narrowest width, 1, 2,
    4 or 8 bytes, that holds their maximum: the one width rule, for the
    columns of a document.  A value past 8 bytes or below 0 raises
    ``OverflowError``.  ``array`` converts each item of a 1- or 2-byte array
    through a format parser, about 3× as slowly as one of a wider array;
    ``bytes`` and ``struct.pack`` convert those widths in one C pass."""
    values = list(values)  # references to ints the caller holds: no new int objects
    top = max(values, default=0)
    width = next((width for width in WIDTHS if top >> 8 * width == 0), 8)
    try:
        if width == 1:
            return array("B", bytes(values))
        if width == 2:
            return array("H", struct.pack(f"{len(values)}H", *values))
    except (ValueError, struct.error) as exc:  # below 0 or past the width
        raise OverflowError(exc) from None
    return array(_TYPECODE[width], values)


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


def _ranges(values: Sequence[int], first: list[int]) -> list[Sequence[int]]:
    """``values[first[k]:first[k + 1]]`` for each k: a flat column cut per class."""
    return list(map(values.__getitem__, map(slice, first, islice(first, 1, None))))


def _out_of_order(labels: list[int], first: list[int]) -> int | None:
    """The first position of ``labels`` whose label is not above the one
    before it in the same range (ranges start at the positions in ``first``)."""
    unsorted = compress(count(1), map(ge, labels, islice(labels, 1, None)))
    return next(filterfalse(set(first).__contains__, unsorted), None)


def _arrivals(
    above: list[dict[int, int] | None], out: Iterable[int], taken: Iterable[int], kids: Iterable[int]
) -> dict[int, int]:
    """The cycle arrivals from a class's subtree at each label on its root
    path: its own cycle-edges' counts plus its children's ``above``.  The
    class checker and ``trie._DFSStates`` both sum them from the leaves up."""
    arrivals = dict(zip(out, taken))
    for below in map(above.__getitem__, kids):
        if below:
            for u, n in below.items():
                arrivals[u] = arrivals.get(u, 0) + n
    return arrivals


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
            arrivals = _arrivals(above, cycles[up], taken[up], kids[up])
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


def _checked(doc: Any) -> tuple[TrieMode, int, list[str], Table]:
    """Decode a format 5 document and check its class table: the mode, the
    window length, the label table and the checked table, or
    ``CorruptDocument`` for a malformed document (another format, format 4
    included, ``FormatVersionMismatch``).  Both loaders, ``FrozenTrie`` and
    ``Trie.from_document``, run it before they make any node.

    The header first: its counts exact ints >= 0, ``n`` 0 in DG mode,
    ``labels`` an array, ``widths`` eight of 1, 2, 4 or 8.  Then the body:
    base64, one zlib stream inflating to exactly the size the widths and
    counts declare, and nothing after it.  The class checker (``_check``)
    runs on the decoded arrays; an unsigned column holds no bool, float or
    negative number, so no check looks for one.  Last, the header's
    ``nodes`` and ``cycle_edges`` must be the sizes the table unfolds to.
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
    table, unfolded, cycle_edges = _check(mode, sequence_count, labels, *columns)
    if (unfolded, cycle_edges) != (nodes, edges):
        raise CorruptDocument(
            f"header declares {nodes} nodes and {edges} cycle-edges, "
            f"the table unfolds to {unfolded} and {cycle_edges}"
        )
    return mode, n, labels, table


def _names(labels: list[str], table: Table) -> list[Any]:
    """Each class's identifier, one shared string per label (the root's None)."""
    return [None, *map(labels.__getitem__, islice(table.label, 1, None))]


def _levels(table: Table) -> Iterator[tuple[Iterable[int], Iterable[int]]]:
    """Per depth, from 1 down, the classes that occur there and the number
    of places each occurs there: one pass over the classes, with no node
    made.  A tree's depth d + 1 is the classes ``first[lo]:first[hi]`` if
    depth d is ``lo:hi``, each at one place."""
    first, kid = table.first, table.kid
    if type(kid) is range:
        lo, hi = 1, first[1]
        while lo < hi:
            yield range(lo, hi), repeat(1, hi - lo)
            lo, hi = hi, first[hi]
        return
    level = {0: 1}
    while True:
        deeper: dict[int, int] = {}
        for up, times in level.items():
            for k in kid[first[up] : first[up + 1]]:
                deeper[k] = deeper.get(k, 0) + times
        if not deeper:
            return
        yield deeper.keys(), deeper.values()
        level = deeper


def _per_depth(table: Table, names: list[Any]) -> dict[int, dict[str, int]]:
    """Depth -> identifier -> cumulative ``freq``: each class's ``freq``
    times the places it occurs at each depth, ``names`` its identifiers."""
    freq = table.freq
    depth_stats: dict[int, dict[str, int]] = {}
    for depth, (classes, places) in enumerate(_levels(table), 1):
        level = depth_stats[depth] = {}
        classes = list(classes)
        for rid, arrivals in zip(map(names.__getitem__, classes), map(mul, places, map(freq.__getitem__, classes))):
            level[rid] = level.get(rid, 0) + arrivals
    return depth_stats


class _ChildMaps(dict):
    """Node -> its child map, label -> child, made on the first read of the
    node: its children take the next node numbers, and each appends its
    class's identifier, statistics, class and parent to the node columns."""

    __slots__ = ("table", "names", "id", "freq", "entry", "terminal", "cls", "parent")

    def __missing__(self, node: int) -> dict[str, int]:
        table, cls = self.table, self.cls
        c = cls[node]
        kids = table.kid[table.first[c] : table.first[c + 1]]
        at = len(cls)
        names = list(map(self.names.__getitem__, kids))
        self.id += names
        self.freq += map(table.freq.__getitem__, kids)
        self.entry += map(table.entry.__getitem__, kids)
        self.terminal += map(table.terminal.__getitem__, kids)
        self.parent += repeat(node, len(kids))
        cls += kids
        made = self[node] = dict(zip(names, range(at, at + len(kids))))
        return made


class _CycleMaps(dict):
    """Node -> its cycle-edge map, label -> edge, made on the first read of
    the node: its edges take the next edge numbers, each with its count and
    its target, the ancestor-or-self that carries its label, found by a walk
    up the parents (in DG mode a label is on a root path at most once)."""

    __slots__ = ("table", "labels", "cls", "parent", "cycle_to", "cycle_count")

    def __missing__(self, node: int) -> dict[str, int]:
        table, cls, parent = self.table, self.cls, self.parent
        c = cls[node]
        lo, hi = table.efirst[c], table.efirst[c + 1]
        if lo == hi:
            made = self[node] = {}
            return made
        label, wanted = table.label, table.cycle_label[lo:hi]
        on_path: dict[int, int] = {}  # each wanted label -> its node on the root path
        need, up = hi - lo, node
        while need and up:  # the checker puts every cycle label on every root path of its class
            rid = label[cls[up]]
            if rid in wanted:
                on_path[rid] = up
                need -= 1
            up = parent[up]
        at = len(self.cycle_to)
        self.cycle_to += map(on_path.__getitem__, wanted)
        self.cycle_count += table.cycle_count[lo:hi]
        made = self[node] = dict(zip(map(self.labels.__getitem__, wanted), range(at, at + hi - lo)))
        return made


class FrozenTrie:
    """Read-only trie over the checked class table of a format 5 document;
    build one with ``from_document`` or ``load_frozen``.

    A load makes the root alone.  ``children[k]`` and ``cycles[k]`` are
    node k's label -> index maps, plain dicts, each made from node k's
    class on its first read (``__missing__``) and a dict hit after that,
    so the queries in ``query`` run on it as on a ``Trie``.  Nodes are
    numbered in the order the maps reach them, the root 0: a node's
    children take the next numbers, in label order.  Reading
    ``children[k]`` for k = 0, 1, 2, ... in turn numbers them breadth-first
    as a ``Trie`` loaded from the same document does.  ``id`` (root: None),
    ``freq``, ``entry`` and ``terminal`` hold one entry per node made, and
    ``cycle_to`` and ``cycle_count`` one per cycle-edge made.
    ``depth_stats`` is summed over the classes on its first read, which
    ``query`` and ``suggest`` never make, and makes no node.  A read can
    make nodes, so one thread at a time reads a frozen trie.
    """

    def __init__(self, mode: TrieMode, n: int, labels: list[str], table: Table) -> None:
        self.mode, self.n, self.table = mode, n, table
        self.id: list[Any] = [None]
        self.freq, self.entry, self.terminal = [table.freq[0]], [0], [0]
        self.cycle_to: list[int] = []
        self.cycle_count: list[int] = []
        cls, parent = [0], [-1]  # per node: its class, its parent
        self.children = children = _ChildMaps()
        children.table, children.names, children.cls, children.parent = table, _names(labels, table), cls, parent
        children.id, children.freq, children.entry, children.terminal = self.id, self.freq, self.entry, self.terminal
        self.cycles = cycles = _CycleMaps()
        cycles.table, cycles.labels, cycles.cls, cycles.parent = table, labels, cls, parent
        cycles.cycle_to, cycles.cycle_count = self.cycle_to, self.cycle_count

    @cached_property
    def depth_stats(self) -> dict[int, dict[str, int]]:
        """Depth -> identifier -> cumulative ``freq``, summed over the
        classes on first access."""
        return _per_depth(self.table, self.children.names)

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "FrozenTrie":
        """Decode and check a format 5 document (``_checked``): a malformed
        one raises ``CorruptDocument``, and one that loads thaws into a trie
        that ``Trie.check_invariants`` passes."""
        return cls(*_checked(doc))


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
