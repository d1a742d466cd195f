"""The trie document, format 4: its encoding, its reader and every rule a
document must pass.

A document is one JSON object.  Its header holds ``format_version`` (4),
``mode``, ``n``, ``sequence_count``, ``nodes`` and ``cycle_edges`` (the
non-root node and cycle-edge counts), ``widths`` and ``labels``, the
sorted, distinct, nonempty identifiers.  ``columns`` is the body: the
seven columns of ``COLUMNS`` in that order, each as little-endian
unsigned integers of its width (1, 2, 4 or 8 bytes, the narrowest that
holds its largest value), one zlib stream at level ``LEVEL``, in base64.
``child_count`` and ``cycle_out`` hold one entry per node, the root
included; ``id``, ``freq`` and ``terminal_count`` one per non-root node,
``id`` as an index into ``labels``; ``cycle_to`` and ``cycle_count`` one
per cycle-edge.  Nodes are numbered breadth-first, children in label
order, the root 0; node k's children are the next ``child_count[k]``
nodes and its cycle-edges the next ``cycle_out[k]`` edges, by source and
then by label: the level-order degree sequence of LOUDS (Jacobson 1989).
The body must inflate to exactly the bytes its header declares, so a
document cannot make the reader inflate more.

``FrozenTrie`` is the reader: the checked columns of a document and the
prefix sums of its degree columns, with no dict (a static beside a
dynamic tree, as in Navarro & Sadakane, ACM TALG 2014); its numeric
columns stay fixed-width ``array``s, each of a width ``_width`` picks as
it does for a document's columns, so no int object per value outlives
the load.  Its ``children[k]`` and ``cycles[k]`` are label -> index views
over node k's ranges, which the queries read as they read the builder's
dicts.
``FrozenTrie.from_document`` decodes the body and runs the column
checker, which holds every rule a document must pass; a frozen trie sums
its per-depth table, derived data, on the first read of
``depth_stats``, which ``query`` and ``suggest`` never make.  ``encode``
is the one writer; the builder, ``trie.Trie``, writes documents with it
and checks itself with the same column checker.  This module never
imports the builder.

The checker tests ancestry as a pre-order interval: with pre-order
positions ``pos`` and subtree sizes, ``t`` is ``s`` or an ancestor of
``s`` exactly when ``pos[t] <= pos[s] < pos[t] + size[t]`` (Dietz 1982;
the region encoding of Zhang et al., SIGMOD 2001).
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
from operator import add, ge, le, mul, ne, sub
from typing import IO, Any, Callable, Iterable, Iterator

from .kinds import GraphKind

FORMAT_VERSION = 4
COLUMNS = ("child_count", "cycle_out", "id", "freq", "terminal_count", "cycle_to", "cycle_count")
HEADER_COUNTS = ("n", "sequence_count", "nodes", "cycle_edges")
WIDTHS = (1, 2, 4, 8)
LEVEL = 1  # zlib's fastest level: K8's body shrinks about 9×, and a level above it buys little more
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


def encode(
    mode: TrieMode,
    n: int,
    sequence_count: int,
    nodes: int,
    cycle_edges: int,
    labels: list[str],
    columns: Iterable[Iterable[int]],
) -> dict[str, Any]:
    """The one writer of format 4: the document with this header and the
    seven columns in ``COLUMNS`` order, each packed to its own width and
    compressed as it is taken, so that no moment holds every column.  A load
    checks the body against ``nodes`` and ``cycle_edges``, the writer's own
    counts.  A value past 8 bytes or below 0 raises ``OverflowError``."""
    packer = zlib.compressobj(LEVEL)
    widths, parts = [], []
    for values in columns:
        column = _packed(values)
        if sys.byteorder == "big":
            column.byteswap()
        widths.append(column.itemsize)
        parts.append(packer.compress(column))
        del column  # the next column's list is built before this name is rebound
    parts.append(packer.flush())
    return {
        "format_version": FORMAT_VERSION,
        "mode": mode.value,
        **dict(zip(HEADER_COUNTS, (n, sequence_count, nodes, cycle_edges))),
        "widths": widths,
        "labels": labels,
        "columns": base64.b64encode(b"".join(parts)).decode("ascii"),
    }


def _read_columns(text: Any, widths: list[int], lengths: list[int]) -> list[array]:
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


def _repeats_on_a_root_path(ids: list[Any], order: Iterable[int], pos: list[int], end: list[int]) -> int | None:
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


def _preorder(parent: list[int]) -> tuple[array, list[int], list[int]]:
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
    order = array(_TYPECODE[_width(total)], [0]) * total  # read once, by the repeat rule: an array
    for node, at in enumerate(pos):
        order[at] = node
    return order, pos, list(map(add, pos, size))


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
    """Read-only trie over the columns of a checked format 4 document;
    build one with ``from_document`` or ``load_frozen``.

    Node k is node k of the document, the root 0; ``id`` (root: None, every
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
        if type(version) is not int or version != FORMAT_VERSION:
            raise FormatVersionMismatch(f"format_version {version!r}, supported: {FORMAT_VERSION}")
        try:
            mode = TrieMode(doc["mode"])
            header = n, sequence_count, nodes, edges = [doc[key] for key in HEADER_COUNTS]
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
        columns = _read_columns(text, widths, [nodes + 1, nodes + 1, nodes, nodes, nodes, edges, edges])
        del doc, text  # a caller that hands the document over (load_frozen does) gets its text freed
        return cls._from_columns(mode, n, sequence_count, labels, *columns)

    @classmethod
    def _from_columns(
        cls,
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
    ) -> "FrozenTrie":
        """The column checker: every rule a document's columns must pass,
        on unsigned arrays of the lengths the header gives (the decoder and
        ``Trie.check_invariants`` hand it those), ``ids`` indices into
        ``labels``.  Keeps the cycle-edge arrays it is given and
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
        at = _first(map(ge, labels, islice(labels, 1, None)))
        if at is not None:
            raise CorruptDocument(f"label table not strictly increasing at label {at + 1}: {labels[at + 1]!r}")
        rid = [-1, *ids]  # label indices, the root's -1; a list: the cycle-edge pass reads it per edge
        if max(rid) >= len(labels):
            raise CorruptDocument(f"label index {max(rid)} outside a table of {len(labels)} labels")
        if sum(child_count) != len(ids) or sum(cycle_out) != len(targets):
            raise CorruptDocument("child or cycle-edge counts do not sum to the node or cycle-edge count")
        first = list(accumulate(child_count, initial=1))  # node k's children: first[k]:first[k + 1]
        at = _first(map(le, islice(first, 1, len(child_count)), count(1)), 1)  # node k's parent is below k
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
                raise CorruptDocument(f"cycle-edges on DAG-mode node {_first(cycle_out)}")
            if min(targets) < 1:
                raise CorruptDocument(f"cycle-edge {targets.index(min(targets))} into the root")
            if min(counts) < 1:
                raise CorruptDocument(f"cycle-edge {counts.index(min(counts))} without traversals")
        cycled = None  # each node's outflow along its cycle-edges, where there are any
        if not dag:
            order, pos, end = _preorder(_parents(child_count))
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
        efirst = _array(_width(efirst[-1]), efirst)
        del child_count, cycle_out
        if min(entry) < 0:
            raise CorruptDocument(f"entry count out of range at node {entry.index(min(entry))}")
        entry = _array(freqs.itemsize, entry)  # entry[k] <= freq[k]; freed as a list before the prefix sum
        below = list(map(list(accumulate(entry, initial=0)).__getitem__, first))  # entries before each child range
        terminal_counts.insert(0, 0)  # the root's: now the stored terminal column
        outflow = map(add, terminal_counts, map(sub, islice(below, 1, None), below))  # terminations plus descents
        if cycled is not None:
            outflow = map(add, outflow, cycled)
        at = _first(map(ne, chain((sequence_count,), freqs), outflow))
        if at is not None:
            raise CorruptDocument(f"conservation violated at node {at}")
        del below, cycled
        if not dag:
            at = _repeats_on_a_root_path(rid, order, pos, end)
            if at is not None:
                raise CorruptDocument(f"identifier repeats on the root path at node {at}")
            del order, pos, end
        ids = [None, *map(labels.__getitem__, islice(rid, 1, None))]  # one shared string per label
        if sequence_count >> 64:  # the root's freq, a column value like any other
            raise CorruptDocument("sequence_count past 8 bytes")
        freq = array(_TYPECODE[max(freqs.itemsize, _width(sequence_count))], freqs)  # a copy when the width holds
        freq.insert(0, sequence_count)
        first = _array(_width(first[-1]), first)
        return cls(mode, n, ids, freq, entry, terminal_counts, first, efirst, targets, counts)


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
