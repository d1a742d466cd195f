import array
import base64
import copy
import errno
import gc
import io
import json
import os
import random
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provtrie.cli import main
from provtrie.document import COLUMNS, HEADER_COUNTS, _read_columns, encode
from provtrie.graph import gen_clique
from provtrie.query import QueryPattern, count_paths, q1, q2_suggest
from provtrie.trie import (
    CorruptDocument,
    FormatVersionMismatch,
    FrozenTrie,
    Trie,
    TrieError,
    TrieMode,
    load,
    load_frozen,
    save,
)

from helpers import (
    BODY_ORDER,
    DECODED_KEYS,
    HEADER_KEYS,
    TABLE_ORDER,
    WRITTEN_AS,
    ObjectTrie,
    all_node_freqs,
    decode_document,
    encode_document,
    expand_degrees,
    find,
    format2_document,
    insert_all,
    node_count,
    parent_column,
    prob,
    table_lengths,
)

NODE_COLUMNS = ["id", "freq", "terminal_count"]
DEGREE_COLUMNS = ["child_count", "cycle_out"]
CYCLE_COLUMNS = ["cycle_to", "cycle_count"]

FIGURE_SEQUENCES = [
    ["N1", "N2", "N1"],
    ["N1", "N2", "N3"],
    ["N1", "N3"],
    ["N1", "N4"],
    ["N5"],
]


def from_both(doc: dict) -> Trie:
    """Load ``doc`` with ``FrozenTrie.from_document`` and with ``Trie.from_document``,
    each from its own copy: both must give the same verdict and the same
    message.  Returns the thawed trie, or raises the loaders' error."""
    verdicts = []
    for loader in (FrozenTrie.from_document, Trie.from_document):
        try:
            verdicts.append(loader(copy.deepcopy(doc)))
        except TrieError as exc:
            verdicts.append(exc)
    frozen, thawed = verdicts
    if isinstance(frozen, TrieError) or isinstance(thawed, TrieError):
        assert (type(frozen), str(frozen)) == (type(thawed), str(thawed))
        raise thawed
    assert frozen.depth_stats == thawed.depth_stats and list(frozen.entry) == thawed.entry
    return thawed


def roundtrip(trie: Trie) -> Trie:
    buf = io.StringIO()
    save(trie, buf)
    buf.seek(0)
    return load(buf)


def test_empty_trie_roundtrip():
    t = Trie(TrieMode.DAG)
    doc = t.to_document()
    assert doc["sequence_count"] == doc["nodes"] == doc["cycle_edges"] == 0 and doc["labels"] == []
    columns = decode_document(doc)
    assert columns["id"] == [] and columns["child_count"] == columns["cycle_out"] == [0]
    back = roundtrip(t)
    assert back.to_document() == doc
    assert node_count(back) == 0


def test_reference_trie_roundtrip():
    t = insert_all(TrieMode.DAG, FIGURE_SEQUENCES)
    back = roundtrip(t)
    assert node_count(back) == 7
    assert back.to_document() == t.to_document()
    assert all_node_freqs(back) == all_node_freqs(t)
    # probabilities recompute identically from the stored frequencies
    for path, (freq, entry, terminal) in all_node_freqs(t).items():
        node = find(back, path)
        assert node is not None and node.freq == freq


def test_dg_trie_roundtrip_with_cycles():
    t = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "a"], ["a", "b", "c"]])
    back = roundtrip(t)
    assert back.to_document() == t.to_document()
    b = back.root.children["a"].children["b"]
    assert b.cycles["a"].count == 2
    # descent counts (and therefore probabilities) survive the round trip
    assert back.root.children["a"].entry_count == t.root.children["a"].entry_count
    assert abs(prob(b) - prob(t.root.children["a"].children["b"])) < 1e-12
    back.check_invariants()


def test_indexed_graph_roundtrip_preserves_counts():
    t = Trie(TrieMode.DG)
    t.index_graph(gen_clique(4))
    back = roundtrip(t)
    for m in range(7):
        pattern = QueryPattern((":r0",), m, ":r1")
        assert count_paths(back, pattern) == count_paths(t, pattern)


def test_roundtrip_through_file(tmp_path):
    t = insert_all(TrieMode.DAG, FIGURE_SEQUENCES)
    path = tmp_path / "index.json"
    save(t, path)
    assert load(path).to_document() == t.to_document()


def test_header_fields_present():
    t = insert_all(TrieMode.DAG, [["a", "b"]], n=2)
    doc = t.to_document()
    assert list(doc) == [*HEADER_KEYS, *HEADER_COUNTS[2:], "widths", "labels", "columns"]
    assert HEADER_COUNTS[2:] == ("nodes", "cycle_edges", "classes", "class_edges", "class_cycle_edges")
    assert doc["format_version"] == 5
    assert doc["mode"] == "dag"
    assert doc["n"] == 2
    assert doc["sequence_count"] == 1
    assert (doc["nodes"], doc["cycle_edges"], doc["labels"]) == (2, 0, ["a", "b"])
    assert (doc["classes"], doc["class_edges"], doc["class_cycle_edges"]) == (3, 2, 0)  # a DAG trie: one class per node
    assert doc["widths"] == [1] * len(TABLE_ORDER)  # every value below 256
    doc = decode_document(doc)
    assert list(doc) == DECODED_KEYS == [*HEADER_KEYS, "child_count", *NODE_COLUMNS, "cycle_out", *CYCLE_COLUMNS]
    # one degree entry per node, the root (index 0) included; one statistic per non-root node
    assert doc["child_count"] == [1, 1, 0]
    assert doc["id"] == ["a", "b"]
    assert doc["freq"] == [1, 1]
    assert doc["terminal_count"] == [0, 1]
    assert doc["cycle_out"] == [0, 0, 0]
    assert doc["cycle_to"] == doc["cycle_count"] == []


def test_format_version_mismatch():
    doc = insert_all(TrieMode.DAG, [["a"]]).to_document()
    doc["format_version"] = 6
    with pytest.raises(FormatVersionMismatch):
        from_both(doc)


def test_version_1_document_is_a_version_mismatch():
    # format 1: one record per node, root included, plus a depth_stats table
    doc = {
        "format_version": 1,
        "mode": "dag",
        "n": 0,
        "sequence_count": 1,
        "nodes": [
            {"node_index": 0, "parent_index": None, "id": None, "freq": 1, "terminal_count": 0, "depth": 0},
            {"node_index": 1, "parent_index": 0, "id": "a", "freq": 1, "terminal_count": 1, "depth": 1},
        ],
        "cycle_edges": [],
        "depth_stats": [{"depth": 1, "id": "a", "cum_freq": 1}],
    }
    with pytest.raises(FormatVersionMismatch):
        from_both(doc)
    with pytest.raises(FormatVersionMismatch):
        load(io.StringIO(json.dumps(doc)))


def test_format_2_document_is_a_version_mismatch():
    # format 2: a parent per non-root node and a source per cycle-edge, in place of the degree columns
    trie = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "c"]])
    text = json.dumps(format2_document(trie), separators=(",", ":"))
    with pytest.raises(FormatVersionMismatch, match="^format_version 2, supported: 5$"):
        load(io.StringIO(text))


@pytest.mark.parametrize("loader", [load, load_frozen])
def test_format_3_document_is_a_version_mismatch(loader):
    # format 3: the seven columns as JSON arrays of ints and identifier strings, beside the header
    trie = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "c"]])
    text = json.dumps({**decode_document(trie.to_document()), "format_version": 3}, separators=(",", ":"))
    with pytest.raises(FormatVersionMismatch, match="^format_version 3, supported: 5$"):
        loader(io.StringIO(text))


def _tampered(mutate):
    """The figure trie's columns, as lists, after ``mutate``: write them with ``encode_document``."""
    doc = decode_document(insert_all(TrieMode.DAG, FIGURE_SEQUENCES).to_document())
    mutate(doc)
    return doc


# the figure trie breadth-first: 1 N1, 2 N5, 3 N1/N2, 4 N1/N3, 5 N1/N4,
# 6 N1/N2/N1, 7 N1/N2/N3; position k of a node column holds node k + 1, of
# a degree column node k: child_count is [2, 3, 0, 2, 0, 0, 0, 0]


def test_corrupt_child_freq_exceeds_parent():
    doc = _tampered(lambda d: d["freq"].__setitem__(2, 99))  # N1/N2
    with pytest.raises(CorruptDocument):
        from_both(encode_document(doc))


def test_corrupt_missing_header():
    with pytest.raises(CorruptDocument):
        from_both({"mode": "dag"})


def _child_before_parent(doc):
    # the root's two children counted as N1's: node 1 then has no parent before it
    doc["child_count"][0] -= 2
    doc["child_count"][1] += 2


def test_corrupt_nodes_out_of_order():
    doc = _tampered(_child_before_parent)
    assert doc["child_count"][:2] == [0, 5]
    with pytest.raises(CorruptDocument, match="not before class 1"):  # one class per node: class 1 is node 1
        from_both(encode_document(doc))


@pytest.mark.parametrize("node, parent", [(0, 1), (2, 3), (2, 4), (6, 7)])
def test_corrupt_parent_not_an_earlier_node(node, parent):
    # the node at column position ``node`` has index node + 1; it, and each later node
    # whose parent comes before ``parent``, is counted among ``parent``'s children
    def reparent(d):
        parents = expand_degrees(d["child_count"])
        parents[node:] = [max(up, parent) for up in parents[node:]]
        d["child_count"] = [parents.count(k) for k in range(len(d["child_count"]))]

    doc = _tampered(reparent)
    for loader, unit in ((lambda d: from_both(encode_document(d)), "class"), (ObjectTrie.from_document, "node")):
        with pytest.raises(CorruptDocument, match=f"parent not before {unit} {node + 1}$"):
            loader(doc)


# degree columns that break one shape rule each, on _dg_aba_abc (child_count
# [1, 1, 1, 0], cycle_out [0, 0, 1, 0]): lengths, sums and the prefix rule hold
# unless named.  A written -1 is the largest value of its column's width (255
# here), so the sums break; an unsigned column holds no bool or float, so a
# document can put one only in place of the column's width.  The object
# reference checks the lists themselves.
DEGREE_BREAKERS = {
    "negative-child-count": ({"child_count": [1, 2, 1, -1]}, "counts do not sum"),
    "negative-cycle-out": ({"cycle_out": [0, 1, 1, -1]}, "counts do not sum"),
    "bool-child-count": ({"child_count": [True, 1, 1, 0]}, "widths"),
    "float-cycle-out": ({"cycle_out": [0, 0, 1.0, 0]}, "widths"),
    "child-count-sum": ({"child_count": [1, 1, 1, 1]}, "counts do not sum"),
    "cycle-out-sum": ({"cycle_out": [0, 0, 1, 1]}, "counts do not sum"),
}


def _dg_aba_abc() -> dict:
    return decode_document(insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "c"]]).to_document())


def _written(columns: dict) -> dict:
    """``columns`` as a format 5 document, one class per node; a value that
    no unsigned column holds (a bool, a float, a string) takes the place of
    the width of the column it is written into instead, the column written
    as it was without it."""
    odd = {name: value for name in BODY_ORDER if name != "id" for value in columns[name] if type(value) is not int}
    doc = encode_document({**columns, **{name: [v if type(v) is int else 0 for v in columns[name]] for name in odd}})
    for name, value in odd.items():
        doc["widths"][TABLE_ORDER.index(WRITTEN_AS[name])] = value
    return doc


@pytest.mark.parametrize("columns, message", DEGREE_BREAKERS.values(), ids=DEGREE_BREAKERS.keys())
def test_corrupt_degree_counts(columns, message):
    doc = {**_dg_aba_abc(), **columns}
    with pytest.raises(CorruptDocument, match=message):
        from_both(_written(doc))
    with pytest.raises(CorruptDocument):
        ObjectTrie.from_document(doc)


def test_corrupt_dangling_parent():
    # a child counted past the last node
    doc = _tampered(lambda d: d["child_count"].__setitem__(7, 1))
    with pytest.raises(CorruptDocument, match="sum"):
        from_both(encode_document(doc))


@pytest.mark.parametrize("column", NODE_COLUMNS + CYCLE_COLUMNS)
@pytest.mark.parametrize("change", ["shorter", "longer"])
def test_corrupt_columns_of_unequal_length(column, change):
    # the header gives every node column len(id) entries and every cycle-edge column len(cycle_to):
    # another length shifts the columns after it, and the body is no longer the size declared
    doc = _dg_aba_abc()
    if change == "shorter":
        doc[column].pop()
    else:
        doc[column].append(doc[column][-1])
    with pytest.raises(CorruptDocument, match="than the [0-9]+ bytes its header declares$"):
        from_both(encode_document(doc))


@pytest.mark.parametrize("column", DEGREE_COLUMNS)
@pytest.mark.parametrize("change", ["shorter", "longer"])
def test_corrupt_degree_column_of_wrong_length(column, change):
    # a trailing 0 keeps each sum, so only the length is wrong: the body is no longer the size declared
    doc = _dg_aba_abc()
    assert doc[column][-1] == 0
    if change == "shorter":
        doc[column].pop()
    else:
        doc[column].append(0)
    with pytest.raises(CorruptDocument, match="than the [0-9]+ bytes its header declares$"):
        from_both(encode_document(doc))


def test_corrupt_cycle_edge_in_dag_document():
    def add_edge(d):
        d["cycle_out"][3] += 1  # N1/N2 back to its parent N1
        d["cycle_to"].append(1)
        d["cycle_count"].append(1)

    doc = _tampered(add_edge)
    with pytest.raises(CorruptDocument):
        from_both(encode_document(doc))


def test_corrupt_duplicate_child():
    doc = _tampered(lambda d: d["id"].__setitem__(1, "N1"))  # N5 renamed to its sibling N1
    with pytest.raises(CorruptDocument, match="duplicate child"):
        from_both(encode_document(doc))


def test_corrupt_siblings_out_of_label_order():
    # a and b listed b first; every statistic balances and no label repeats
    doc = decode_document(insert_all(TrieMode.DAG, [["a"], ["b"]]).to_document())
    assert (doc["id"], doc["freq"], doc["terminal_count"]) == (["a", "b"], [1, 1], [1, 1])
    doc["id"] = ["b", "a"]
    with pytest.raises(CorruptDocument, match="^siblings out of label order under class 0: 'a'$"):
        from_both(encode_document(doc))
    with pytest.raises(CorruptDocument, match="siblings out of label order"):
        ObjectTrie.from_document(doc)


def test_corrupt_cycle_edges_out_of_label_order():
    # b's cycle-edges back to a and to itself, listed b first; every statistic balances
    doc = decode_document(insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "b"]]).to_document())
    assert (doc["cycle_out"], doc["cycle_to"], doc["cycle_count"]) == ([0, 0, 2], [1, 2], [1, 1])
    doc["cycle_to"] = [2, 1]
    with pytest.raises(CorruptDocument, match="^cycle-edges out of label order at class 2: 'a'$"):
        from_both(encode_document(doc))
    with pytest.raises(CorruptDocument, match="cycle-edges out of label order"):
        ObjectTrie.from_document(doc)


def test_corrupt_duplicate_cycle_edge():
    doc = decode_document(insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "a"]]).to_document())
    assert (doc["cycle_out"], doc["cycle_to"], doc["cycle_count"]) == ([0, 0, 1], [1], [2])
    doc.update(cycle_out=[0, 0, 2], cycle_to=[1, 1], cycle_count=[1, 1])
    with pytest.raises(CorruptDocument, match="duplicate cycle-edge"):
        from_both(encode_document(doc))


def test_corrupt_cycle_edge_into_the_root():
    doc = decode_document(insert_all(TrieMode.DG, [["a", "b"]]).to_document())
    # b's one insertion now cycles back to the root instead of ending at b; a cycle-edge names its
    # target by label and the root has none, so the writer names a label past the table
    doc.update(terminal_count=[0, 0], cycle_out=[0, 0, 1], cycle_to=[0], cycle_count=[1])
    with pytest.raises(CorruptDocument, match="^label index 2 outside a table of 2 labels$"):
        from_both(encode_document(doc))


@pytest.mark.parametrize("rid", ["", 1, None, ["N1"]])
def test_corrupt_identifier_not_a_nonempty_string(rid):
    # the identifier goes into the label table, where the rule now is
    doc = encode_document(_tampered(lambda d: d["id"].__setitem__(3, rid)))
    assert rid in doc["labels"]
    with pytest.raises(CorruptDocument, match="identifier"):
        from_both(doc)


def test_corrupt_dg_identifier_repeats_on_the_root_path():
    doc = {
        "format_version": 5,
        "mode": "dg",
        "n": 0,
        "sequence_count": 1,
        "child_count": [1, 1, 0],
        "id": ["a", "a"],
        "freq": [1, 1],
        "terminal_count": [0, 1],
        "cycle_out": [0, 0, 0],
        "cycle_to": [],
        "cycle_count": [],
    }
    with pytest.raises(CorruptDocument, match="repeats on the root path"):
        from_both(encode_document(doc))
    # in a DAG trie a repeated identifier is just a deeper node
    assert node_count(from_both(encode_document({**doc, "mode": "dag"}))) == 2


def test_dg_self_loops_round_trip():
    t = insert_all(TrieMode.DG, [["a", "a", "b", "b", "a"]])
    a = t.root.children["a"]
    assert a.cycles["a"].target.index == a.index
    assert a.children["b"].cycles["b"].target.index == a.children["b"].index
    assert roundtrip(t).to_document() == t.to_document()


def test_check_invariants_rejects_hand_bumped_depth_stats():
    t = insert_all(TrieMode.DAG, FIGURE_SEQUENCES)
    t.check_invariants()
    t.depth_stats[1]["N1"] += 123
    with pytest.raises(CorruptDocument, match="per-depth"):
        t.check_invariants()


def test_corrupt_root_freq_vs_sequence_count():
    doc = _tampered(lambda d: d.update(sequence_count=42))
    with pytest.raises(CorruptDocument):
        from_both(encode_document(doc))


def test_corrupt_negative_statistics():
    # written, a -1 is the largest value of the column's width
    doc = _tampered(lambda d: d["terminal_count"].__setitem__(2, -1))
    with pytest.raises(CorruptDocument):
        from_both(encode_document(doc))


def test_corrupt_node_without_traversals():
    # a leaf no sequence reached: conservation holds, but its freq is 0
    doc = _tampered(_add_unreached_leaf)
    with pytest.raises(CorruptDocument, match="out of range"):
        from_both(encode_document(doc))


def test_corrupt_arrivals_past_freq():
    # a/b returns to a three times, but a is entered only twice
    doc = {**_dg_aba(), "cycle_count": [3]}
    with pytest.raises(CorruptDocument, match="^entry count out of range at class 1$"):
        from_both(encode_document(doc))


def test_corrupt_cycle_target_not_ancestor():
    t = insert_all(TrieMode.DG, [["a", "b", "a"], ["c", "d"]])
    doc = decode_document(t.to_document())
    # retarget the cycle edge (a/b -> a) at a node outside the root path
    was, victim = doc["cycle_to"][0] - 1, doc["id"].index("c")
    doc["cycle_to"][0] = victim + 1
    # move the arrival and the insertion that ended there along with it, so
    # that every statistic balances and only the ancestor check can fail: the
    # edge, written by its target's label, names a label off its root path
    for column in ("freq", "terminal_count"):
        doc[column][was] -= 1
        doc[column][victim] += 1
    with pytest.raises(CorruptDocument, match="^cycle-edge label 'c' not on every root path of class 3$"):
        from_both(encode_document(doc))


def _add_unreached_leaf(doc: dict) -> None:
    # a child of N1/N2/N3 with freq 0: conservation still holds
    doc["child_count"][7] = 1
    for key, value in zip(["child_count", "cycle_out", *NODE_COLUMNS], [0, 0, "N6", 0, 0]):
        doc[key].append(value)


def _dg_aba() -> dict:
    # nodes: root, a, a/b; one cycle-edge a/b -> a
    return decode_document(insert_all(TrieMode.DG, [["a", "b", "a"]]).to_document())


# documents of a valid shape that break one rule each.  No unsigned column
# holds a negative number: a written -1 is 255 at width 1, a terminal count
# that conservation refuses; a cycle-edge is written by its target's label,
# and a target that is no node after the root as a label past the table
RULE_BREAKERS = {
    "leaf-without-traversals": (lambda: _tampered(_add_unreached_leaf), "out of range"),
    "negative-terminal": (
        lambda: {**_dg_aba(), "terminal_count": [1, -1], "cycle_count": [2]},
        "^conservation violated at class 0$",  # a's arrivals now take all its freq, none is a descent
    ),
    "cycle-edge-into-the-root": (lambda: {**_dg_aba(), "cycle_to": [0]}, "^label index 2 outside a table of 2 labels$"),
    "negative-cycle-target": (lambda: {**_dg_aba(), "cycle_to": [-1]}, "^label index 3 outside a table of 2 labels$"),
}


@pytest.mark.parametrize("make, message", RULE_BREAKERS.values(), ids=RULE_BREAKERS.keys())
def test_the_column_checker_rejects_each_rule_breaker(make, message):
    # the shape is sound, so only the rules, checked on the columns, can refuse the document
    with pytest.raises(CorruptDocument, match=message):
        FrozenTrie.from_document(encode_document(make()))
    with pytest.raises(CorruptDocument, match=message):
        from_both(encode_document(make()))


# pytest names these cases by position: append new ones at the end
@pytest.mark.parametrize(
    "where, value",
    [
        (("n",), "0"),
        (("n",), -1),
        (("sequence_count",), 2.0),
        (("child_count", 0), True),
        (("child_count", 1), True),
        (("freq", 0), "3"),
        (("terminal_count", 0), 1.9),
        (("terminal_count", 2), True),
        (("child_count", 2), 2.0),
        (("cycle_out", 2), -2),
        (("cycle_to", 0), -3),
        (("cycle_to", 0), 4),
        (("cycle_count", 0), "1"),
        (("cycle_count", 0), True),
        (("freq", 0), 3.0),
        (("sequence_count",), -1),
        (("cycle_out", 2), 2.0),
        (("nodes",), -1),
        (("nodes",), 4),
        (("cycle_edges",), True),
        (("cycle_edges",), 1.0),
        (("widths", 0), 3),
        (("widths", 6), 0),
        (("widths", 2), True),
    ],
)
def test_corrupt_inexact_or_out_of_range_integer(where, value):
    # nodes: root, a, a/b (cycle-edge back to a), a/b/c; child_count [1, 1, 1, 0], cycle_out [0, 0, 1, 0].
    # A header field holds the value as given; a column an int, stored modulo its width (-3 is 253,
    # a target past the last node), and no other value, which _written puts in the column's width
    columns = _dg_aba_abc()
    from_both(encode_document(columns))
    *parents, key = where
    if parents and parents[0] in BODY_ORDER:
        columns[parents[0]][key] = value
        doc = _written(columns)
    else:
        doc = encode_document(columns)
        rec = doc
        for part in parents:
            rec = rec[part]
        rec[key] = value
    with pytest.raises(CorruptDocument):
        from_both(doc)


def _fuzz_bases() -> list[dict]:
    """Format 5 documents: decode them to edit their trie's columns."""
    k3 = Trie(TrieMode.DG)
    k3.index_graph(gen_clique(3))
    return [
        k3.to_document(),
        insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "c"], ["c", "a", "c", "a"]]).to_document(),
        insert_all(TrieMode.DAG, FIGURE_SEQUENCES, n=3).to_document(),
        insert_all(TrieMode.DAG, [["x"]]).to_document(),
        Trie(TrieMode.DG).to_document(),
    ]


FUZZ_BASES = _fuzz_bases()

# small ints can land on valid-looking indices and counts; the empty list
# and dict are built afresh per draw, since a mutation may append to them
JUNK = st.one_of(
    st.integers(min_value=-2, max_value=8),
    st.sampled_from([-(2**70), 2**70, True, False, 0.5, 2.0, None, "", "a", ":r1"]),
    st.builds(list),
    st.builds(dict),
)


def _edit(data, values: list, junk) -> None:
    """Append to ``values`` or replace or delete one of its elements."""
    ops = ["append"] + (["replace element"] * 3 + ["delete element"] if values else [])
    op = data.draw(st.sampled_from(ops))
    if op == "append":
        values.append(data.draw(junk))
        return
    at = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    if op == "delete element":
        del values[at]
    else:
        values[at] = data.draw(junk)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_document_is_rejected_or_round_trips(data):
    # column edits go into the decoded columns, which a writer that checks nothing then writes
    # (an int modulo its column's width); header edits into the written document, as JSON holds them
    columns = decode_document(data.draw(st.sampled_from(FUZZ_BASES)))
    nodes = len(columns["id"]) + 1  # the root included
    past = st.sampled_from([nodes, nodes + 1])  # indices past the end
    ints = st.one_of(st.integers(min_value=-2, max_value=8), st.sampled_from([-(2**70), 2**70]), past)
    edits = data.draw(st.integers(min_value=0, max_value=3))
    for _ in range(edits):
        column = data.draw(st.sampled_from(BODY_ORDER))
        _edit(data, columns[column], st.sampled_from(["", "a", ":r1", "zz"]) if column == "id" else ints)
    doc = encode_document(columns)
    for _ in range(data.draw(st.integers(min_value=0 if edits else 1, max_value=3))):
        key = data.draw(st.sampled_from(sorted(doc) or ["format_version"]))
        if key not in doc:
            continue
        ops = ["replace", "drop"] + (["edit"] * 3 if isinstance(doc[key], list) else [])
        op = data.draw(st.sampled_from(ops))
        if op == "replace":
            doc[key] = data.draw(st.one_of(JUNK, past))
        elif op == "drop":
            del doc[key]
        else:
            _edit(data, doc[key], st.one_of(JUNK, past))
    version_hit = doc.get("format_version", 5) != 5 or type(doc.get("format_version", 5)) is not int
    try:
        trie = from_both(doc)
    except FormatVersionMismatch:
        assert version_hit
        return
    except CorruptDocument:
        return
    again = trie.to_document()
    assert from_both(again).to_document() == again


def _body_of(doc: dict) -> bytes:
    return zlib.decompress(base64.b64decode(doc["columns"]))


def _packed(body: bytes) -> str:
    return base64.b64encode(zlib.compress(body, 1)).decode("ascii")


BYTE_EDITS = [
    "flip a bit", "cut the body", "extend the body", "corrupt the base64", "edit a width", "edit nodes",
    "edit cycle_edges", "edit classes", "edit class_edges", "edit class_cycle_edges", "swap two labels", "repeat a label", "add an empty label", "add a label that is no string",
    "edit format_version",
]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_byte_level_mutations_are_rejected_or_round_trip(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    body, labels = _body_of(doc), doc["labels"]
    text_edits = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        how = data.draw(st.sampled_from(BYTE_EDITS))
        if how == "flip a bit" and body:
            at = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
            body = body[:at] + bytes([body[at] ^ 1 << data.draw(st.integers(0, 7))]) + body[at + 1 :]
        elif how == "cut the body" and body:
            body = body[: data.draw(st.integers(min_value=0, max_value=len(body) - 1))]
        elif how == "extend the body":
            body += data.draw(st.binary(min_size=1, max_size=9))
        elif how == "corrupt the base64":
            text_edits.append(data.draw(st.tuples(st.integers(min_value=0), st.sampled_from(["", "=", "!", "é", "\n", "A"]))))
        elif how == "edit a width":
            doc["widths"][data.draw(st.integers(0, 7))] = data.draw(st.sampled_from([0, 1, 2, 3, 4, 8, 16, -1, True, 2.0, None]))
        elif how.startswith("edit ") and how.split()[1] in doc:
            key = how.split()[1]
            doc[key] = data.draw(st.one_of(st.integers(min_value=-1, max_value=70), st.sampled_from([2**70, 1.0, "1"])))
        elif how == "swap two labels" and len(labels) > 1:
            i, j = data.draw(st.lists(st.integers(0, len(labels) - 1), min_size=2, max_size=2, unique=True))
            labels[i], labels[j] = labels[j], labels[i]
        elif how == "repeat a label" and labels:
            at = data.draw(st.integers(0, len(labels) - 1))
            labels.insert(at, labels[at])
        elif how == "add an empty label":
            labels.insert(0, "")
        elif how == "add a label that is no string":
            labels.insert(data.draw(st.integers(0, len(labels))), data.draw(st.sampled_from([1, None, ["a"], 2.0])))
        elif how == "edit format_version":
            doc["format_version"] = data.draw(st.sampled_from([4, 6, "5", 5.0, True, None]))
    text = _packed(body)
    for at, char in text_edits:  # replace one character, or delete it ("")
        at %= len(text)
        text = text[:at] + char + text[at + 1 :]
    doc["columns"] = text
    try:
        trie = from_both(doc)
    except FormatVersionMismatch:
        assert doc["format_version"] != 5 or type(doc["format_version"]) is not int
        return
    except CorruptDocument:
        return
    again = trie.to_document()
    assert from_both(again).to_document() == again


def _figure_document() -> dict:
    return insert_all(TrieMode.DAG, FIGURE_SEQUENCES).to_document()


# (how the columns text is made from the body, the message); the body is the figure trie's
BODY_BREAKERS = {
    "not-a-string": (lambda body: list(body), "^columns must be a base64 string$"),
    "not-base64": (lambda body: _packed(body)[:-1] + "!", "^columns are not base64"),
    "not-ascii": (lambda body: "é" + _packed(body), "^columns are not base64"),
    "not-zlib": (lambda body: base64.b64encode(body).decode(), "^columns are not a zlib stream"),
    "stream-cut-short": (
        lambda body: base64.b64encode(zlib.compress(body, 1)[:-6]).decode(),
        "^column stream cut short$",
    ),
    "body-short": (lambda body: _packed(body[:-1]), "^column body shorter than the [0-9]+ bytes its header declares$"),
    "body-long": (lambda body: _packed(body + b"\0"), "^column body longer than the [0-9]+ bytes its header declares$"),
    "data-after-the-stream": (
        lambda body: base64.b64encode(zlib.compress(body, 1) + b"\0").decode(),
        "^data after the column stream$",
    ),
}


@pytest.mark.parametrize("make, message", BODY_BREAKERS.values(), ids=BODY_BREAKERS.keys())
def test_a_malformed_body_is_refused(make, message):
    doc = _figure_document()
    doc["columns"] = make(_body_of(doc))
    with pytest.raises(CorruptDocument, match=message):
        from_both(doc)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("labels", "N1 N2", "^labels must be an array$"),
        ("labels", ["N1", "N1", "N2", "N3", "N4", "N5"], "^label table not strictly increasing at label 1: 'N1'$"),
        ("labels", ["N2", "N1", "N3", "N4", "N5"], "^label table not strictly increasing at label 1: 'N1'$"),
        ("labels", ["N1", "N2", "N3", "N4"], "^label index 4 outside a table of 4 labels$"),
        ("labels", ["", "N1", "N2", "N3", "N4"], "^identifiers must be nonempty strings$"),
        ("widths", [1, 1, 1, 1, 1, 1, 1], "^widths must be 8 column widths of 1, 2, 4 or 8 bytes$"),
        ("widths", [1, 1, 1, 1, 1, 1, 1, 1.0], "^widths must be 8"),
        ("nodes", 7.0, "^header counts must be non-negative integers$"),
        ("cycle_edges", -1, "^header counts must be non-negative integers$"),
        ("classes", 2**70, "^columns are not a zlib stream"),  # a size no buffer can hold
        ("nodes", 2**70, "^header declares 1180591620717411303424 nodes and 0 cycle-edges, the table unfolds to 7 and 0$"),
    ],
)
def test_a_malformed_header_is_refused(key, value, message):
    doc = _figure_document()
    assert doc["labels"] == ["N1", "N2", "N3", "N4", "N5"] and doc["nodes"] == 7
    doc[key] = value
    with pytest.raises(CorruptDocument, match=message):
        from_both(doc)


def test_a_dg_document_with_a_window_length_is_refused():
    # a DG trie indexes whole traces, and a strict query on one with n > 0 would refuse to run
    doc = _dg_clique(4).to_document()
    doc["n"] = 3
    with pytest.raises(CorruptDocument, match="^a DG trie has window length 0, got n 3$"):
        from_both(doc)
    dag = _figure_document()
    dag["n"] = 3
    assert from_both(dag).n == 3  # a DAG trie may record its window length


def test_the_body_is_the_columns_compressed_in_one_stream_at_level_1():
    for doc in FUZZ_BASES:
        body = _body_of(doc)
        assert doc["columns"] == _packed(body)
        lengths = table_lengths(doc["classes"], doc["class_edges"], doc["class_cycle_edges"])
        assert len(body) == sum(width * length for width, length in zip(doc["widths"], lengths))


def _encode(columns: list[list[int]]) -> dict:
    """A document with an empty DAG header around ``columns`` and five empty
    columns after them: ``encode``'s body alone."""
    return encode(TrieMode.DAG, 0, 0, 0, 0, [], columns + [[]] * (len(TABLE_ORDER) - len(columns)))


@pytest.mark.parametrize(
    "top, width",
    [(255, 1), (256, 2), (65_535, 2), (65_536, 4), (2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8)],
)
def test_a_column_takes_the_smallest_width_that_holds_its_maximum(top, width):
    columns = [[0, top, 1], [], [top]]
    doc = _encode(columns)
    widths = doc["widths"]
    assert widths == [width, 1, width, 1, 1, 1, 1, 1]
    decoded = _read_columns(doc["columns"], widths, [3, 0, 1, 0, 0, 0, 0, 0])
    assert list(map(list, decoded)) == columns + [[]] * 5
    assert [column.itemsize for column in decoded] == widths


@pytest.mark.parametrize("value", [2**64, -1])
def test_a_column_value_past_8_bytes_or_below_0_is_an_overflow(value):
    with pytest.raises(OverflowError):
        _encode([[0, value]])


@pytest.mark.parametrize("top", [255, 65_535, 2**32 - 1, 2**64 - 1])
def test_a_value_below_0_is_an_overflow_at_every_width(top):
    # 1- and 2-byte columns are converted through bytes and struct, which raise other errors
    with pytest.raises(OverflowError):
        _encode([[top, 1, -1]])


@pytest.mark.parametrize("declared", [0, 1, 2**20])
def test_a_body_that_inflates_past_its_declared_size_is_refused_without_inflating_it(declared):
    # 64 MiB of zeros compress to about 64 KiB; the header declares at most 5 MiB of columns
    doc = insert_all(TrieMode.DAG, [["a"]]).to_document()
    doc.update(classes=declared, widths=[1] * 8)
    packer = zlib.compressobj(9)
    bomb = b"".join([*(packer.compress(bytes(1 << 20)) for _ in range(64)), packer.flush()])
    doc["columns"] = base64.b64encode(bomb).decode("ascii")
    del bomb
    tracemalloc.start()
    try:
        with pytest.raises(CorruptDocument, match="^column body longer than"):
            FrozenTrie.from_document(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the declared size, about 5 MiB at most, and buffers; never the 64 MiB the stream inflates to
    assert peak < 16 << 20, peak


def test_a_run_count_past_8_bytes_is_refused():
    # every other rule holds: two depth-1 leaves of 2**63 runs each; the frozen trie's freq is an array
    big = 2**63
    columns = {"format_version": 5, "mode": "dag", "n": 0, "sequence_count": 2 * big, "child_count": [2, 0, 0]}
    columns.update(id=["a", "b"], freq=[big, big], terminal_count=[big, big], cycle_out=[0, 0, 0])
    columns.update(cycle_to=[], cycle_count=[])
    with pytest.raises(CorruptDocument, match="^sequence_count past 8 bytes$"):
        from_both(encode_document(columns))
    columns.update(sequence_count=big + 1, terminal_count=[big, 1], freq=[big, 1])
    assert from_both(encode_document(columns)).sequence_count == big + 1


def test_load_rejects_non_json():
    with pytest.raises(CorruptDocument):
        load(io.StringIO("this is not a document"))


@pytest.mark.parametrize("loader", [load, load_frozen])
@pytest.mark.parametrize("source", ["path", "stream"])
def test_load_rejects_text_that_is_not_utf8(loader, source, tmp_path):
    path = tmp_path / "latin1.trie"
    path.write_bytes(b"\xff" + json.dumps(insert_all(TrieMode.DG, FIGURE_SEQUENCES).to_document()).encode())
    with open(path, "rb") as raw, io.TextIOWrapper(raw, encoding="utf-8") as stream:
        with pytest.raises(CorruptDocument, match="^not a valid document: 'utf-8' codec can't decode byte 0xff"):
            loader(path if source == "path" else stream)


def test_load_rejects_non_object():
    with pytest.raises(CorruptDocument):
        load(io.StringIO(json.dumps([1, 2, 3])))


def test_document_is_deterministic():
    a = insert_all(TrieMode.DAG, FIGURE_SEQUENCES)
    b = insert_all(TrieMode.DAG, FIGURE_SEQUENCES)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    save(a, buf_a)
    save(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


FROZEN_ARRAYS = ("freq", "entry", "terminal", "first", "efirst", "cycle_to", "cycle_count")


def test_a_frozen_trie_holds_its_numeric_columns_as_arrays_and_a_load_retains_little(tmp_path):
    # as lists of ints, a K7 load retained about 43 bytes per node plus cycle-edge; as arrays, about 7
    trie = _dg_clique(7)
    path = tmp_path / "k7.trie"
    save(trie, path)
    load_frozen(path)  # anything a first load caches is not the trie's
    tracemalloc.start()
    try:
        frozen = load_frozen(path)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(type(getattr(frozen, name)) is array.array for name in FROZEN_ARRAYS)
    assert type(frozen.id) is list
    nodes, edges = len(frozen.id), len(frozen.cycle_to)
    assert (nodes, edges) == (13_700, 68_502)
    assert retained < 20 * (nodes + edges), retained / (nodes + edges)
    assert frozen.depth_stats == trie.depth_stats
    pattern = QueryPattern((":r0",), 4, ":r1")
    assert count_paths(frozen, pattern) == count_paths(trie, pattern)


def test_a_loaded_trie_takes_inserts_past_a_narrow_column():
    # a thaw that adopted the 1-byte freq and terminal arrays would overflow on the 256th insert
    sequences = [["a", "b", "c"], ["a", "b"], ["a", "d"], ["e"]]
    text = _saved(insert_all(TrieMode.DAG, sequences))
    widths = dict(zip(COLUMNS, json.loads(text)["widths"]))
    assert widths["freq"] == widths["terminal_count"] == 1
    loaded = load(io.StringIO(text))
    assert all(type(getattr(loaded, name)) is list for name in ("freq", "entry", "terminal", "cycle_to", "cycle_count"))
    for _ in range(300):
        loaded.insert(["a", "b", "c"])
    loaded.check_invariants()
    assert _saved(loaded) == _saved(insert_all(TrieMode.DAG, sequences + [["a", "b", "c"]] * 300))
    assert json.loads(_saved(loaded))["widths"][COLUMNS.index("freq")] == 2


def _saved(trie: Trie) -> str:
    buf = io.StringIO()
    save(trie, buf)
    return buf.getvalue()


def _json_dump_bytes(trie: Trie) -> str:
    return json.dumps(trie.to_document(), separators=(",", ":"))


def _dg_clique(size: int) -> Trie:
    t = Trie(TrieMode.DG)
    t.index_graph(gen_clique(size))
    return t


def _dag_random(seed: int) -> Trie:
    rng = random.Random(seed)
    return insert_all(TrieMode.DAG, [rng.choices("abcdef", k=rng.randint(1, 10)) for _ in range(600)])


SAVE_CASES = {
    **{f"dg-k{size}": lambda size=size: _dg_clique(size) for size in range(2, 8)},
    "dag-random": lambda: _dag_random(3),
    "dag-figure": lambda: insert_all(TrieMode.DAG, FIGURE_SEQUENCES, n=3),
    "dg-no-cycle-edges": lambda: insert_all(TrieMode.DG, [["a"], ["a", "b"]]),
    "empty-records": lambda: Trie(TrieMode.DG),
}


@pytest.mark.parametrize("make", SAVE_CASES.values(), ids=SAVE_CASES.keys())
def test_save_bytes_equal_json_dump(make):
    trie = make()
    buf = io.StringIO()
    assert save(trie, buf) == node_count(trie)
    assert buf.getvalue() == _json_dump_bytes(trie)


def test_save_to_path_bytes_equal_json_dump(tmp_path):
    trie = _dg_clique(4)
    path = tmp_path / "k4.trie"
    assert save(trie, path) == node_count(trie)
    assert path.read_text(encoding="utf-8") == _json_dump_bytes(trie)


def test_failed_save_leaves_existing_file(tmp_path, monkeypatch):
    path = tmp_path / "index.trie"
    save(insert_all(TrieMode.DAG, FIGURE_SEQUENCES), path)
    before = path.read_bytes()

    to_document = Trie.to_document

    def unencodable(self):  # fails after the temporary file is created
        doc = to_document(self)
        doc["labels"].append(object())
        return doc

    monkeypatch.setattr(Trie, "to_document", unencodable)
    with pytest.raises(TypeError):
        save(insert_all(TrieMode.DAG, [["x"]]), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["index.trie"]


def test_failed_save_names_the_target(tmp_path):
    trie = insert_all(TrieMode.DAG, FIGURE_SEQUENCES)
    missing = tmp_path / "missing" / "index.trie"
    with pytest.raises(FileNotFoundError) as raised:  # the temporary file cannot be created
        save(trie, missing)
    assert raised.value.filename == str(missing)
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(IsADirectoryError) as raised:  # the temporary file cannot replace the target
        save(trie, taken)
    assert raised.value.filename == str(taken)
    assert [p.name for p in tmp_path.iterdir()] == ["taken"] and not any(taken.iterdir())


def test_a_failed_write_that_names_no_file_is_raised_unchanged(tmp_path, monkeypatch, capsys):
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))  # a full disk names no file
    real_fdopen = os.fdopen

    class FullDisk:
        def __init__(self, fd, *args, **kwargs):
            self.fh = real_fdopen(fd, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, text):
            raise full

    monkeypatch.setattr(os, "fdopen", FullDisk)
    with pytest.raises(OSError) as raised:
        save(insert_all(TrieMode.DAG, FIGURE_SEQUENCES), tmp_path / "index.trie")
    assert raised.value is full and raised.value.filename is None
    assert list(tmp_path.iterdir()) == []  # no .provtrie-* file is left behind
    # the DG document writer of ``index`` goes through the same writer: an existing --out stays as it was
    out = tmp_path / "k4.trie"
    out.write_bytes(b"an earlier index")
    k4 = Path(__file__).parent / "data" / "k4.json"
    assert main(["index", str(k4), "--mode", "dg", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {full}\n")
    assert list(tmp_path.iterdir()) == [out] and out.read_bytes() == b"an earlier index"


def test_save_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # another thread's file created while the umask is swapped out would get none
    def no_umask(mask):
        raise AssertionError("save changed the process umask")

    monkeypatch.setattr(os, "umask", no_umask)
    trie = _dg_clique(3)
    path = tmp_path / "k3.trie"
    assert save(trie, path) == node_count(trie)
    assert path.read_text(encoding="utf-8") == _json_dump_bytes(trie)
    assert [p.name for p in tmp_path.iterdir()] == ["k3.trie"]


def test_documents_list_nodes_breadth_first_with_children_in_label_order():
    doc = decode_document(insert_all(TrieMode.DAG, FIGURE_SEQUENCES).to_document())
    assert doc["id"] == ["N1", "N5", "N2", "N3", "N4", "N1", "N3"]
    assert doc["child_count"] == [2, 3, 0, 2, 0, 0, 0, 0]  # parents 0, 0, 1, 1, 1, 3, 3
    doc = decode_document(insert_all(TrieMode.DG, [["b", "a", "b"], ["a", "b", "a"], ["a", "c", "a"]]).to_document())
    assert (doc["id"], doc["child_count"]) == (["a", "b", "b", "c", "a"], [2, 2, 1, 0, 0, 0])
    # by source, then label; targets are ancestors
    assert (doc["cycle_out"], doc["cycle_to"], doc["cycle_count"]) == ([0, 0, 0, 1, 1, 1], [1, 1, 2], [1, 1, 1])


def _siblings_reversed(trie: Trie) -> dict:
    """The trie's columns in another level order: children, and each
    node's cycle-edges, in reverse label order."""
    order = [0]
    for node in order:
        order += sorted(trie.children[node].values(), key=trie.id.__getitem__, reverse=True)
    renumber = {node: k for k, node in enumerate(order)}
    edges = [edge for node in order for _, edge in sorted(trie.cycles[node].items(), reverse=True)]
    return {
        **decode_document(trie.to_document()),
        "child_count": [len(trie.children[node]) for node in order],
        "id": [trie.id[node] for node in order[1:]],
        "freq": [trie.freq[node] for node in order[1:]],
        "terminal_count": [trie.terminal[node] for node in order[1:]],
        "cycle_out": [len(trie.cycles[node]) for node in order],
        "cycle_to": [renumber[trie.cycle_to[edge]] for edge in edges],
        "cycle_count": [trie.cycle_count[edge] for edge in edges],
    }


@pytest.mark.parametrize("order", ["breadth-first", "siblings-reversed"])
def test_loader_keeps_document_order_and_shares_no_list(order):
    trie = _dg_clique(4)
    trie.insert([":r3", ":r2", ":r3", ":r0"])
    columns = decode_document(trie.to_document()) if order == "breadth-first" else _siblings_reversed(trie)
    doc = encode_document(columns)
    assert columns["id"] != decode_document(trie.to_document())["id"] or order == "breadth-first"
    if order == "siblings-reversed":  # the loader requires canonical label order
        with pytest.raises(CorruptDocument, match="out of label order"):
            from_both(doc)
        return
    before = copy.deepcopy(doc)
    loaded = Trie.from_document(doc)
    # node k of the document is node k of the trie
    assert parent_column(loaded)[1:] == expand_degrees(columns["child_count"]) and loaded.id[1:] == columns["id"]
    assert [source for source, out in enumerate(loaded.cycles) for _ in out] == expand_degrees(columns["cycle_out"])
    assert loaded.freq[1:] == columns["freq"] and loaded.terminal[1:] == columns["terminal_count"]
    assert loaded.cycle_to == columns["cycle_to"] and loaded.cycle_count == columns["cycle_count"]
    assert [edge for out in loaded.cycles for edge in out.values()] == list(range(len(columns["cycle_to"])))
    assert loaded.to_document() == trie.to_document()
    # later changes to the trie leave the document alone
    loaded.insert([":r3", ":r2", ":r3", ":r1"])
    assert loaded.sequence_count == doc["sequence_count"] + 1
    assert doc == before


def test_loading_adds_few_gc_tracked_objects(tmp_path):
    # the node and edge columns hold only ints, strings and dicts of them,
    # which the cyclic collector does not track, so loading tracks no
    # object per node or per cycle-edge
    trie = _dg_clique(6)
    assert (node_count(trie), trie.to_document()["cycle_edges"]) == (1956, 7830)
    path = tmp_path / "k6.trie"
    save(trie, path)
    was = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        loaded = load(path)
        added = len(gc.get_objects()) - before
    finally:
        if was:
            gc.enable()
    assert loaded.to_document() == trie.to_document()
    assert added < 100, added


def test_loading_a_frozen_trie_adds_few_gc_tracked_objects(tmp_path):
    # columns of ints and strings, views made on demand: no object per node or per cycle-edge
    trie = _dg_clique(6)
    path = tmp_path / "k6.trie"
    save(trie, path)
    was = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        frozen = load_frozen(path)
        added = len(gc.get_objects()) - before
    finally:
        if was:
            gc.enable()
    pattern = QueryPattern((":r0",), 3, ":r1")
    assert count_paths(frozen, pattern) == count_paths(trie, pattern)
    assert "depth_stats" not in vars(frozen)
    assert (frozen.depth_stats, frozen.freq[0]) == (trie.depth_stats, trie.sequence_count)
    assert added < 100, added


def _dag_skewed_runs(seed: int) -> Trie:
    """Whole runs of 20 templates, drawn with Zipf weights (1 / rank) and each
    cut at a random length: unevenly shared prefixes, as in a run corpus."""
    rng = random.Random(seed)
    templates = [[f"urn:t{t}s{rng.randint(0, 3)}" for _ in range(rng.randint(3, 12))] for t in range(20)]
    drawn = rng.choices(templates, [1 / rank for rank in range(1, 21)], k=800)
    return insert_all(TrieMode.DAG, [run[: rng.randint(1, len(run))] for run in drawn])


@pytest.mark.parametrize("make", [lambda: _dg_clique(4), lambda: _dag_skewed_runs(7)], ids=["dg-k4", "dag-skewed-runs"])
def test_a_loaded_frozen_trie_sums_its_per_depth_table_on_first_read(make, tmp_path):
    trie = make()
    path = tmp_path / "t.trie"
    save(trie, path)
    frozen = load_frozen(path)
    first, last = min(filter(None, trie.id)), max(filter(None, trie.id))
    pattern = QueryPattern((first,), 2, last)
    assert q1(frozen, pattern) == q1(trie, pattern) and count_paths(frozen, pattern) == count_paths(trie, pattern)
    assert q2_suggest(frozen, [first], 2, 5) == q2_suggest(trie, [first], 2, 5)
    assert "depth_stats" not in vars(frozen)
    assert frozen.depth_stats == load(path).depth_stats == trie.depth_stats
