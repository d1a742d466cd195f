import copy
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provtrie.graph import gen_clique
from provtrie.query import QueryPattern, count_paths
from provtrie.trie import (
    CorruptDocument,
    FormatVersionMismatch,
    Trie,
    TrieMode,
    load,
    save,
)

from helpers import all_node_freqs, insert_all

HEADER_KEYS = ["format_version", "mode", "n", "sequence_count"]
NODE_COLUMNS = ["parent", "id", "freq", "terminal_count"]
CYCLE_COLUMNS = ["cycle_from", "cycle_to", "cycle_count"]

FIGURE_SEQUENCES = [
    ["N1", "N2", "N1"],
    ["N1", "N2", "N3"],
    ["N1", "N3"],
    ["N1", "N4"],
    ["N5"],
]


def roundtrip(trie: Trie) -> Trie:
    buf = io.StringIO()
    save(trie, buf)
    buf.seek(0)
    return load(buf)


def test_empty_trie_roundtrip():
    t = Trie(TrieMode.DAG)
    doc = t.to_document()
    assert doc["sequence_count"] == 0
    assert doc["parent"] == [] and doc["cycle_from"] == []
    back = roundtrip(t)
    assert back.to_document() == doc
    assert back.node_count == 0


def test_reference_trie_roundtrip():
    t = insert_all(TrieMode.DAG, FIGURE_SEQUENCES)
    back = roundtrip(t)
    assert back.node_count == 7
    assert back.to_document() == t.to_document()
    assert all_node_freqs(back) == all_node_freqs(t)
    # probabilities recompute identically from the stored frequencies
    for path, (freq, entry, terminal) in all_node_freqs(t).items():
        node = back.find(path)
        assert node is not None and node.freq == freq


def test_dg_trie_roundtrip_with_cycles():
    t = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "a"], ["a", "b", "c"]])
    back = roundtrip(t)
    assert back.to_document() == t.to_document()
    b = back.root.children["a"].children["b"]
    assert b.cycles["a"].count == 2
    # descent counts (and therefore probabilities) survive the round trip
    assert back.root.children["a"].entry_count == t.root.children["a"].entry_count
    assert abs(b.prob - t.root.children["a"].children["b"].prob) < 1e-12
    back.check_invariants()


def test_indexed_graph_roundtrip_preserves_counts():
    t = Trie(TrieMode.DG)
    t.index_graph_dg(gen_clique(4))
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
    assert list(doc) == [*HEADER_KEYS, *NODE_COLUMNS, *CYCLE_COLUMNS]
    assert doc["format_version"] == 2
    assert doc["mode"] == "dag"
    assert doc["n"] == 2
    assert doc["sequence_count"] == 1
    # the root (index 0) is implicit: one entry per non-root node
    assert doc["parent"] == [0, 1]
    assert doc["id"] == ["a", "b"]
    assert doc["freq"] == [1, 1]
    assert doc["terminal_count"] == [0, 1]
    assert doc["cycle_from"] == doc["cycle_to"] == doc["cycle_count"] == []


def test_format_version_mismatch():
    doc = insert_all(TrieMode.DAG, [["a"]]).to_document()
    doc["format_version"] = 3
    with pytest.raises(FormatVersionMismatch):
        Trie.from_document(doc)


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
        Trie.from_document(doc)
    with pytest.raises(FormatVersionMismatch):
        load(io.StringIO(json.dumps(doc)))


def _tampered(mutate):
    doc = copy.deepcopy(insert_all(TrieMode.DAG, FIGURE_SEQUENCES).to_document())
    mutate(doc)
    return doc


def test_corrupt_child_freq_exceeds_parent():
    doc = _tampered(lambda d: d["freq"].__setitem__(1, 99))
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


def test_corrupt_missing_header():
    with pytest.raises(CorruptDocument):
        Trie.from_document({"mode": "dag"})


def _child_before_parent(doc):
    # nodes 1 (N1) and 2 (its child N2) trade places; parent indices follow
    for key in NODE_COLUMNS:
        doc[key][0], doc[key][1] = doc[key][1], doc[key][0]
    doc["parent"] = [{1: 2, 2: 1}.get(p, p) for p in doc["parent"]]


def test_corrupt_nodes_out_of_order():
    doc = _tampered(_child_before_parent)
    assert doc["parent"][:2] == [2, 0]
    with pytest.raises(CorruptDocument, match="not before node 1"):
        Trie.from_document(doc)


@pytest.mark.parametrize("node, parent", [(0, 1), (2, 3), (2, 4), (6, 7), (2, -1)])
def test_corrupt_parent_not_an_earlier_node(node, parent):
    # the node at column position ``node`` has index node + 1
    doc = _tampered(lambda d: d["parent"].__setitem__(node, parent))
    with pytest.raises(CorruptDocument, match="not before node"):
        Trie.from_document(doc)


def test_corrupt_dangling_parent():
    doc = _tampered(lambda d: d["parent"].__setitem__(1, 77))
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


@pytest.mark.parametrize("column", NODE_COLUMNS + CYCLE_COLUMNS)
@pytest.mark.parametrize("change", ["shorter", "longer"])
def test_corrupt_columns_of_unequal_length(column, change):
    doc = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "c"]]).to_document()
    if change == "shorter":
        doc[column].pop()
    else:
        doc[column].append(doc[column][-1])
    with pytest.raises(CorruptDocument, match="unequal length"):
        Trie.from_document(doc)


def test_corrupt_cycle_edge_in_dag_document():
    def add_edge(d):
        d["cycle_from"].append(2)
        d["cycle_to"].append(1)
        d["cycle_count"].append(1)

    doc = _tampered(add_edge)
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


def test_corrupt_duplicate_child():
    doc = _tampered(lambda d: d["id"].__setitem__(6, "N1"))  # N5 renamed to its sibling N1
    with pytest.raises(CorruptDocument, match="duplicate child"):
        Trie.from_document(doc)


def test_corrupt_duplicate_cycle_edge():
    doc = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "a"]]).to_document()
    assert (doc["cycle_from"], doc["cycle_to"], doc["cycle_count"]) == ([2], [1], [2])
    doc.update(cycle_from=[2, 2], cycle_to=[1, 1], cycle_count=[1, 1])
    with pytest.raises(CorruptDocument, match="duplicate cycle-edge"):
        Trie.from_document(doc)


def test_corrupt_cycle_edge_into_the_root():
    doc = insert_all(TrieMode.DG, [["a", "b"]]).to_document()
    # b's one insertion now cycles back to the root instead of ending at b
    doc.update(terminal_count=[0, 0], cycle_from=[2], cycle_to=[0], cycle_count=[1])
    with pytest.raises(CorruptDocument, match="into the root"):
        Trie.from_document(doc)


@pytest.mark.parametrize("rid", ["", 1, None, ["N1"]])
def test_corrupt_identifier_not_a_nonempty_string(rid):
    doc = _tampered(lambda d: d["id"].__setitem__(3, rid))
    with pytest.raises(CorruptDocument, match="identifier"):
        Trie.from_document(doc)


def test_corrupt_dg_identifier_repeats_on_the_root_path():
    doc = {
        "format_version": 2,
        "mode": "dg",
        "n": 0,
        "sequence_count": 1,
        "parent": [0, 1],
        "id": ["a", "a"],
        "freq": [1, 1],
        "terminal_count": [0, 1],
        "cycle_from": [],
        "cycle_to": [],
        "cycle_count": [],
    }
    with pytest.raises(CorruptDocument, match="repeats on the root path"):
        Trie.from_document(doc)
    # in a DAG trie a repeated identifier is just a deeper node
    assert Trie.from_document({**doc, "mode": "dag"}).node_count == 2


def test_dg_self_loops_round_trip():
    t = insert_all(TrieMode.DG, [["a", "a", "b", "b", "a"]])
    a = t.root.children["a"]
    assert a.cycles["a"].target is a and a.children["b"].cycles["b"].target is a.children["b"]
    assert roundtrip(t).to_document() == t.to_document()


def test_check_invariants_rejects_hand_bumped_depth_stats():
    t = insert_all(TrieMode.DAG, FIGURE_SEQUENCES)
    t.check_invariants()
    t.depth_stats.bump(1, "N1", 123)
    with pytest.raises(CorruptDocument, match="per-depth"):
        t.check_invariants()


def test_corrupt_root_freq_vs_sequence_count():
    doc = _tampered(lambda d: d.update(sequence_count=42))
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


def test_corrupt_negative_statistics():
    doc = _tampered(lambda d: d["terminal_count"].__setitem__(2, -1))
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


def test_corrupt_node_without_traversals():
    # a leaf no sequence reached: conservation holds, but its freq is 0
    def add_leaf(d):
        d["parent"].append(7)
        d["id"].append("N6")
        d["freq"].append(0)
        d["terminal_count"].append(0)

    doc = _tampered(add_leaf)
    with pytest.raises(CorruptDocument, match="out of range"):
        Trie.from_document(doc)


def test_corrupt_cycle_target_not_ancestor():
    t = insert_all(TrieMode.DG, [["a", "b", "a"], ["c", "d"]])
    doc = copy.deepcopy(t.to_document())
    # retarget the cycle edge (a/b -> a) at a node outside the root path
    was, victim = doc["cycle_to"][0] - 1, doc["id"].index("c")
    doc["cycle_to"][0] = victim + 1
    # move the arrival and the insertion that ended there along with it, so
    # that every statistic balances and only the ancestor check can fail
    for column in ("freq", "terminal_count"):
        doc[column][was] -= 1
        doc[column][victim] += 1
    with pytest.raises(CorruptDocument, match="not an ancestor"):
        Trie.from_document(doc)


# pytest names these cases by position: append new ones at the end
@pytest.mark.parametrize(
    "where, value",
    [
        (("n",), "0"),
        (("n",), -1),
        (("sequence_count",), 2.0),
        (("parent", 0), True),
        (("parent", 1), True),
        (("freq", 0), "3"),
        (("terminal_count", 0), 1.9),
        (("terminal_count", 2), True),
        (("parent", 2), 2.0),
        (("cycle_from", 0), -2),
        (("cycle_to", 0), -3),
        (("cycle_to", 0), 4),
        (("cycle_count", 0), "1"),
        (("cycle_count", 0), True),
        (("freq", 0), 3.0),
        (("sequence_count",), -1),
        (("cycle_from", 0), 2.0),
    ],
)
def test_corrupt_inexact_or_out_of_range_integer(where, value):
    # nodes: root, a, a/b (cycle-edge back to a), a/b/c
    doc = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "c"]]).to_document()
    Trie.from_document(copy.deepcopy(doc))
    *parents, key = where
    rec = doc
    for part in parents:
        rec = rec[part]
    rec[key] = value
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


def _fuzz_bases() -> list[dict]:
    k3 = Trie(TrieMode.DG)
    k3.index_graph_dg(gen_clique(3))
    return [
        k3.to_document(),
        insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "c"], ["c", "a", "c", "a"]]).to_document(),
        insert_all(TrieMode.DAG, FIGURE_SEQUENCES, n=3).to_document(),
        insert_all(TrieMode.DAG, [["x"]]).to_document(),
        Trie(TrieMode.DG).to_document(),
    ]


FUZZ_BASES = _fuzz_bases()

# small ints can land on valid-looking indices and counts
JUNK = st.one_of(
    st.integers(min_value=-2, max_value=8),
    st.sampled_from([-(2**70), 2**70, True, False, 0.5, 2.0, None, "", "a", ":r1", [], {}]),
)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_document_is_rejected_or_round_trips(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    nodes = len(doc["parent"]) + 1  # the root included
    junk = st.one_of(JUNK, st.sampled_from([nodes, nodes + 1]))  # indices past the end
    version_hit = False
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        if not doc:
            break
        key = data.draw(st.sampled_from(sorted(doc)))
        ops = ["replace", "drop"]
        if isinstance(doc[key], list):
            ops.append("append")
            if doc[key]:  # mostly hit single elements
                ops += ["replace element"] * 3 + ["delete element"]
        op = data.draw(st.sampled_from(ops))
        version_hit |= key == "format_version"
        if op == "replace":
            doc[key] = data.draw(junk)
        elif op == "drop":
            del doc[key]
        elif op == "append":
            doc[key].append(data.draw(junk))
        else:
            at = data.draw(st.integers(min_value=0, max_value=len(doc[key]) - 1))
            if op == "delete element":
                del doc[key][at]
            else:
                doc[key][at] = data.draw(junk)
    try:
        trie = Trie.from_document(doc)
    except FormatVersionMismatch:
        assert version_hit
        return
    except CorruptDocument:
        return
    again = trie.to_document()
    assert Trie.from_document(again).to_document() == again


def test_load_rejects_non_json():
    with pytest.raises(CorruptDocument):
        load(io.StringIO("this is not a document"))


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


def _json_dump_bytes(trie: Trie) -> str:
    return json.dumps(trie.to_document(), separators=(",", ":"))


def _dg_clique(size: int) -> Trie:
    t = Trie(TrieMode.DG)
    t.index_graph_dg(gen_clique(size))
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
    assert save(trie, buf) == trie.node_count
    assert buf.getvalue() == _json_dump_bytes(trie)


def test_save_to_path_bytes_equal_json_dump(tmp_path):
    trie = _dg_clique(4)
    path = tmp_path / "k4.trie"
    assert save(trie, path) == trie.node_count
    assert path.read_text(encoding="utf-8") == _json_dump_bytes(trie)


def test_failed_save_leaves_existing_file(tmp_path, monkeypatch):
    path = tmp_path / "index.trie"
    save(insert_all(TrieMode.DAG, FIGURE_SEQUENCES), path)
    before = path.read_bytes()

    to_document = Trie.to_document

    def unencodable(self):  # fails after the temporary file is created
        doc = to_document(self)
        doc["cycle_count"].append(object())
        return doc

    monkeypatch.setattr(Trie, "to_document", unencodable)
    with pytest.raises(TypeError):
        save(insert_all(TrieMode.DAG, [["x"]]), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["index.trie"]
