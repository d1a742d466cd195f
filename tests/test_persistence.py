import copy
import io
import json
import random

import pytest

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
    assert len(doc["nodes"]) == 1
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
    assert doc["format_version"] == 1
    assert doc["mode"] == "dag"
    assert doc["n"] == 2
    assert doc["sequence_count"] == 1
    assert {"node_index", "parent_index", "id", "freq", "terminal_count", "depth"} <= set(doc["nodes"][0])
    assert all({"depth", "id", "cum_freq"} <= set(rec) for rec in doc["depth_stats"])


def test_format_version_mismatch():
    doc = insert_all(TrieMode.DAG, [["a"]]).to_document()
    doc["format_version"] = 2
    with pytest.raises(FormatVersionMismatch):
        Trie.from_document(doc)


def _tampered(mutate):
    doc = copy.deepcopy(insert_all(TrieMode.DAG, FIGURE_SEQUENCES).to_document())
    mutate(doc)
    return doc


def test_corrupt_child_freq_exceeds_parent():
    doc = _tampered(lambda d: d["nodes"][1].update(freq=99))
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


def test_corrupt_missing_header():
    with pytest.raises(CorruptDocument):
        Trie.from_document({"mode": "dag"})


def test_corrupt_nodes_out_of_order():
    doc = _tampered(lambda d: d["nodes"].reverse())
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


def test_corrupt_dangling_parent():
    doc = _tampered(lambda d: d["nodes"][2].update(parent_index=77))
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


def test_corrupt_cycle_edge_in_dag_document():
    doc = _tampered(lambda d: d["cycle_edges"].append({"from_index": 2, "to_index": 1, "count": 1}))
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


def test_corrupt_depth_stats_mismatch():
    doc = _tampered(lambda d: d["depth_stats"][0].update(cum_freq=123))
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


def test_corrupt_root_freq_vs_sequence_count():
    doc = _tampered(lambda d: d.update(sequence_count=42))
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


def test_corrupt_negative_statistics():
    doc = _tampered(lambda d: d["nodes"][3].update(terminal_count=-1))
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


def test_corrupt_cycle_target_not_ancestor():
    t = insert_all(TrieMode.DG, [["a", "b", "a"], ["c", "d"]])
    doc = copy.deepcopy(t.to_document())
    # retarget the cycle edge at a node outside the root path
    by_id = {rec["node_index"]: rec for rec in doc["nodes"]}
    victim = next(rec for rec in doc["nodes"] if rec["id"] == "c")
    edge = doc["cycle_edges"][0]
    edge["to_index"] = victim["node_index"]
    # keep per-node sums consistent enough to reach the ancestor check
    by_id[edge["to_index"]]["freq"] += edge["count"]
    with pytest.raises(CorruptDocument):
        Trie.from_document(doc)


@pytest.mark.parametrize(
    "where, value",
    [
        (("n",), "0"),
        (("n",), -1),
        (("sequence_count",), 2.0),
        (("nodes", 1, "node_index"), True),
        (("nodes", 2, "parent_index"), True),
        (("nodes", 1, "freq"), "3"),
        (("nodes", 1, "terminal_count"), 1.9),
        (("nodes", 3, "terminal_count"), True),
        (("nodes", 2, "depth"), 2.0),
        (("cycle_edges", 0, "from_index"), -2),
        (("cycle_edges", 0, "to_index"), -3),
        (("cycle_edges", 0, "to_index"), 4),
        (("cycle_edges", 0, "count"), "1"),
        (("depth_stats", 0, "depth"), True),
        (("depth_stats", 0, "cum_freq"), 3.0),
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
    buf = io.StringIO()
    json.dump(trie.to_document(), buf, separators=(",", ":"))
    return buf.getvalue()


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
    save(trie, buf)
    assert buf.getvalue() == _json_dump_bytes(trie)


def test_save_to_path_bytes_equal_json_dump(tmp_path):
    trie = _dg_clique(4)
    path = tmp_path / "k4.trie"
    save(trie, path)
    assert path.read_text(encoding="utf-8") == _json_dump_bytes(trie)


def test_failed_save_leaves_existing_file(tmp_path, monkeypatch):
    path = tmp_path / "index.trie"
    save(insert_all(TrieMode.DAG, FIGURE_SEQUENCES), path)
    before = path.read_bytes()

    to_document = Trie.to_document

    def unencodable(self):  # fails after part of the document is written
        doc = to_document(self)
        doc["depth_stats"].append(object())
        return doc

    monkeypatch.setattr(Trie, "to_document", unencodable)
    with pytest.raises(TypeError):
        save(insert_all(TrieMode.DAG, [["x"]]), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["index.trie"]
