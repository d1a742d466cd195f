import copy
import gc
import io
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provtrie.graph import gen_clique
from provtrie.query import QueryPattern, count_paths
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
    ObjectTrie,
    all_node_freqs,
    expand_degrees,
    find,
    format2_document,
    insert_all,
    node_count,
    parent_column,
    prob,
)

HEADER_KEYS = ["format_version", "mode", "n", "sequence_count"]
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
    assert frozen.depth_stats == thawed.depth_stats and frozen.entry == thawed.entry
    return thawed


def roundtrip(trie: Trie) -> Trie:
    buf = io.StringIO()
    save(trie, buf)
    buf.seek(0)
    return load(buf)


def test_empty_trie_roundtrip():
    t = Trie(TrieMode.DAG)
    doc = t.to_document()
    assert doc["sequence_count"] == 0
    assert doc["id"] == [] and doc["child_count"] == doc["cycle_out"] == [0]
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
    assert list(doc) == [*HEADER_KEYS, "child_count", *NODE_COLUMNS, "cycle_out", *CYCLE_COLUMNS]
    assert doc["format_version"] == 3
    assert doc["mode"] == "dag"
    assert doc["n"] == 2
    assert doc["sequence_count"] == 1
    # one degree entry per node, the root (index 0) included; one statistic per non-root node
    assert doc["child_count"] == [1, 1, 0]
    assert doc["id"] == ["a", "b"]
    assert doc["freq"] == [1, 1]
    assert doc["terminal_count"] == [0, 1]
    assert doc["cycle_out"] == [0, 0, 0]
    assert doc["cycle_to"] == doc["cycle_count"] == []


def test_format_version_mismatch():
    doc = insert_all(TrieMode.DAG, [["a"]]).to_document()
    doc["format_version"] = 4
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
    with pytest.raises(FormatVersionMismatch, match="^format_version 2, supported: 3$"):
        load(io.StringIO(text))


def _tampered(mutate):
    doc = copy.deepcopy(insert_all(TrieMode.DAG, FIGURE_SEQUENCES).to_document())
    mutate(doc)
    return doc


# the figure trie breadth-first: 1 N1, 2 N5, 3 N1/N2, 4 N1/N3, 5 N1/N4,
# 6 N1/N2/N1, 7 N1/N2/N3; position k of a node column holds node k + 1, of
# a degree column node k: child_count is [2, 3, 0, 2, 0, 0, 0, 0]


def test_corrupt_child_freq_exceeds_parent():
    doc = _tampered(lambda d: d["freq"].__setitem__(2, 99))  # N1/N2
    with pytest.raises(CorruptDocument):
        from_both(doc)


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
    with pytest.raises(CorruptDocument, match="not before node 1"):
        from_both(doc)


@pytest.mark.parametrize("node, parent", [(0, 1), (2, 3), (2, 4), (6, 7)])
def test_corrupt_parent_not_an_earlier_node(node, parent):
    # the node at column position ``node`` has index node + 1; it, and each later node
    # whose parent comes before ``parent``, is counted among ``parent``'s children
    def reparent(d):
        parents = expand_degrees(d["child_count"])
        parents[node:] = [max(up, parent) for up in parents[node:]]
        d["child_count"] = [parents.count(k) for k in range(len(d["child_count"]))]

    doc = _tampered(reparent)
    for loader in (from_both, ObjectTrie.from_document):
        with pytest.raises(CorruptDocument, match=f"parent not before node {node + 1}$"):
            loader(doc)


# degree columns that break one shape rule each, on _dg_aba_abc (child_count
# [1, 1, 1, 0], cycle_out [0, 0, 1, 0]): lengths, sums and the prefix rule hold
# unless named
DEGREE_BREAKERS = {
    "negative-child-count": ({"child_count": [1, 2, 1, -1]}, "negative child or cycle-edge count"),
    "negative-cycle-out": ({"cycle_out": [0, 1, 1, -1]}, "negative child or cycle-edge count"),
    "bool-child-count": ({"child_count": [True, 1, 1, 0]}, "non-integer"),
    "float-cycle-out": ({"cycle_out": [0, 0, 1.0, 0]}, "non-integer"),
    "child-count-sum": ({"child_count": [1, 1, 1, 1]}, "counts do not sum"),
    "cycle-out-sum": ({"cycle_out": [0, 0, 1, 1]}, "counts do not sum"),
}


def _dg_aba_abc() -> dict:
    return insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "c"]]).to_document()


@pytest.mark.parametrize("columns, message", DEGREE_BREAKERS.values(), ids=DEGREE_BREAKERS.keys())
def test_corrupt_degree_counts(columns, message):
    doc = {**_dg_aba_abc(), **columns}
    with pytest.raises(CorruptDocument, match=message):
        from_both(doc)
    with pytest.raises(CorruptDocument):
        ObjectTrie.from_document(doc)


def test_corrupt_dangling_parent():
    # a child counted past the last node
    doc = _tampered(lambda d: d["child_count"].__setitem__(7, 1))
    with pytest.raises(CorruptDocument, match="sum"):
        from_both(doc)


@pytest.mark.parametrize("column", NODE_COLUMNS + CYCLE_COLUMNS)
@pytest.mark.parametrize("change", ["shorter", "longer"])
def test_corrupt_columns_of_unequal_length(column, change):
    doc = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "c"]]).to_document()
    if change == "shorter":
        doc[column].pop()
    else:
        doc[column].append(doc[column][-1])
    with pytest.raises(CorruptDocument, match="unequal length"):
        from_both(doc)


@pytest.mark.parametrize("column", DEGREE_COLUMNS)
@pytest.mark.parametrize("change", ["shorter", "longer"])
def test_corrupt_degree_column_of_wrong_length(column, change):
    # a trailing 0 keeps each sum, so only the length is wrong
    doc = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "c"]]).to_document()
    assert doc[column][-1] == 0
    if change == "shorter":
        doc[column].pop()
    else:
        doc[column].append(0)
    with pytest.raises(CorruptDocument, match="one count per node"):
        from_both(doc)


def test_corrupt_cycle_edge_in_dag_document():
    def add_edge(d):
        d["cycle_out"][3] += 1  # N1/N2 back to its parent N1
        d["cycle_to"].append(1)
        d["cycle_count"].append(1)

    doc = _tampered(add_edge)
    with pytest.raises(CorruptDocument):
        from_both(doc)


def test_corrupt_duplicate_child():
    doc = _tampered(lambda d: d["id"].__setitem__(1, "N1"))  # N5 renamed to its sibling N1
    with pytest.raises(CorruptDocument, match="duplicate child"):
        from_both(doc)


def test_corrupt_siblings_out_of_label_order():
    # a and b listed b first; every statistic balances and no label repeats
    doc = insert_all(TrieMode.DAG, [["a"], ["b"]]).to_document()
    assert (doc["id"], doc["freq"], doc["terminal_count"]) == (["a", "b"], [1, 1], [1, 1])
    doc["id"] = ["b", "a"]
    with pytest.raises(CorruptDocument, match="^siblings out of label order at node 2: 'a' under node 0$"):
        from_both(doc)
    with pytest.raises(CorruptDocument, match="siblings out of label order"):
        ObjectTrie.from_document(doc)


def test_corrupt_cycle_edges_out_of_label_order():
    # b's cycle-edges back to a and to itself, listed b first; every statistic balances
    doc = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "b"]]).to_document()
    assert (doc["cycle_out"], doc["cycle_to"], doc["cycle_count"]) == ([0, 0, 2], [1, 2], [1, 1])
    doc["cycle_to"] = [2, 1]
    with pytest.raises(CorruptDocument, match="^cycle-edges out of label order at node 2: 'a'$"):
        from_both(doc)
    with pytest.raises(CorruptDocument, match="cycle-edges out of label order"):
        ObjectTrie.from_document(doc)


def test_corrupt_duplicate_cycle_edge():
    doc = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "a"]]).to_document()
    assert (doc["cycle_out"], doc["cycle_to"], doc["cycle_count"]) == ([0, 0, 1], [1], [2])
    doc.update(cycle_out=[0, 0, 2], cycle_to=[1, 1], cycle_count=[1, 1])
    with pytest.raises(CorruptDocument, match="duplicate cycle-edge"):
        from_both(doc)


def test_corrupt_cycle_edge_into_the_root():
    doc = insert_all(TrieMode.DG, [["a", "b"]]).to_document()
    # b's one insertion now cycles back to the root instead of ending at b
    doc.update(terminal_count=[0, 0], cycle_out=[0, 0, 1], cycle_to=[0], cycle_count=[1])
    with pytest.raises(CorruptDocument, match="into the root"):
        from_both(doc)


@pytest.mark.parametrize("rid", ["", 1, None, ["N1"]])
def test_corrupt_identifier_not_a_nonempty_string(rid):
    doc = _tampered(lambda d: d["id"].__setitem__(3, rid))
    with pytest.raises(CorruptDocument, match="identifier"):
        from_both(doc)


def test_corrupt_dg_identifier_repeats_on_the_root_path():
    doc = {
        "format_version": 3,
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
        from_both(doc)
    # in a DAG trie a repeated identifier is just a deeper node
    assert node_count(from_both({**doc, "mode": "dag"})) == 2


def test_dg_self_loops_round_trip():
    t = insert_all(TrieMode.DG, [["a", "a", "b", "b", "a"]])
    a = t.root.children["a"]
    assert a.cycles["a"].target is a and a.children["b"].cycles["b"].target is a.children["b"]
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
        from_both(doc)


def test_corrupt_negative_statistics():
    doc = _tampered(lambda d: d["terminal_count"].__setitem__(2, -1))
    with pytest.raises(CorruptDocument):
        from_both(doc)


def test_corrupt_node_without_traversals():
    # a leaf no sequence reached: conservation holds, but its freq is 0
    doc = _tampered(_add_unreached_leaf)
    with pytest.raises(CorruptDocument, match="out of range"):
        from_both(doc)


def test_corrupt_arrivals_past_freq():
    # a/b returns to a three times, but a is entered only twice
    doc = {**_dg_aba(), "cycle_count": [3]}
    with pytest.raises(CorruptDocument, match="^entry count out of range at node 1$"):
        from_both(doc)


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
        from_both(doc)


def _add_unreached_leaf(doc: dict) -> None:
    # a child of N1/N2/N3 with freq 0: conservation still holds
    doc["child_count"][7] = 1
    for key, value in zip(["child_count", "cycle_out", *NODE_COLUMNS], [0, 0, "N6", 0, 0]):
        doc[key].append(value)


def _dg_aba() -> dict:
    # nodes: root, a, a/b; one cycle-edge a/b -> a
    return insert_all(TrieMode.DG, [["a", "b", "a"]]).to_document()


# documents of a valid shape that break one rule each
RULE_BREAKERS = {
    "leaf-without-traversals": (lambda: _tampered(_add_unreached_leaf), "out of range"),
    "negative-terminal": (lambda: {**_dg_aba(), "terminal_count": [1, -1], "cycle_count": [2]}, "out of range"),
    "cycle-edge-into-the-root": (lambda: {**_dg_aba(), "cycle_to": [0]}, "into the root"),
    "negative-cycle-target": (lambda: {**_dg_aba(), "cycle_to": [-1]}, "negative node index"),
}


@pytest.mark.parametrize("make, message", RULE_BREAKERS.values(), ids=RULE_BREAKERS.keys())
def test_the_column_checker_rejects_each_rule_breaker(make, message):
    # the shape is sound, so only the rules, checked on the columns, can refuse the document
    with pytest.raises(CorruptDocument, match=message):
        FrozenTrie.from_document(make())
    with pytest.raises(CorruptDocument, match=message):
        from_both(make())


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
    ],
)
def test_corrupt_inexact_or_out_of_range_integer(where, value):
    # nodes: root, a, a/b (cycle-edge back to a), a/b/c; child_count [1, 1, 1, 0], cycle_out [0, 0, 1, 0]
    doc = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "c"]]).to_document()
    from_both(copy.deepcopy(doc))
    *parents, key = where
    rec = doc
    for part in parents:
        rec = rec[part]
    rec[key] = value
    with pytest.raises(CorruptDocument):
        from_both(doc)


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

# small ints can land on valid-looking indices and counts; the empty list
# and dict are built afresh per draw, since a mutation may append to them
JUNK = st.one_of(
    st.integers(min_value=-2, max_value=8),
    st.sampled_from([-(2**70), 2**70, True, False, 0.5, 2.0, None, "", "a", ":r1"]),
    st.builds(list),
    st.builds(dict),
)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_document_is_rejected_or_round_trips(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    nodes = len(doc["id"]) + 1  # the root included
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
        trie = from_both(doc)
    except FormatVersionMismatch:
        assert version_hit
        return
    except CorruptDocument:
        return
    again = trie.to_document()
    assert from_both(again).to_document() == again


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
        doc["cycle_count"].append(object())
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
    doc = insert_all(TrieMode.DAG, FIGURE_SEQUENCES).to_document()
    assert doc["id"] == ["N1", "N5", "N2", "N3", "N4", "N1", "N3"]
    assert doc["child_count"] == [2, 3, 0, 2, 0, 0, 0, 0]  # parents 0, 0, 1, 1, 1, 3, 3
    doc = insert_all(TrieMode.DG, [["b", "a", "b"], ["a", "b", "a"], ["a", "c", "a"]]).to_document()
    assert (doc["id"], doc["child_count"]) == (["a", "b", "b", "c", "a"], [2, 2, 1, 0, 0, 0])
    # by source, then label; targets are ancestors
    assert (doc["cycle_out"], doc["cycle_to"], doc["cycle_count"]) == ([0, 0, 0, 1, 1, 1], [1, 1, 2], [1, 1, 1])


def _siblings_reversed(trie: Trie) -> dict:
    """The trie's document in another level order: children, and each
    node's cycle-edges, in reverse label order."""
    order = [0]
    for node in order:
        order += sorted(trie.children[node].values(), key=trie.id.__getitem__, reverse=True)
    renumber = {node: k for k, node in enumerate(order)}
    edges = [edge for node in order for _, edge in sorted(trie.cycles[node].items(), reverse=True)]
    return {
        **trie.to_document(),
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
    trie.insert_dg([":r3", ":r2", ":r3", ":r0"])
    doc = trie.to_document() if order == "breadth-first" else _siblings_reversed(trie)
    assert doc["id"] != trie.to_document()["id"] or order == "breadth-first"
    if order == "siblings-reversed":  # the loader requires canonical label order
        with pytest.raises(CorruptDocument, match="out of label order"):
            from_both(doc)
        return
    before = copy.deepcopy(doc)
    loaded = Trie.from_document(doc)
    # node k of the document is node k of the trie
    assert parent_column(loaded)[1:] == expand_degrees(doc["child_count"]) and loaded.id[1:] == doc["id"]
    assert [source for source, out in enumerate(loaded.cycles) for _ in out] == expand_degrees(doc["cycle_out"])
    assert loaded.freq[1:] == doc["freq"] and loaded.terminal[1:] == doc["terminal_count"]
    assert loaded.cycle_to == doc["cycle_to"] and loaded.cycle_count == doc["cycle_count"]
    assert [edge for out in loaded.cycles for edge in out.values()] == list(range(len(doc["cycle_to"])))
    assert loaded.to_document() == trie.to_document()
    # later changes to the trie leave the document alone
    loaded.insert_dg([":r3", ":r2", ":r3", ":r1"])
    assert loaded.sequence_count == doc["sequence_count"] + 1
    assert doc == before


def test_loading_adds_few_gc_tracked_objects(tmp_path):
    # the node and edge columns hold only ints, strings and dicts of them,
    # which the cyclic collector does not track, so loading tracks no
    # object per node or per cycle-edge
    trie = _dg_clique(6)
    assert (node_count(trie), len(trie.to_document()["cycle_to"])) == (1956, 7830)
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
    assert (frozen.depth_stats, frozen.sequence_count) == (trie.depth_stats, trie.sequence_count)
    pattern = QueryPattern((":r0",), 3, ":r1")
    assert count_paths(frozen, pattern) == count_paths(trie, pattern)
    assert added < 100, added
